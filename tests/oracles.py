"""Independent oracles for the quaternion kernels and the error models.

The matrix oracles go through numpy 2x2 complex matrices at double
precision, deliberately sharing no code with the library under test.
:func:`invert_model_consistency` checks a model at the working precision
through nothing but its ``realize``.
"""

import numpy as np
from mpmath import fabs

from compulse.precision import unit_tolerance

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def to_matrix(u) -> np.ndarray:
    """w*I + i(x*X + y*Y + z*Z) as a dense matrix."""
    w, x, y, z = (float(c) for c in u)
    return w * I2 + 1j * (x * SX + y * SY + z * SZ)


def matrix_exp_generator(axis, alpha) -> np.ndarray:
    """exp(i*alpha*(axis . sigma)) via eigendecomposition-free closed form."""
    ax = np.asarray([float(a) for a in axis])
    ax = ax / np.linalg.norm(ax)
    h = ax[0] * SX + ax[1] * SY + ax[2] * SZ
    return np.cos(float(alpha)) * I2 + 1j * np.sin(float(alpha)) * h


def random_unitary(rng) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return q[0] * I2 + 1j * (q[1] * SX + q[2] * SY + q[3] * SZ)


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def trace_distance_phase_swept(ideal, actual, n_phases=1001, stages=5) -> float:
    """Brute-force min over global phase of the nuclear norm of the difference.

    Sweeps a phase grid and recursively refines around the best point; the
    minimum sits at a kink, so each stage gains the full grid resolution.
    """
    a = to_matrix(ideal)
    b = to_matrix(actual)

    def sweep(center, halfwidth):
        phis = np.linspace(center - halfwidth, center + halfwidth, n_phases)
        norms = [
            np.linalg.svd(a - np.exp(1j * phi) * b, compute_uv=False).sum() for phi in phis
        ]
        k = int(np.argmin(norms))
        return phis[k], norms[k]

    center, best = 0.0, np.inf
    halfwidth = np.pi
    for _ in range(stages):
        center, best = sweep(center, halfwidth)
        halfwidth *= 4.0 / n_phases
    return float(best)


def invert_model_consistency(model, pulse) -> bool:
    """Check realize(inverse pulse) == dagger(realize(pulse)) within the
    working-precision tolerance; the dagger of w + i(x, y, z) is w - i(x, y, z)."""
    inv = model.realize(pulse.daggered())
    w, x, y, z = model.realize(pulse)
    tol = unit_tolerance()
    return all(fabs(a - b) <= tol for a, b in zip(inv, (w, -x, -y, -z)))
