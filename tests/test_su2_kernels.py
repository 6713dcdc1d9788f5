"""The raw-mantissa SU(2) kernels: correct rounding of products, and
bit-identity of rotation, dagger and exp_pauli with their mpf formulas."""

import random

import pytest
from mpmath import log10, mp, mpf, sqrt
from mpmath.libmp import mpf_add, mpf_mul, mpf_pos, round_nearest

from compulse import su2
from compulse.error_models import AxisDependentPi3, CovariantVector, LinearOverRotation, PerChannel
from compulse.precision import working_digits
from compulse.sequences import build_builtin, evaluate
from compulse.su2 import Unitary

import oracles


def _random_component(rng):
    """A working-precision value of magnitude 1e-45..1, or an exact zero."""
    if rng.random() < 0.15:
        return mpf(0)
    mantissa = mpf(rng.getrandbits(mp.prec) | 1) / 2**mp.prec
    value = mantissa * mpf(10) ** -rng.uniform(0, 45)
    return -value if rng.random() < 0.5 else value


def _random_quaternion(rng):
    return Unitary(*(_random_component(rng) for _ in range(4)))


def _exact_product_terms(a, b):
    """The four signed products summed by each component of a*b."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        ((w1, w2), (-x1, x2), (-y1, y2), (-z1, z2)),
        ((w1, x2), (w2, x1), (-y1, z2), (z1, y2)),
        ((w1, y2), (w2, y1), (-z1, x2), (x1, z2)),
        ((w1, z2), (w2, z1), (-x1, y2), (y1, x2)),
    )


def _correctly_rounded(terms):
    exact = mpf(0)._mpf_
    for p, q in terms:
        exact = mpf_add(exact, mpf_mul(p._mpf_, q._mpf_, 0), 0)
    return mpf_pos(exact, mp.prec, round_nearest)


class TestMultiplyRounding:
    @pytest.mark.parametrize("digits", [16, 60, 200])
    def test_each_component_is_the_exact_sum_rounded_once(self, digits):
        rng = random.Random(digits)
        with working_digits(digits):
            for _ in range(300):
                a, b = _random_quaternion(rng), _random_quaternion(rng)
                got = su2.multiply(a, b)
                for component, terms in zip(got, _exact_product_terms(a, b)):
                    assert component._mpf_ == _correctly_rounded(terms)

    def test_zero_factors(self):
        zero = Unitary(mpf(0), mpf(0), mpf(0), mpf(0))
        u = Unitary(mpf("0.5"), mpf("-0.5"), mpf(0), mpf("0.25"))
        assert su2.multiply(zero, u) == zero
        assert su2.multiply(u, zero) == zero
        assert su2.multiply(su2.identity(), u) == u

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_component_raises(self, bad):
        u = Unitary(mpf(1), mpf(0), mpf(bad), mpf(0))
        with pytest.raises(ValueError, match="non-finite"):
            su2.multiply(u, su2.identity())
        with pytest.raises(ValueError, match="non-finite"):
            su2.multiply(su2.identity(), u)


# The former mpf-expression kernels, kept as the bit-exact oracle.


def _rotation_ref(unit_axis, alpha):
    nx, ny, nz = unit_axis
    c, s = mp.cos_sin(alpha)
    return Unitary(c, s * nx, s * ny, s * nz)


def _dagger_ref(u):
    return Unitary(u.w, -u.x, -u.y, -u.z)


def _exp_pauli_ref(vec):
    v = su2.as_vec3(vec)
    m = su2.vec_norm(v)
    if m == 0:
        return su2.identity()
    c, s = mp.cos_sin(m)
    return Unitary(c, s * v[0] / m, s * v[1] / m, s * v[2] / m)


def _bits(u):
    return tuple(c._mpf_ for c in u)


def _random_vec(rng, scale):
    return tuple(mpf(rng.uniform(-1, 1)) * scale for _ in range(3))


@pytest.mark.parametrize("digits", [16, 60])
class TestKernelsBitIdentical:
    def test_rotation(self, digits):
        rng = random.Random(1)
        with working_digits(digits):
            for _ in range(200):
                axis = oracles.unit_vector(_random_vec(rng, 1))
                alpha = mp.pi * mpf(rng.uniform(-2, 2))
                assert _bits(su2.rotation(axis, alpha)) == _bits(_rotation_ref(axis, alpha))

    def test_dagger(self, digits):
        rng = random.Random(2)
        with working_digits(digits):
            for _ in range(200):
                u = su2.from_generator(oracles.unit_vector(_random_vec(rng, 1)), mpf(rng.uniform(-3, 3)))
                assert _bits(su2.dagger(u)) == _bits(_dagger_ref(u))

    def test_dagger_of_a_higher_precision_value(self, digits):
        rng = random.Random(3)
        for _ in range(50):
            with working_digits(digits + 40):
                u = su2.from_generator(oracles.unit_vector(_random_vec(rng, 1)), mpf(rng.uniform(-3, 3)))
            with working_digits(digits):
                assert _bits(su2.dagger(u)) == _bits(_dagger_ref(u))

    def test_exp_pauli(self, digits):
        rng = random.Random(4)
        with working_digits(digits):
            for scale in ("1e-30", "1e-8", "0.4"):
                for _ in range(70):
                    vec = _random_vec(rng, mpf(scale))
                    assert _bits(su2.exp_pauli(vec)) == _bits(_exp_pauli_ref(vec))
            assert _bits(su2.exp_pauli((0, 0, 0))) == _bits(su2.identity())


@pytest.mark.parametrize(
    "model",
    [
        LinearOverRotation(1),
        PerChannel(
            {
                "target": CovariantVector.constant((mpf("0.7"), mpf("-0.4"), mpf("0.5"))),
                "pi3": AxisDependentPi3(mpf("0.6"), mpf("0.9")),
            }
        ),
    ],
    ids=["linear", "vector_axisdep"],
)
def test_depth5_chain_at_60_digits_agrees_with_100(model):
    seq = build_builtin("concat:XYZXY")
    with working_digits(60):
        scale = mpf("0.01")
        low = evaluate(seq, model, scale)
    with working_digits(100):
        high = evaluate(seq, model, scale)
        diff = sqrt(sum((p - q) ** 2 for p, q in zip(low, high)))
        assert diff == 0 or -log10(diff / sqrt(sum(q**2 for q in high))) >= 58
