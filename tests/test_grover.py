"""Grover's fixed-point law as a model-free oracle for the pi/3 correction.

C0, a pi/3 rotation about a lab axis a, is up to phase Grover's pi/3 phase
shift on |a>, the +1 eigenstate of a.sigma, and Ct = U C0 U^dagger is the
same shift on U|a>.  With D_a = 1 - |<a|U^dagger V|a>|^2 the distance of the
realized gate V from the target U (:func:`oracles.axis_distance`), one
level about a with ideal corrections gives D_a' = D_a^3 exactly, whatever
the error in U.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import fabs, mp, mpf

from compulse.error_models import AxisOverRotation, CovariantVector, LinearOverRotation, PerChannel
from compulse.precision import working_digits
from compulse.sequences import LAB_AXES, build_builtin, evaluate, parse_target, pi3_correct

import oracles

# (base, target) pairs the builders accept: b2sym corrects rotations about x only
CASES = [
    (base, target)
    for base, target in product(("naive", "b2sym", "pi5"), ("x-pi", "x-pi/2", "z-pi", "y-3pi/4"))
    if base != "b2sym" or target.startswith("x")
]

# Target-channel models of each kind that corrupts the target, with base coefficient c.
KINDS = {
    "linear": lambda c: LinearOverRotation(c),
    "poly": lambda c: AxisOverRotation((c, c / 3), {"y": (0, 2 * c), "-x": (c / 5,)}),
    "vector": lambda c: CovariantVector((c,), (-c / 2, c / 4), (c / 7,)),
}


@settings(max_examples=40)
@given(
    case=st.sampled_from(CASES),
    kind=st.sampled_from(sorted(KINDS)),
    coeff=st.floats(-0.2, 0.2),
    axes=st.text("XYZ", min_size=1, max_size=4),
    digits=st.sampled_from([30, 60]),
)
def test_one_level_cubes_the_distance_about_its_axis(case, kind, coeff, axes, digits):
    # D' is a sum of squares of components whose absolute rounding error
    # stays below delta = 10^(3 - digits) / 2, so it errs by at most
    # 2*sqrt(D')*delta + delta^2, with sqrt(D') = D^(3/2): hence the bound
    # |D' - D^3| <= 10^(3 - digits) * D^(3/2) + 10^(2*(3 - digits))
    base, target = case
    with working_digits(digits):
        tol = mpf(10) ** (3 - mp.dps)
        model = PerChannel({"target": KINDS[kind](mpf(coeff))})  # ideal corrections
        seq = build_builtin(base, parse_target(target))
        actual = evaluate(seq, model)
        for letter in axes:
            axis = LAB_AXES[letter]
            d = oracles.axis_distance(seq.ideal_unitary(), actual, axis)
            seq = pi3_correct(seq, axis)
            actual = evaluate(seq, model)
            d_next = oracles.axis_distance(seq.ideal_unitary(), actual, axis)
            assert fabs(d_next - d**3) <= tol * d ** mpf(1.5) + tol**2, (letter, d, d_next)
