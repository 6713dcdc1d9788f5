"""The raw-mantissa SU(2) kernels: correct rounding of products and of
truncated series products, bit-identity of products with the former
``from_man_exp`` kernel (edge cases, the rounding helper and whole
evaluations), and bit-identity of rotation, dagger,
exp_pauli, the vector norm, the unit axis, the frame map and the covariant
error generator with their mpf formulas."""

import random
from itertools import product
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import fabs, log10, mp, mpf, sqrt
from mpmath.libmp import from_man_exp, mpf_add, mpf_mul, mpf_neg, mpf_pos, round_nearest

from compulse import su2
from compulse.error_models import AxisDependentPi3, CovariantVector, LinearOverRotation, PerChannel
from compulse.precision import working_digits
from compulse.sequences import BUILTIN_NAMES, FrameTriad, build_builtin, evaluate
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
    """The four signed products summed by each component of a*b, as
    (sign, p, q) with sign +1 or -1."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        ((1, w1, w2), (-1, x1, x2), (-1, y1, y2), (-1, z1, z2)),
        ((1, w1, x2), (1, w2, x1), (-1, y1, z2), (1, z1, y2)),
        ((1, w1, y2), (1, w2, y1), (-1, z1, x2), (1, x1, z2)),
        ((1, w1, z2), (1, w2, z1), (-1, x1, y2), (1, y1, x2)),
    )


def _correctly_rounded(terms):
    # Every step below prec=0 is exact, whatever the operands' widths.
    exact = mpf(0)._mpf_
    for sign, p, q in terms:
        term = mpf_mul(p._mpf_, q._mpf_, 0)
        exact = mpf_add(exact, term if sign > 0 else mpf_neg(term), 0)
    return mpf_pos(exact, mp.prec, round_nearest)


def _assert_matches_oracles(a, b):
    """su2.multiply(a, b) has the former kernel's bits, and each component is
    the exact sum of its four products rounded once."""
    got = su2.multiply(a, b)
    assert _bits(got) == _bits(oracles.multiply_from_man_exp(a, b))
    for component, terms in zip(got, _exact_product_terms(a, b)):
        assert component._mpf_ == _correctly_rounded(terms)
    return got


def _exact(man, exp=0):
    """man * 2**exp as an mpf, stored exactly whatever the working precision."""
    return mp.make_mpf(from_man_exp(man, exp))


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

    @pytest.mark.parametrize("bad", [mpf("inf"), mpf("-inf"), mpf("nan"), float("inf"), float("nan")])
    def test_non_finite_component_raises(self, bad):
        # on every call, and the factor keeps no form; a float is converted
        # when the value is built, and the finite partner keeps its form
        u = Unitary(1, 0, bad, 0)
        good = su2.rotation((1, 0, 0), mpf("0.3"))
        for _ in range(3):
            for a, b in ((u, su2.identity()), (su2.identity(), u), (u, su2.multiply(good, good)), (good, u)):
                with pytest.raises(ValueError, match="non-finite"):
                    su2.multiply(a, b)
        assert u._pairs is None and u._left is None
        assert good._left is not None
        assert _bits(su2.multiply(good, good)) == _bits(oracles.multiply_from_man_exp(good, good))


def _random_series(rng, box):
    """Up to four terms at indices at most ``box``, coefficients of magnitude
    up to 2**8."""
    series = {}
    for _ in range(rng.randint(1, 4)):
        k = tuple(rng.randint(0, b) for b in box)
        scale = 2 ** rng.randint(0, 8)
        series[k] = Unitary(*(c * scale for c in _random_quaternion(rng)))
    return series


class TestSeriesProduct:
    @pytest.mark.parametrize("digits", [16, 60, 200])
    def test_a_product_of_one_term_series_is_multiply_bit_for_bit(self, digits):
        rng = random.Random(digits + 1)
        with working_digits(digits):
            for _ in range(300):
                a, b = _random_quaternion(rng), _random_quaternion(rng)
                ka, kb = (rng.randint(0, 2), rng.randint(0, 1)), (rng.randint(0, 1), rng.randint(0, 2))
                got = su2.series_product({ka: a}, {kb: b}, (3, 3))
                want = su2.multiply(a, b)
                if any(want):
                    assert list(got) == [(ka[0] + kb[0], ka[1] + kb[1])]
                    assert _bits(next(iter(got.values()))) == _bits(want)
                else:
                    assert got == {}

    @pytest.mark.parametrize("digits", [16, 60, 200])
    def test_each_coefficient_is_the_exact_sum_rounded_once(self, digits):
        rng = random.Random(digits + 2)
        with working_digits(digits):
            for _ in range(60):
                box = (rng.randint(0, 3), rng.randint(0, 2))
                a, b = _random_series(rng, box), _random_series(rng, box)
                got = su2.series_product(a, b, box)
                for k in product(range(box[0] + 1), range(box[1] + 1)):
                    pairs = [(ua, ub) for ka, ua in a.items() for kb, ub in b.items()
                             if (ka[0] + kb[0], ka[1] + kb[1]) == k]
                    want = [
                        _correctly_rounded([t for ua, ub in pairs for t in _exact_product_terms(ua, ub)[c]])
                        for c in range(4)
                    ]
                    if any(man for _, man, _, _ in want):
                        assert [c._mpf_ for c in got[k]] == want
                    else:
                        assert k not in got
                assert set(got) <= set(product(range(box[0] + 1), range(box[1] + 1)))

    def test_non_finite_component_raises(self):
        bad = Unitary(1, 0, mpf("nan"), 0)
        with pytest.raises(ValueError, match="non-finite"):
            su2.series_product({(0,): su2.identity()}, {(1,): bad}, (1,))


class TestExactForms:
    """The exact forms a Unitary keeps never show in a product."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((16, 60, 200)),
        st.sampled_from((16, 60, 200)),
        st.integers(0, 2**32),
        st.lists(st.tuples(st.integers(0, 41), st.sampled_from(("last", "copy", "other"))), min_size=2, max_size=120),
    )
    def test_a_fold_has_the_oracle_bits(self, first, second, seed, steps):
        # left factors from a pool, two of them too wide to keep their
        # aligned form; right factors the last product, a value-equal copy
        # of it, or an unrelated quaternion; the precision changes halfway
        rng = random.Random(seed)
        with working_digits(200):
            # every third factor a rotation about a signed lab axis
            pool = [
                su2.rotation(rng.choice(tuple(su2.NAMED_AXES.values())), mpf(rng.uniform(-3, 3)))
                if k % 3 == 0
                else _random_quaternion(rng)
                for k in range(40)
            ]
            pool += [Unitary(mpf(1), _exact(3, -2 * su2._LEFT_BITS), mpf(0), mpf(0)),
                     Unitary(_exact(-5, 3 * su2._LEFT_BITS), mpf(0), mpf("0.5"), mpf(0))]
        out = su2.identity()
        half = len(steps) // 2
        for digits, part in ((first, steps[:half]), (second, steps[half:])):
            with working_digits(digits):
                for index, right in part:
                    b = {"last": out, "copy": Unitary(*out), "other": _random_quaternion(rng)}[right]
                    out = su2.multiply(pool[index], b)
                    assert _bits(out) == _bits(oracles.multiply_from_man_exp(pool[index], b))
                    assert (pool[index]._left is None) == (index >= 40)

    @pytest.mark.parametrize("digits", [16, 60, 200])
    @settings(max_examples=60, deadline=None)
    @given(nonzero=st.sampled_from(((0,), (1,), (2,), (), (0, 1), (0, 2), (1, 2), (0, 1, 2))), data=st.data())
    def test_a_left_factor_of_every_zero_pattern_has_the_oracle_bits(self, digits, nonzero, data):
        # ``nonzero`` lists the nonzero vector components: (w, x, 0, 0),
        # (w, 0, y, 0), (w, 0, 0, z) and (w, 0, 0, 0) take the sparse sums,
        # one zero or none the dense one; each on first use,
        # then again with its kept aligned form, times the last product and
        # times an unrelated right factor
        with working_digits(digits):
            prec = mp.prec
            mantissa = st.integers(1 - 2**prec, 2**prec - 1)
            # exponents close enough for the left factor to keep its form
            value = st.builds(_exact, mantissa, st.integers(-2 * prec, prec))
            nonzero_value = st.builds(_exact, mantissa.filter(bool), st.integers(-2 * prec, prec))
            a = Unitary(data.draw(nonzero_value), *(data.draw(nonzero_value) if k in nonzero else mpf(0) for k in range(3)))
            b = Unitary(*(data.draw(value) for _ in range(4)))
            assert a._left is None
            first = su2.multiply(a, b)
            assert _bits(first) == _bits(oracles.multiply_from_man_exp(a, b))
            entry = a._left
            assert (entry[5] != 0) == (len(nonzero) <= 1)
            again = su2.multiply(a, first)
            assert _bits(again) == _bits(oracles.multiply_from_man_exp(a, first))
            assert _bits(su2.multiply(a, b)) == _bits(first)
            assert a._left is entry

    def test_a_chain_evaluation_unpacks_each_distinct_factor_once(self, monkeypatch):
        # 727 products over 22 distinct realized unitaries: a product hands
        # its pairs to the next one, so only mpf-built values are unpacked:
        # the identity and, on first use, each distinct left factor
        seq = build_builtin("concat:XYYXY")
        calls = []
        unpack = su2._unpack
        monkeypatch.setattr(su2, "_unpack", lambda u: calls.append(u) or unpack(u))
        with working_digits(60):
            counts = []
            for _ in range(2):
                calls.clear()
                evaluate(seq, LinearOverRotation(1), mpf("0.01"))
                counts.append(len(calls))
        assert len(seq.pulses) == 727
        assert counts == [23, 1]

    @pytest.mark.parametrize("digits", [16, 60])
    def test_an_evaluation_makes_no_mpf_until_its_result_is_read(self, monkeypatch, digits):
        seq = build_builtin("concat:XYYXY")
        made = []
        make = su2._mpf_from
        monkeypatch.setattr(su2, "_mpf_from", lambda pair: made.append(pair) or make(pair))
        with working_digits(digits):
            got = evaluate(seq, LinearOverRotation(1), mpf("0.01"))
            assert made == [] and got._parts is None
            assert got.w == got[0]
            assert len(made) == 4
            assert (got.x, got.y, got.z) == tuple(got)[1:]
            assert len(made) == 4

    @pytest.mark.parametrize("digits", [16, 60, 200])
    def test_a_left_factor_wider_than_the_bound_is_not_kept(self, digits):
        rng = random.Random(digits)
        with working_digits(digits):
            wide = Unitary(mpf("0.5"), _exact(-3, -su2._LEFT_BITS - 2), mpf(0), mpf("-0.25"))
            for _ in range(3):
                b = _random_quaternion(rng)
                _assert_matches_oracles(wide, b)
                out = _assert_matches_oracles(wide, su2.multiply(b, b))
                _assert_matches_oracles(wide, out)
                assert wide._left is None and wide._pairs is not None

    @pytest.mark.parametrize("digits", [16, 60])
    def test_components_that_are_not_mpf_are_converted_when_built(self, digits):
        with working_digits(digits):
            m = mpf("0.1")
            for parts in ((1, 0, 0, 0), (0.5, -0.5, 0, 0.25), (m, 0, 1, -0.75), (3, m, 2.5, 0)):
                u = Unitary(*parts)
                assert all(type(c) is mpf for c in u)
                assert tuple(u) == tuple(mpf(c) for c in parts)
                assert all(u[k] is c for k, c in enumerate(parts) if isinstance(c, mpf))
                for a, b in ((u, su2.identity()), (su2.identity(), u), (u, u)):
                    assert _bits(su2.multiply(a, b)) == _bits(oracles.multiply_from_man_exp(a, b))
            assert _bits(su2.multiply(Unitary(1, 0, 0, 0), su2.identity())) == _bits(su2.identity())


class TestValueSemantics:
    """A product that holds only its exact form reads as ``Unitary(*its
    components)`` and as the NamedTuple of the same four mpf."""

    _Tuple = NamedTuple("Unitary", [("w", mpf), ("x", mpf), ("y", mpf), ("z", mpf)])

    def _check(self, fresh, want):
        # each operation on a new product, so each one is its first read
        reads = (
            repr, hash, len, tuple, list,
            lambda u: u.w, lambda u: u.x, lambda u: u.y, lambda u: u.z,
            lambda u: [u[k] for k in range(-4, 4)], lambda u: u[1:3],
            lambda u: (lambda w, x, y, z: (w, x, y, z))(*u),
        )
        for read in reads:
            assert read(fresh()) == read(want)
        named = self._Tuple(*want)
        assert repr(fresh()) == repr(named) and hash(fresh()) == hash(named)
        for other in (want, tuple(want), named):
            assert fresh() == other and other == fresh()
            assert not (fresh() != other) and not (other != fresh())
        assert fresh() != Unitary(want.w, want.x, want.y, want.z + 1)
        assert fresh() != (want.w, want.x, want.y)

    @given(st.sampled_from((16, 60, 200)), st.integers(0, 2**32))
    def test_a_product_reads_as_its_components(self, digits, seed):
        rng = random.Random(seed)
        with working_digits(digits):
            a, b = _random_quaternion(rng), _random_quaternion(rng)
            want = Unitary(*su2.multiply(a, b))
            self._check(lambda: su2.multiply(a, b), want)

    @given(st.integers(0, 2**32))
    def test_a_product_made_at_200_digits_reads_the_same_at_16(self, seed):
        rng = random.Random(seed)
        with working_digits(200):
            a, b = _random_quaternion(rng), _random_quaternion(rng)
            products = [su2.multiply(a, b) for _ in range(40)]
            want = Unitary(*su2.multiply(a, b))
        with working_digits(16):
            assert _bits(Unitary(*want)) == _bits(want)
            self._check(products.pop, want)


@pytest.mark.parametrize("digits", [16, 60, 200])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_factors_whose_exponents_spread_far_apart_have_the_oracle_bits(digits, data):
    # one component near 1, the others up to 10**5 bits below it: the
    # aligned integers are as wide as the spread, and the wide factor is
    # multiplied on either side and reused as a left factor
    with working_digits(digits):
        prec = mp.prec
        mantissa = st.integers(1 - 2**prec, 2**prec - 1)
        spread = data.draw(st.integers(0, 10**5))
        near = st.builds(_exact, mantissa.filter(bool), st.integers(-prec - 2, -prec + 2))
        far = st.builds(_exact, mantissa, st.integers(-prec - spread - 2, -prec - spread + 2))
        big = data.draw(st.integers(0, 3))
        wide = Unitary(*(data.draw(near if k == big else far) for k in range(4)))
        narrow = Unitary(*(data.draw(st.builds(_exact, mantissa, st.integers(-2 * prec, 0))) for _ in range(4)))
        out = _assert_matches_oracles(wide, narrow)
        out = _assert_matches_oracles(narrow, out)
        _assert_matches_oracles(out, wide)
        _assert_matches_oracles(wide, out)
        _assert_matches_oracles(wide, wide)
        kept = wide._left is not None
        assert kept == (max(m.bit_length() for m in su2._left_form(wide)[:4]) <= su2._LEFT_BITS)


def _sums(p, q, r):
    """Factors whose product has components (p-q-r, p+q, p+r, r-q)."""
    return Unitary(p, q, r, mpf(0)), Unitary(mpf(1), mpf(1), mpf(1), mpf(0))


@pytest.mark.parametrize("digits", [16, 60, 200])
class TestMultiplyEdgeCases:
    """Sums that sit exactly where rounding to nearest, ties to even, can
    go wrong, each checked against both oracles and the expected value."""

    def test_half_ulp_ties_round_to_even(self, digits):
        with working_digits(digits):
            prec = mp.prec
            for kept in (2 ** (prec - 1) + 2, 2 ** (prec - 1) + 3, 2**prec - 3, 2**prec - 2):
                for m in (1, 2, 3 * prec):
                    # p + q lies half an ulp above kept (a tie), p + r a quarter ulp
                    p, q = _exact(kept, m), _exact(1, m - 1)
                    for sign in (1, -1):
                        a, b = _sums(sign * p, sign * q, sign * _exact(1, m - 2))
                        got = _assert_matches_oracles(a, b)
                        assert got.x == sign * _exact(kept + (kept & 1), m)
                        assert got.y == sign * p

    def test_all_ones_mantissa_carries_into_the_next_power_of_two(self, digits):
        with working_digits(digits):
            prec = mp.prec
            ones = 2**prec - 1
            for m in (2, 3, 2 * prec + 5):
                # p + q is a tie, p + r lies above it: both round up
                a, b = _sums(_exact(ones, m), _exact(1, m - 1), _exact(3, m - 2))
                got = _assert_matches_oracles(a, b)
                assert got.x._mpf_ == (0, 1, prec + m, 1)
                assert got.y._mpf_ == (0, 1, prec + m, 1)
            a, b = _sums(_exact(ones, 1), mpf(1), mpf(0))
            assert _assert_matches_oracles(a, b).x._mpf_ == (0, 1, prec + 1, 1)

    def test_exact_results_shed_long_trailing_zero_runs(self, digits):
        with working_digits(digits):
            prec = mp.prec
            half = 2 ** (prec - 1)
            a, b = _sums(_exact(half + 1, 200), _exact(half - 1, 200), _exact(3, 5 * prec))
            got = _assert_matches_oracles(a, b)
            assert got.x._mpf_ == (0, 1, prec + 200, 1)
            assert got.z == _exact(3, 5 * prec) - _exact(half - 1, 200)
            a, b = _sums(_exact(3, 5 * prec), _exact(5, 5 * prec), _exact(5 << 300, -9))
            got = _assert_matches_oracles(a, b)
            assert got.x._mpf_ == (0, 1, 5 * prec + 3, 1)
            assert got.y == _exact(3, 5 * prec) + _exact(5 << 300, -9)

    def test_component_cancelling_to_exactly_zero(self, digits):
        with working_digits(digits):
            q = _exact(2**mp.prec - 1, -mp.prec)
            a, b = _sums(2 * q, q, q)
            got = _assert_matches_oracles(a, b)
            assert got.w._mpf_ == got.z._mpf_ == (0, 0, 0, 0)

    def test_exact_cancellation_beside_a_tiny_term(self, digits):
        # w = 1*1 - 1*1 - 0*0 - 2**-k * 1: the two large terms cancel exactly,
        # so the tiny one is the whole result, not a rounding of it
        with working_digits(digits):
            prec = mp.prec
            for k in (3 * prec, 10 * prec):
                a = Unitary(mpf(1), mpf(1), mpf(0), _exact(1, -k))
                b = Unitary(mpf(1), mpf(1), mpf(0), mpf(1))
                assert _assert_matches_oracles(a, b).w._mpf_ == (1, 1, -k, 1)

    def test_zero_components_beside_large_exponents(self, digits):
        with working_digits(digits):
            big = _exact(2**mp.prec - 1, 3 * mp.prec)
            zero = mpf(0)
            for a in (Unitary(big, zero, _exact(5, 700), zero), Unitary(zero, zero, zero, big)):
                for b in (Unitary(zero, big, zero, _exact(3, 40)), Unitary(zero, _exact(-1, -900), zero, zero)):
                    _assert_matches_oracles(a, b)
                    _assert_matches_oracles(b, a)

    def test_exponents_far_apart(self, digits):
        rng = random.Random(digits)
        with working_digits(digits):
            prec = mp.prec
            for _ in range(50):
                shifts = [0, -2 * prec - 1 - rng.randrange(prec), 2 * prec + 1 + rng.randrange(prec)]
                parts = [_exact(rng.getrandbits(prec) | 1, rng.choice(shifts) - prec) for _ in range(8)]
                _assert_matches_oracles(Unitary(*parts[:4]), Unitary(*parts[4:]))

    def test_non_unit_inputs(self, digits):
        rng = random.Random(digits + 1)
        with working_digits(digits):
            prec = mp.prec
            for _ in range(100):
                parts = [
                    _exact(rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 3 * prec)), rng.randint(-1000, 1000))
                    for _ in range(8)
                ]
                _assert_matches_oracles(Unitary(*parts[:4]), Unitary(*parts[4:]))

    @given(data=st.data())
    def test_raw_components(self, digits, data):
        with working_digits(digits):
            prec = mp.prec
            raw = st.tuples(st.booleans(), st.integers(0, 2 ** (3 * prec) - 1), st.integers(-4 * prec, 4 * prec))
            parts = [_exact(-man if neg else man, exp) for neg, man, exp in data.draw(st.lists(raw, min_size=8, max_size=8))]
            _assert_matches_oracles(Unitary(*parts[:4]), Unitary(*parts[4:]))


@pytest.mark.parametrize("digits", [16, 60, 200])
def test_round_then_normalize_is_libmp_from_man_exp(digits):
    """su2._round, then the normalizing su2._mpf_from, is from_man_exp(man,
    exp, prec, round_nearest), raw tuple for raw tuple; the rounded
    mantissa has at most prec bits unless it carried into 2**prec."""
    rng = random.Random(digits)
    with working_digits(digits):
        prec = mp.prec
    cases = [(0, 0), (0, -7), (1, 0), (-1, 3)]
    for _ in range(2000):
        bits = rng.randint(1, 3 * prec)
        man = rng.getrandbits(bits) | 1 << (bits - 1)
        cases.append((rng.choice((1, -1)) * man << rng.choice((0, 0, 1, 64, 500)), rng.randint(-5 * prec, 5 * prec)))
    for bits in range(1, 3 * prec + 1):
        cases.append((2**bits - 1, -bits))  # all ones: carries when rounded up
    for kept in (2 ** (prec - 1), 2 ** (prec - 1) + 1, 2**prec - 2, 2**prec - 1):
        for m in (1, 2, 3, 299, 300, 301, 3 * prec):
            tie = (kept << m) + (1 << (m - 1))
            for man in (tie - 1, tie, tie + 1):
                cases += [(man, -m), (-man, m)]
    for man, exp in cases:
        pair = su2._round(man, exp, prec)
        assert su2._mpf_from(pair)._mpf_ == from_man_exp(man, exp, prec, round_nearest), (man, exp)
        assert abs(pair[0]).bit_length() <= prec or abs(pair[0]) == 2**prec, (man, exp)
        assert pair == (0, 0) or pair[0], (man, exp)


_CHAIN_MODELS = [
    LinearOverRotation(1),
    PerChannel(
        {
            "target": CovariantVector.constant((mpf("0.7"), mpf("-0.4"), mpf("0.5"))),
            "pi3": AxisDependentPi3(mpf("0.6"), mpf("0.9")),
        }
    ),
]


@pytest.mark.parametrize("digits", [16, 60])
@pytest.mark.parametrize("model", _CHAIN_MODELS, ids=["linear", "vector_axisdep"])
@pytest.mark.parametrize("name", BUILTIN_NAMES + ("concat:XYYXY",))
def test_evaluate_folds_like_the_oracle_kernel(name, model, digits):
    """A whole evaluation has the bits of the same fold through the former kernel."""
    seq = build_builtin(name)
    with working_digits(digits):
        scale = mpf("0.01")
        got = evaluate(seq, model, scale)
        want = su2.identity()
        for p in seq.pulses:
            u = p.ideal_unitary() if p.channel == "perfect" else model.realize(p, scale)
            want = oracles.multiply_from_man_exp(u, want)
        assert _bits(got) == _bits(want)


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


def _vectors(rng):
    """Vectors at the working precision: random components of 1e-45..1 or
    zero, and components below one ulp of the largest one."""
    for _ in range(100):
        yield tuple(_random_component(rng) for _ in range(3))
    ulp = mpf(2) ** -mp.prec
    for big in (mpf(1), mpf("-0.3"), mpf("1e-20")):
        yield (big, big * ulp / 3, mpf(0))
        yield (big * ulp / 7, -big, big * ulp * 5 / 11)
        yield (mpf(0), mpf(0), big)
    yield (mpf(0), mpf(0), mpf(0))


def _frames(rng):
    yield FrameTriad.identity()
    for _ in range(3):
        g = su2.from_generator(oracles.unit_vector(_random_vec(rng, 1)), mpf(rng.uniform(0, 3)))
        yield FrameTriad.from_unitary(g)


@pytest.mark.parametrize("digits", [16, 60, 200])
class TestVectorKernelsBitIdentical:
    def test_vec_norm(self, digits):
        with working_digits(digits):
            for v in _vectors(random.Random(5)):
                assert su2.vec_norm(v)._mpf_ == oracles.vec_norm_expr(v)._mpf_

    def test_frame_map(self, digits):
        rng = random.Random(6)
        with working_digits(digits):
            for frame in _frames(rng):
                for v in _vectors(rng):
                    assert _bits(frame.map(v)) == _bits(oracles.frame_map_expr(frame, v))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-(2**800), 2**800), st.integers(-900, 900)), min_size=3, max_size=3))
    def test_the_identity_frame_maps_a_vector_to_itself(self, digits, parts):
        # exact components wider than the working precision, so the map rounds
        v = tuple(_exact(man, exp) for man, exp in parts)
        with working_digits(digits):
            want = _bits(su2.as_vec3(v))
            for frame in (FrameTriad.identity(), FrameTriad((1, 0, 0), (0, 1, 0), (0, 0, 1))):
                assert _bits(frame.map(v)) == want

    def test_frame_map_of_higher_precision_values(self, digits):
        rng = random.Random(7)
        with mp.workdps(digits + 40):  # past the library's digit range at 200
            frames = list(_frames(rng))
            vectors = list(_vectors(rng))
        with working_digits(digits):
            for frame in frames:
                for v in vectors:
                    assert _bits(frame.map(v)) == _bits(oracles.frame_map_expr(frame, v))

    def test_covariant_generator(self, digits):
        rng = random.Random(8)
        with mp.workdps(digits + 40):
            models = [CovariantVector(*(tuple(_random_component(rng) for _ in range(k)) for k in (1, 2, 3)))
                      for _ in range(4)]
        with working_digits(digits):
            models.append(CovariantVector((mpf("0.01"),), (mpf(0), mpf("-0.002")), (mpf(0),)))
            alphas = [mpf(0)] + [mp.pi * mpf(rng.uniform(-2, 2)) for _ in range(4)]
            for frame in _frames(rng):
                for model in models:
                    for alpha in alphas:
                        for scale in (mpf(1), mpf("1e-3"), mpf("1e-40"), mpf(0)):
                            want = oracles.covariant_generator_expr(model, frame, alpha, scale)
                            assert _bits(model._generator(frame, alpha, scale)) == _bits(want)

    def test_unit_axis(self, digits):
        rng = random.Random(9)
        with working_digits(digits):
            beyond = set()
            for frame in _frames(rng):
                for _ in range(10):
                    u = frame.map(oracles.unit_vector(_random_vec(rng, 1)))
                    for d in (0, mpf(10) ** -digits, mpf("-1e-11"), mpf("3e-10"), mpf("-2e-9"), mpf("1e-3")):
                        axis = tuple(c * (1 + d) for c in u)
                        beyond.add(abs(su2.vec_norm(axis) - 1) > su2.unit_tolerance())
                        assert _bits(su2.unit_axis(axis)) == _bits(oracles.unit_axis_expr(axis))
            assert beyond == {False, True}  # axes on both sides of the former switch, 10**(3 - digits)

    def test_branch_bound(self, digits):
        # generators whose rounded norm is one ulp below, at and one ulp
        # above the rounded pi/2, along and against the lab axes, and oblique
        # ones whose norm rounds near those
        with working_digits(digits):
            half_pi = mp.pi / 2
            _, man, exp, _ = half_pi._mpf_
            edges = [mp.make_mpf(from_man_exp(m, exp)) for m in (man - 1, man, man + 1)]
            norms = []
            for c in edges:
                oblique = ((c * 3 / 5, c * 4 / 5, 0), (-c / 3, c * 2 / 3, c * 2 / 3))
                for vec in ((c, 0, 0), (0, -c, 0), (0, 0, c)) + oblique:
                    norm = su2.vec_norm(su2.as_vec3(vec))
                    norms.append(norm)
                    if norm >= half_pi:
                        with pytest.raises(su2.BranchError, match=r"reaches pi/2: outside principal branch$"):
                            su2.exp_pauli(vec)
                    else:
                        assert _bits(su2.exp_pauli(vec)) == _bits(_exp_pauli_ref(vec))
            assert set(edges) <= set(norms)


_READ_DIGITS = [(made, read) for made in (16, 60, 200) for read in (16, 60, 200) if made <= read]


@given(
    direction=st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: sum(c * c for c in v) > 0.01),
    dev=st.floats(-0.99e-9, 0.99e-9),
    digits=st.sampled_from(_READ_DIGITS),
)
def test_an_accepted_axis_is_kept_and_made_unit_by_one_division(direction, dev, digits):
    # An axis within GEOMETRY_TOL of unit length, made at one precision and
    # read at that or a higher one, as a 16-digit file is read at 60 or 200.
    made, read = digits
    with working_digits(made):
        axis = tuple(c * (1 + mpf(dev)) for c in oracles.unit_vector(direction))
    with working_digits(read):
        assert _bits(su2.tighten_axis(axis)) == _bits(axis)
        unit = su2.unit_axis(axis)
        assert _bits(unit) == _bits(oracles.unit_axis_expr(axis))
        assert fabs(su2.vec_norm(unit) - 1) <= 4 * mpf(2) ** -mp.prec


@pytest.mark.parametrize("model", _CHAIN_MODELS, ids=["linear", "vector_axisdep"])
def test_depth5_chain_at_60_digits_agrees_with_100(model):
    seq = build_builtin("concat:XYZXY")
    with working_digits(60):
        scale = mpf("0.01")
        low = evaluate(seq, model, scale)
    with working_digits(100):
        high = evaluate(seq, model, scale)
        diff = sqrt(sum((p - q) ** 2 for p, q in zip(low, high)))
        assert diff == 0 or -log10(diff / sqrt(sum(q**2 for q in high))) >= 58
