import pytest
from mpmath import mp, mpf

from compulse.precision import parse_decimal, parse_integer, quoted, working_digits


class TestWorkingDigits:
    @pytest.mark.parametrize("prec", [200, 333, 54])
    def test_restores_a_precision_no_whole_number_of_digits_sets(self, prec):
        mp.prec = prec
        with working_digits(60):
            assert mp.dps == 60
        assert mp.prec == prec
        with pytest.raises(ZeroDivisionError):
            with working_digits(30):
                1 / 0
        assert mp.prec == prec


class TestParseDecimal:
    @pytest.mark.parametrize(
        "text", ["1", "-0.5", ".5", "5.", "1e-3", "1E+3", "+1", "007", "-0", "1e999999999999", "1e-" + "9" * 20]
    )
    def test_reads_decimal_numerals(self, text):
        with working_digits(30):
            assert parse_decimal(text) == mpf(text)

    @pytest.mark.parametrize("text", ["inf", "+inf", "-inf", "nan", "INF", "NaN"])
    def test_reads_non_finite_spellings_as_themselves(self, text):
        assert not mp.isfinite(parse_decimal(text))

    @pytest.mark.parametrize(
        "text",
        [
            "3/5", "1/0", "1_0", "1e1_0", "\u0661", "0x10", " 1", "1 ", "", ".", "e5", "1e", "1.e", "--1", "+nan",
            "1e" + "0" * 21,
        ],
    )
    def test_refuses_anything_else(self, text):
        with pytest.raises(ValueError):
            parse_decimal(text)


class TestParseInteger:
    @pytest.mark.parametrize("text,value", [("0", 0), ("12", 12), ("+3", 3), ("-4", -4), ("007", 7)])
    def test_reads_integer_numerals(self, text, value):
        assert parse_integer(text) == value

    @pytest.mark.parametrize("text", ["1_0", "\u0663", "1.0", "1e3", " 1", "", "+", "+-1", "inf"])
    def test_refuses_anything_else(self, text):
        with pytest.raises(ValueError):
            parse_integer(text)


class TestQuoted:
    @pytest.mark.parametrize("text", ["", "abc", "it's", "\n", "x" * 80])
    def test_a_text_of_at_most_80_characters_is_its_repr(self, text):
        assert quoted(text) == repr(text)

    @pytest.mark.parametrize("length", [81, 10**5])
    def test_a_longer_text_is_its_first_40_characters_and_its_length(self, length):
        text = "".join(str(k % 10) for k in range(length))
        assert quoted(text) == f"'{text[:40]}'… ({length} characters)"

    def test_parse_errors_quote_within_bounds(self):
        for parse in (parse_decimal, parse_integer):
            with pytest.raises(ValueError) as info:
                parse("q" * 10**5)
            assert len(str(info.value)) < 100
