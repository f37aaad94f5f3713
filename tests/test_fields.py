from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quasihopf.fields import (GF, MAX_MODULUS, QQ, QUOTE_LIMIT, Field,
                              _is_prime, quote)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)


def test_constants():
    assert QQ.zero() == Fraction(0)
    assert QQ.one() == Fraction(1)
    assert GF(7).zero() == 0
    assert GF(7).one() == 1
    assert GF(7).of_int(-1) == 6


def test_equality_and_repr():
    assert QQ == Field(None)
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert GF(5) != QQ
    assert repr(QQ) == "QQ"
    assert repr(GF(5)) == "GF(5)"


def test_rejects_composite_modulus():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_primality_matches_trial_division():
    assert all(_is_prime(n) == _trial_division(n) for n in range(-3, 20000))


def test_primality_of_large_moduli():
    # 10^19 + 51 and 2^61 - 1 are prime; the others are strong
    # pseudoprimes to every base up to 23, 37 and 41 respectively
    assert _is_prime(10 ** 19 + 51)
    assert _is_prime(2 ** 61 - 1)
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(318665857834031151167461)
    assert GF(10 ** 19 + 51).p == 10 ** 19 + 51


def test_rejects_modulus_past_the_maximum():
    # the least strong pseudoprime to all 13 bases is refused, not
    # mistaken for a prime
    with pytest.raises(ValueError, match=str(MAX_MODULUS)):
        GF(MAX_MODULUS + 1)


@given(rationals, rationals)
def test_rational_field_ops(a, b):
    assert QQ.mul(a, b) == a * b


@given(st.integers(), st.integers())
def test_prime_field_ops(a, b):
    F = GF(13)
    x, y = F.of_int(a), F.of_int(b)
    assert F.mul(x, y) == (a * b) % 13


@given(rationals)
def test_rational_text_roundtrip(a):
    assert QQ.parse(QQ.fmt(a)) == a


@given(st.integers(min_value=0, max_value=10))
def test_prime_field_text_roundtrip(a):
    F = GF(11)
    assert F.parse(F.fmt(a)) == a


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        QQ.parse("1.5x")
    with pytest.raises(ValueError):
        GF(5).parse("1/2")


# -- the scalar grammar: [+-] ASCII digits, over QQ then an optional /digits

digits = st.text(alphabet="0123456789", min_size=1, max_size=8)
scalar_texts = st.builds(
    lambda sign, num, den, pad: pad + sign + num + ("/" + den if den else "")
    + pad,
    st.sampled_from(["", "+", "-"]), digits,
    st.one_of(st.none(), digits.filter(lambda d: int(d) != 0)),
    st.sampled_from(["", " ", "\t"]))


@given(scalar_texts)
@example("2/4")
@example("-0")
@example("007")
@example("0/5")
@example("+3")
@example(" -6/4 ")
def test_rational_parse_agrees_with_fraction(text):
    f = Fraction(text)
    assert QQ.parse_ratio(text) == (f.numerator, f.denominator)
    assert QQ.parse(text) == f


@given(scalar_texts.filter(lambda t: "/" not in t))
def test_prime_field_parse_agrees_with_int(text):
    assert GF(7).parse_ratio(text) == (int(text) % 7, 1)
    assert GF(7).parse(text) == int(text) % 7


@pytest.mark.parametrize("text", ["1/0", "", "/3", "3/", "1.5", "1e3", "1_0",
                                  "1e10000000", "0x10", "1/-2", "١٢",
                                  "1" * 5000])
def test_rational_parse_rejects_other_forms(text):
    with pytest.raises(ValueError, match="bad rational scalar"):
        QQ.parse(text)


@pytest.mark.parametrize("text", ["1/2", "1.0", "1_0", "", "5e0"])
def test_prime_field_parse_rejects_other_forms(text):
    with pytest.raises(ValueError, match="bad prime-field scalar"):
        GF(5).parse(text)


@pytest.mark.parametrize("value", ["1.5", "x" * (QUOTE_LIMIT - 2), 5.9,
                                   {"Fp": " 5 "}, [1, 2, 3], None])
def test_quote_keeps_a_short_value_whole(value):
    assert quote(value) == repr(value)


@pytest.mark.parametrize("value", ["1" * 10 ** 6, list(range(200000)),
                                   10 ** 4000, {"Fp": 10 ** 200}])
def test_quote_cuts_a_long_value_to_a_prefix(value):
    assert quote(value) == repr(value)[:QUOTE_LIMIT] + "..."


def test_scalar_error_quotes_a_bounded_prefix():
    with pytest.raises(ValueError) as exc:
        QQ.parse("9" * 10 ** 6)
    assert str(exc.value) == "bad rational scalar '" + "9" * (QUOTE_LIMIT - 1) \
        + "..."
