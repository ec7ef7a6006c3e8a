import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sweedler.scalars import (Field, QQ, scalar_arith, DivisionByZero,
                              MixedFields, ParseError, ScalarError,
                              require_same_field, _is_prime, PRIME_BOUND)


def test_rational_arithmetic():
    a = QQ.parse("1/2")
    b = QQ.parse("1/3")
    assert QQ.format(QQ.add(a, b)) == "5/6"


def test_inverse_mod_7():
    F7 = Field(7)
    assert scalar_arith(F7, F7.of(3), op="inv") == 5


def test_even_sign():
    assert QQ.sign(2 * 3) == QQ.one()
    assert QQ.sign(1 * 1) == QQ.of(-1)


def test_inv_zero_raises():
    with pytest.raises(DivisionByZero):
        QQ.inv(QQ.zero())
    with pytest.raises(DivisionByZero):
        Field(5).inv(0)


def test_mixed_fields_detected():
    with pytest.raises(MixedFields):
        require_same_field(QQ, Field(3))


def test_parse_and_format_roundtrip():
    for text in ["-3/4", "5/1", "0/1"]:
        assert QQ.format(QQ.parse(text)) == text
    F5 = Field(5)
    assert F5.parse("7") == 2
    assert F5.parse("1/2") == F5.inv(2)


def test_parse_errors():
    with pytest.raises(ParseError):
        QQ.parse("1/0")
    with pytest.raises(ParseError):
        QQ.parse("x")
    with pytest.raises(ParseError):
        Field.parse_name("R")


def test_nonprime_modulus_rejected():
    with pytest.raises(Exception):
        Field(6)


def test_large_prime_modulus_accepted():
    assert Field(2**61 - 1).p == 2**61 - 1
    assert Field.parse_name("Fp:2305843009213693951") == Field(2**61 - 1)


@pytest.mark.parametrize("n", [2**61 + 1, 561, 2047, 3215031751])
def test_composite_moduli_rejected(n):
    # 561 is a Carmichael number; 2047 and 3215031751 are strong
    # pseudoprimes to the bases 2 and 2, 3, 5, 7 respectively
    with pytest.raises(ScalarError):
        Field(n)


def test_primality_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(5000) if _is_prime(n)] == \
        [n for n in range(5000) if trial(n)]


def test_modulus_beyond_certified_range_refused():
    # 2^89 - 1 is prime, but beyond the range where the test is exact
    with pytest.raises(ScalarError):
        Field(2**89 - 1)
    assert PRIME_BOUND < 2**89 - 1


@pytest.mark.parametrize("field", [QQ, Field(2), Field(7), Field(97)])
def test_field_axioms_random(field):
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (field.of(rng.randint(-9, 9)) for _ in range(3))
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == \
            field.add(field.mul(a, b), field.mul(a, c))
        if not field.is_zero(a):
            assert field.is_one(field.mul(a, field.inv(a)))
        # normalization is idempotent
        assert field.of(field.of(a)) == field.of(a)


def test_integral_rationals_are_ints():
    integral = [QQ.one(), QQ.zero(), QQ.of(3), QQ.of(Fraction(4, 2)),
                QQ.parse("6/3"), QQ.parse("-5"), QQ.inv(-1), QQ.div(4, 2),
                QQ.div(Fraction(3, 2), Fraction(3, 4)), QQ.sign(1)]
    assert [type(a) for a in integral] == [int] * len(integral)
    assert integral == [1, 0, 3, 2, 2, -5, -1, 2, 2, -1]
    fractional = [QQ.of(Fraction(1, 2)), QQ.parse("-6/4"), QQ.inv(3),
                  QQ.div(1, 2), QQ.div(Fraction(3, 2), 2)]
    assert [type(a) for a in fractional] == [Fraction] * len(fractional)
    assert fractional == [Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3),
                          Fraction(1, 2), Fraction(3, 4)]



def test_int_arguments_skip_the_fraction_round_trip():
    big = 10 ** 30 + 7
    assert QQ.of(big) is big and QQ.of(-big) == -big
    assert [QQ.inv(1), QQ.inv(-1), QQ.inv(Fraction(1)), QQ.inv(Fraction(-1))] \
        == [1, -1, 1, -1]
    assert {type(QQ.inv(a)) for a in (1, -1, Fraction(1), Fraction(-1))} \
        == {int}
    assert QQ.inv(2) == Fraction(1, 2) and QQ.of(True) == 1
    for field in (QQ, Field(2), Field(5)):
        for e in range(-3, 4):
            assert field.sign(e) == field.of((-1) ** (e % 2))
            assert type(field.sign(e)) is int

# a rational in one of its three exact forms: an int (when integral), a
# Fraction, or an integral Fraction left behind by arithmetic
rationals = st.fractions(max_denominator=12).map(
    lambda q: q.numerator if q.denominator == 1 else q) | st.integers(
    -20, 20).flatmap(lambda n: st.sampled_from([n, Fraction(n)]))


def _text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


@given(rationals, rationals)
def test_mixed_rationals_match_fraction_arithmetic(a, b):
    fa, fb = Fraction(a), Fraction(b)
    expect = {"add": fa + fb, "sub": fa - fb, "mul": fa * fb, "neg": -fa}
    got = {"add": QQ.add(a, b), "sub": QQ.sub(a, b), "mul": QQ.mul(a, b),
           "neg": QQ.neg(a)}
    if fb:
        expect.update(inv=1 / fb, div=fa / fb)
        got.update(inv=QQ.inv(b), div=QQ.div(a, b))
    assert got == expect
    assert {k: QQ.format(v) for k, v in got.items()} == \
        {k: _text(v) for k, v in expect.items()}
    assert QQ.format(a) == _text(fa)
    assert QQ.is_zero(a) == (fa == 0) and QQ.is_one(a) == (fa == 1)


@given(st.sampled_from([2, 3, 5, 7, 97]), st.integers(-500, 500),
       st.integers(-500, 500), st.fractions(max_denominator=50))
def test_prime_field_arithmetic_unchanged(p, a, b, q):
    F = Field(p)
    x, y = F.of(a), F.of(b)
    assert (F.zero(), F.one(), x, y) == (0, 1, a % p, b % p)
    assert F.add(x, y) == (a + b) % p and F.sub(x, y) == (a - b) % p
    assert F.mul(x, y) == a * b % p and F.neg(x) == -a % p
    assert F.format(x) == str(a % p)
    if y:
        assert F.inv(y) == pow(y, p - 2, p)
        assert F.div(x, y) == x * pow(y, p - 2, p) % p
    if q.denominator % p:
        assert F.of(q) == q.numerator * pow(q.denominator, p - 2, p) % p
