import random

import pytest

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
