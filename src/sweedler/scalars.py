"""Exact field arithmetic over Q and F_p.

Every coefficient in the library is an int or a `fractions.Fraction` (over
Q: the field returns an int for an integral value it builds, so a Fraction
appears only after a division) or an int in [0, p) (over F_p).  A `Field`
supplies the arithmetic; spaces and maps carry their field and refuse to
mix.  Signs are field elements, so Koszul bookkeeping needs no special case.
"""

from __future__ import annotations

from fractions import Fraction


class ScalarError(Exception):
    pass


class DivisionByZero(ScalarError):
    pass


class MixedFields(ScalarError):
    pass


class ParseError(ScalarError):
    pass


# Miller-Rabin with these bases is exact below PRIME_BOUND (Sorenson and
# Webster, Math. Comp. 86, 2017).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for b in PRIME_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in PRIME_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _rational(q: Fraction | int) -> Fraction | int:
    """q as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


class Field:
    """A coefficient field: the rationals or a prime field F_p."""

    def __init__(self, p: int | None = None):
        if p is not None and p >= PRIME_BOUND:
            raise ScalarError(f"modulus {p} is too large to certify as prime")
        if p is not None and not _is_prime(p):
            raise ScalarError(f"modulus {p} is not prime")
        self.p = p

    # -- identity ----------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"F{self.p}"

    @property
    def name(self) -> str:
        return "Q" if self.p is None else f"Fp:{self.p}"

    # -- element constructors ----------------------------------------------
    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, n) -> Fraction | int:
        """Coerce an int or Fraction into this field."""
        if self.p is None:
            return n if type(n) is int else _rational(Fraction(n))
        if isinstance(n, Fraction):
            return self.div(n.numerator % self.p, n.denominator % self.p)
        return n % self.p

    def sign(self, exponent: int):
        """(-1)**exponent as a field element."""
        if exponent % 2 == 0:
            return 1
        return -1 if self.p is None else self.p - 1

    # -- arithmetic ----------------------------------------------------------
    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero("inverse of zero")
        if self.p is None:
            if type(a) is int and (a == 1 or a == -1):
                return a
            return _rational(1 / Fraction(a))
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        q = self.mul(a, self.inv(b))
        return q if self.p else _rational(q)

    def is_zero(self, a) -> bool:
        return a == 0

    def is_one(self, a) -> bool:
        return a == self.one()

    # -- text form -----------------------------------------------------------
    def format(self, a) -> str:
        if self.p is None:
            f = Fraction(a)
            return f"{f.numerator}/{f.denominator}"
        return str(a % self.p)

    def parse(self, text: str):
        """Parse "p/q" (over Q) or an integer residue (over F_p)."""
        text = text.strip()
        try:
            if "/" in text:
                num, den = text.split("/")
                if self.p is None:
                    if int(den) == 0:
                        raise ParseError(f"zero denominator in {text!r}")
                    return _rational(Fraction(int(num), int(den)))
                return self.div(self.of(int(num)), self.of(int(den)))
            return self.of(int(text))
        except ParseError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad coefficient {text!r}: {exc}") from None

    @staticmethod
    def parse_name(name: str) -> "Field":
        """Parse a field declaration: "Q" or "Fp:<p>"."""
        name = name.strip()
        if name == "Q":
            return QQ
        if name.startswith("Fp:"):
            try:
                return Field(int(name[3:]))
            except ScalarError:
                raise
            except ValueError:
                raise ParseError(f"bad field declaration {name!r}") from None
        raise ParseError(f"bad field declaration {name!r}")


QQ = Field()


def require_same_field(f: Field, g: Field) -> Field:
    if f != g:
        raise MixedFields(f"cannot mix {f!r} and {g!r}")
    return f


def scalar_arith(field: Field, a, b=None, op: str = "add"):
    """Spec surface for scalar arithmetic: op in {add, mul, neg, inv}."""
    if op == "add":
        return field.add(a, b)
    if op == "mul":
        return field.mul(a, b)
    if op == "neg":
        return field.neg(a)
    if op == "inv":
        return field.inv(a)
    raise ScalarError(f"unknown op {op!r}")
