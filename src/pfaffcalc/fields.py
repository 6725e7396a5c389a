"""Coefficient fields: the rationals and prime fields GF(p), p < 2**31.

Field elements are plain Python values.  Over GF(p) they are ints in
[0, p).  Over QQ they are `int` when integral and `Fraction` otherwise:
the constructors and `inv` return an `int` whenever the value is an
integer, so integral inputs stay on Python's int arithmetic.  Arithmetic
on a `Fraction` still returns one (`Fraction(1, 2) * 2` is
`Fraction(2, 1)`); an `int` and a `Fraction` of equal value compare,
hash and `str` alike.  The field object just bundles the arithmetic, so
polynomial code can stay generic without wrapping every coefficient.
A field is also the scalar coefficient domain of `exterior`.
"""

from fractions import Fraction

_MAX_CHAR = 2 ** 31


def _is_prime(n):
    # deterministic Miller-Rabin; bases 2,3,5,7 suffice below 3.2e9
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rational(q):
    """The Fraction q as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


class CoefficientField:
    """QQ (char == 0) or GF(p) (char == p prime)."""

    __slots__ = ("char",)

    def __init__(self, char):
        if char != 0:
            if not (2 <= char < _MAX_CHAR):
                raise ValueError("characteristic must be 0 or a prime < 2**31, got %r" % (char,))
            if not _is_prime(char):
                raise ValueError("characteristic %d is not prime" % char)
        self.char = char

    # -- constructors ----------------------------------------------------
    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.char if self.char else n

    def from_fraction(self, num, den):
        if self.char:
            d = den % self.char
            if d == 0:
                raise ZeroDivisionError("denominator %d vanishes in GF(%d)" % (den, self.char))
            return num * pow(d, self.char - 2, self.char) % self.char
        return _rational(Fraction(num, den))

    # -- arithmetic -------------------------------------------------------
    def add(self, a, b):
        return (a + b) % self.char if self.char else a + b

    def mul(self, a, b):
        return (a * b) % self.char if self.char else a * b

    def neg(self, a):
        return (-a) % self.char if self.char else -a

    def inv(self, a):
        if self.char:
            if a % self.char == 0:
                raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.char)
            return pow(a, self.char - 2, self.char)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return _rational(1 / Fraction(a))

    def is_zero(self, a):
        return (a % self.char == 0) if self.char else a == 0

    # ----------------------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, CoefficientField) and self.char == other.char

    def __hash__(self):
        return hash(("CoefficientField", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else "GF(%d)" % self.char


QQ = CoefficientField(0)


def GF(p):
    return CoefficientField(p)
