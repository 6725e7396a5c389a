"""Polynomial rings: construction, exact arithmetic, grading."""

import random
from fractions import Fraction
from math import comb

import pytest

from pfaffcalc.fields import GF, QQ, CoefficientField
from pfaffcalc.rings import ring_for


def random_poly(ring, rng, nterms=5, maxdeg=3):
    p = ring.zero()
    n = len(ring.names)
    for _ in range(nterms):
        exps = [0] * n
        for _ in range(maxdeg):
            exps[rng.randrange(n)] += 1
        c = ring.field.from_int(rng.randrange(-20, 21))
        p = p + ring.from_exp_terms([(tuple(exps), c)])
    return p


@pytest.mark.parametrize("f", [2, 3, 4, 5, 6])
def test_variable_names_x_block_then_t_block(f):
    ring = ring_for(f, QQ)
    expect = ["x_(%d,%d)" % (i, j) for i in range(1, f + 1)
              for j in range(i + 1, f + 1)] + \
             ["t_%d" % i for i in range(1, f + 1)]
    assert list(ring.names) == expect
    assert len(ring.names) == comb(f, 2) + f


def test_x_only_ring(qq):
    ring = ring_for(4, qq, vars="x")
    assert list(ring.names) == ["x_(%d,%d)" % (i, j)
                                for i in range(1, 5) for j in range(i + 1, 5)]


def test_ring_arithmetic_laws(qq):
    ring = ring_for(3, qq)
    rng = random.Random("rings|laws")
    for _ in range(15):
        p = random_poly(ring, rng)
        q = random_poly(ring, rng)
        r = random_poly(ring, rng)
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p - p).is_zero()
        assert p * ring.one() == p
        assert (p * ring.zero()).is_zero()


def test_rational_arithmetic_is_exact(qq):
    ring = ring_for(2, qq)
    x = ring.x(1, 2)
    third = ring.const(Fraction(1, 3))
    p = (x + third) * (x - third)
    assert p == x * x - ring.const(Fraction(1, 9))
    codec = ring.codec
    assert p.terms == ((codec.mul(x.lm(), x.lm()), 1),
                       (codec.one, Fraction(-1, 9)))
    assert type(p.terms[1][1]) is Fraction


def test_prime_field_coefficients_canonical(gf32003):
    ring = ring_for(2, gf32003)
    x = ring.x(1, 2)
    p = x.scale(gf32003.from_int(-1))
    for _, c in p.terms:
        assert 0 <= c < 32003
    assert p + x == ring.zero()


def test_bigraded_multiplication_adds_bidegrees(qq):
    ring = ring_for(4, qq)
    p = ring.x(1, 2) * ring.x(3, 4)       # bidegree (2, 0)
    q = ring.t(1) * ring.x(1, 3)          # bidegree (1, 1)
    assert p.bidegree() == (2, 0)
    assert q.bidegree() == (1, 1)
    assert (p * q).bidegree() == (3, 1)


def test_product_past_the_exponent_range_raises(qq):
    """An exponent sum of 127 still fits a packed field; 128 reaches its
    guard bit, and the product raises as OrderCodec.mul does instead of
    wrapping."""
    ring = ring_for(3, qq, vars="x")

    def power(e):
        return ring.from_exp_terms([((e, 0, 0), qq.one())])

    assert ring.codec.unpack((power(100) * power(27)).lm()) == (127, 0, 0)
    for p, q in [(power(100), power(28)),
                 (power(28), power(100) + ring.x(1, 3))]:
        with pytest.raises(ValueError, match="exceeds the exponent range"):
            p * q


def test_field_validation():
    with pytest.raises(ValueError):
        CoefficientField(6)
    with pytest.raises(ValueError):
        CoefficientField(-3)
    assert CoefficientField(2).char == 2
    assert QQ.char == 0
    assert GF(32003).char == 32003


def test_field_arithmetic_gf(gf2):
    assert gf2.add(1, 1) == 0
    assert gf2.inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        gf2.inv(0)


def test_field_fraction_entry(gf32003):
    c = gf32003.from_fraction(1, 2)
    assert gf32003.mul(c, 2) == 1
    with pytest.raises(ZeroDivisionError):
        GF(2).from_fraction(1, 2)


def test_rational_constructors_return_int_when_integral():
    for c in (QQ.zero(), QQ.one(), QQ.from_int(-7), QQ.from_fraction(4, 2),
              QQ.from_fraction(-6, -3), QQ.inv(1), QQ.inv(-1),
              QQ.inv(Fraction(1, 2)), QQ.inv(Fraction(-1, 3))):
        assert type(c) is int
    assert (QQ.zero(), QQ.one(), QQ.from_int(-7)) == (0, 1, -7)
    assert QQ.from_fraction(4, 2) == 2 and QQ.inv(-1) == -1
    assert QQ.inv(Fraction(-1, 3)) == -3
    for c, want in ((QQ.from_fraction(1, 2), Fraction(1, 2)),
                    (QQ.from_fraction(6, -4), Fraction(-3, 2)),
                    (QQ.inv(2), Fraction(1, 2)),
                    (QQ.inv(Fraction(-2, 3)), Fraction(-3, 2))):
        assert type(c) is Fraction and c == want
    # GF(p) elements were ints already
    assert GF(7).from_fraction(4, 2) == 2 and GF(7).inv(-1) == 6
