"""Text round-trips: polynomial rendering/parsing and the .cas format."""

import random
from fractions import Fraction

import pytest

from pfaffcalc.constructions import build_ideal
from pfaffcalc.fields import GF, QQ
from pfaffcalc.rings import ring_for
from pfaffcalc.textio import ParseError, emit_cas, parse, parse_cas, render


def random_poly(ring, rng, nterms=6, maxdeg=4):
    p = ring.zero()
    n = len(ring.names)
    for _ in range(nterms):
        exps = [0] * n
        for _ in range(maxdeg):
            exps[rng.randrange(n)] += 1
        if ring.field.char:
            c = ring.field.from_int(rng.randrange(1, ring.field.char))
        else:
            c = Fraction(rng.randrange(-30, 31), rng.randrange(1, 7))
        p = p + ring.from_exp_terms([(tuple(exps), c)])
    return p


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("f", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["I", "K", "J"])
def test_ideal_generators_roundtrip(kind, f, char):
    ring = ring_for(f, GF(char) if char else QQ)
    for g in build_ideal(kind, ring):
        assert parse(render(g), ring) == g


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_random_polynomials_roundtrip(char):
    ring = ring_for(4, GF(char) if char else QQ)
    rng = random.Random("textio|roundtrip|%d" % char)
    for _ in range(100):
        p = random_poly(ring, rng)
        assert parse(render(p), ring) == p


def test_render_zero_and_constants(qq):
    ring = ring_for(2, qq)
    assert parse(render(ring.zero()), ring) == ring.zero()
    c = ring.const(Fraction(-7, 3))
    assert parse(render(c), ring) == c


def test_render_t_before_x_within_monomial(qq):
    ring = ring_for(2, qq)
    s = render(ring.t(1) * ring.x(1, 2))
    assert s == "t_1*x_(1,2)"


def test_parse_rejects_garbage(qq):
    ring = ring_for(2, qq)
    for bad in ["x_(1,2) +", "y_3", "x_(2,1)", "1/(0)*x_(1,2)", "((("]:
        with pytest.raises(ParseError):
            parse(bad, ring)


def test_field_str():
    # the .cas header names the field by its repr
    assert repr(QQ) == "QQ"
    assert repr(GF(2)) == "GF(2)"
    ring = ring_for(2, GF(2))
    assert emit_cas([], ring).startswith("ring: GF(2)[x_(1,2),")


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("f", [2, 4, 5])
def test_cas_roundtrip_bit_exact(f, char):
    ring = ring_for(f, GF(char) if char else QQ)
    gens = build_ideal("J", ring)
    text = emit_cas(gens, ring)
    ring2, gens2 = parse_cas(text)
    assert ring2 == ring
    assert gens2 == list(gens)
    assert emit_cas(gens2, ring2) == text


def test_cas_header_shape(qq):
    ring = ring_for(4, qq)
    text = emit_cas(build_ideal("I", ring), ring)
    head = text.splitlines()[0]
    assert head.startswith("ring: QQ[x_(1,2),")
    assert head.endswith("order: grevlex")
    assert ",t_1,t_2,t_3,t_4]" in head


def test_cas_rejects_bad_header():
    with pytest.raises(ParseError):
        parse_cas("ring: ZZ[x], order: grevlex\nx\n")
    with pytest.raises(ParseError):
        parse_cas("")
    # empty and non-standard variable names are parse errors, not IndexError
    with pytest.raises(ParseError, match="bad variable name"):
        parse_cas("ring: QQ[], order: grevlex\n0\n")
    with pytest.raises(ParseError, match="bad variable name"):
        parse_cas("ring: QQ[y], order: grevlex\ny\n")


def test_cas_rejects_unknown_order():
    """grevlex is the one order; every other header order is refused."""
    for order in ("elimxfirst", "lex"):
        with pytest.raises(ParseError, match="unknown order"):
            parse_cas("ring: QQ[x_(1,2),t_1,t_2], order: %s\nt_1\n"
                      % order)


def test_cas_rejects_nonstandard_variables():
    with pytest.raises(ParseError):
        parse_cas("ring: QQ[x_(1,2),t_5], order: grevlex\nt_5\n")


def test_exponent_above_the_cap_is_a_positioned_parse_error(qq):
    # the codec caps each variable's exponent at 120
    ring = ring_for(3, qq)
    with pytest.raises(ParseError, match="exceeds 120") as one:
        parse("t_1 + x_(1,2)^121", ring)
    assert one.value.pos == 6
    with pytest.raises(ParseError, match="exceeds 120") as prod:
        parse("x_(1,2)^100*x_(1,2)^27", ring)
    assert prod.value.pos == 12
    assert parse("x_(1,2)^100*x_(1,2)^20", ring) == parse("x_(1,2)^120", ring)


def test_cas_exponent_above_the_cap_is_a_parse_error(qq):
    head = emit_cas([], ring_for(3, qq))
    for line in ("x_(1,2)^121", "x_(1,2)^100*x_(1,2)^27"):
        with pytest.raises(ParseError, match="exceeds 120"):
            parse_cas(head + line + "\n")


@pytest.mark.parametrize("p", [0, 1, 4])
def test_cas_rejects_a_header_field_that_is_not_prime(p):
    # GF(0) must not parse as QQ, nor GF(4) escape as a bare ValueError
    with pytest.raises(ParseError, match=r"GF\(%d\): need a prime" % p) as err:
        parse_cas("ring: GF(%d)[x_(1,2)], order: grevlex\nx_(1,2)\n" % p)
    assert err.value.pos == 0


def test_denominator_vanishing_mod_p_is_a_positioned_parse_error():
    ring = ring_for(2, GF(2))
    with pytest.raises(ParseError, match=r"denominator vanishes in GF\(2\)") \
            as err:
        parse("x_(1,2) + 1/2", ring)
    assert err.value.pos == 10
    assert parse("x_(1,2) + 1/3", ring) == parse("x_(1,2) + 1", ring)
    with pytest.raises(ParseError, match=r"denominator vanishes in GF\(2\)"):
        parse_cas(emit_cas([], ring) + "1/2*t_1\n")
    with pytest.raises(ParseError, match="denominator vanishes in QQ"):
        parse("1/0", ring_for(2, QQ))
