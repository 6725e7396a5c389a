"""Groebner layer: membership, dimension/codimension, quotients."""

import hashlib
from math import comb

import pytest

from conftest import J4_HILBERT_NUMERATOR, codim_I, codim_J
from pfaffcalc import groebner
from pfaffcalc.constructions import build_ideal
from pfaffcalc.fields import GF, QQ
from pfaffcalc.gbengine import vec_of_entries
from pfaffcalc.groebner import (dimension_codim, groebner_basis,
                                ideal_quotient, same_ideal, saturation_member)
from pfaffcalc.homology import ModuleSpan
from pfaffcalc.rings import ring_for
from pfaffcalc.textio import render


def field_of(char):
    return GF(char) if char else QQ


def gb_of(kind, f, char, lam=None):
    ring = ring_for(f, field_of(char))
    return groebner_basis(build_ideal(kind, ring, lam=lam), ring), ring


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("f", [2, 3, 4, 5, 6])
def test_codim_of_full_ideal(f, char):
    gb, _ = gb_of("J", f, char)
    assert dimension_codim(gb).codim == codim_J(f)


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("f", [4, 5, 6])
def test_codim_of_pfaffian_ideal(f, char):
    gb, _ = gb_of("I", f, char)
    assert dimension_codim(gb).codim == codim_I(f)


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("f", [4, 5])
def test_codim_of_lambda_ideals(f, char):
    for lam in range(1, f):
        gb, _ = gb_of("Ilambda", f, char, lam=lam)
        assert dimension_codim(gb).codim == comb(f - 2, 2) + lam - 1


@pytest.mark.parametrize("lam", [1, 5])
def test_codim_of_lambda_ideals_f6(lam):
    gb, _ = gb_of("Ilambda", 6, 32003, lam=lam)
    assert dimension_codim(gb).codim == comb(4, 2) + lam - 1


def test_hilbert_data_of_full_ideal_f4():
    gb, ring = gb_of("J", 4, 0)
    hd = dimension_codim(gb)
    assert hd.codim == 3
    assert hd.dim == 7
    assert list(hd.numerator) == J4_HILBERT_NUMERATOR
    assert len(ring.names) == hd.dim + hd.codim


def test_hilbert_data_of_principal_ideal():
    ring = ring_for(4, QQ)
    gb = groebner_basis(build_ideal("I", ring), ring)
    hd = dimension_codim(gb)
    # one quadric: numerator 1 - T^2
    assert list(hd.numerator) == [1, 0, -1]
    assert hd.codim == 1


def test_hilbert_data_refuses_an_inhomogeneous_ideal():
    ring = ring_for(3, QQ)
    with pytest.raises(ValueError,
                       match="dimension data needs homogeneous generators"):
        dimension_codim([ring.x(1, 2) * ring.x(1, 3) + ring.t(1)])


def test_membership_and_normal_form():
    gb, ring = gb_of("J", 4, 0)
    gens = build_ideal("J", ring)
    for g in gens:
        assert gb.contains(g)
    assert not gb.contains(ring.x(1, 2))
    assert not gb.contains_one()
    member = gens[0] * gens[1] + gens[3].scale(QQ.from_int(7)) * ring.t(2)
    assert gb.contains(member)


def test_ideal_membership_is_rank_one_module_membership(monkeypatch):
    """A GroebnerBasis is the rank-1 ModuleSpan, and ideal membership is
    one ModuleSpan.contains_column call on the polynomial's vec; the zero
    polynomial is the empty vec, whose remainder is empty."""
    gb, ring = gb_of("J", 4, 0)
    real = ModuleSpan.contains_column
    seen = []

    def counted(self, col):
        seen.append(col)
        return real(self, col)
    monkeypatch.setattr(ModuleSpan, "contains_column", counted)
    assert isinstance(gb, ModuleSpan)
    polys = [build_ideal("J", ring)[0], ring.x(1, 2), ring.zero()]
    assert [gb.contains(p) for p in polys] == [True, False, True]
    assert seen == [vec_of_entries(((0, p),), gb.order) for p in polys]
    assert seen[-1] == ()
    del seen[:]
    assert saturation_member(gb, ring.x(1, 2), ring.t(1), 2) == (False, None)
    assert len(seen) == 3


@pytest.mark.parametrize("side", ["independent set", "Hilbert numerator"])
def test_dimension_routes_must_agree(side, monkeypatch):
    """dimension_codim refuses when one dimension route is off by one."""
    gb, ring = gb_of("J", 4, 0)
    if side == "independent set":
        real = groebner._independent_set_dim
        monkeypatch.setattr(groebner, "_independent_set_dim",
                            lambda lts, nvars: real(lts, nvars) + 1)
    else:
        # one more factor (1 - T) raises the order of vanishing at T = 1
        real = groebner._hilbert_numerator
        monkeypatch.setattr(
            groebner, "_hilbert_numerator",
            lambda lts, nvars: groebner._poly_mul(real(lts, nvars), (1, -1)))
    with pytest.raises(AssertionError, match="independent-set dimension"):
        dimension_codim(gb)


def test_groebner_idempotence():
    gb, ring = gb_of("J", 4, 0)
    gb2 = groebner_basis([g for g in gb.elements], ring)
    assert sorted(g.lm() for g in gb.elements) == \
        sorted(g.lm() for g in gb2.elements)
    assert same_ideal(gb, gb2)


def test_same_ideal_distinguishes():
    ring = ring_for(4, QQ)
    gb_i = groebner_basis(build_ideal("I", ring), ring)
    gb_j = groebner_basis(build_ideal("J", ring), ring)
    assert not same_ideal(gb_i, gb_j)


def test_same_ideal_reads_a_zero_ideal():
    # the ring comes from whichever side has a nonzero generator
    ring = ring_for(4, GF(32003))
    x12 = ring.x(1, 2)
    assert same_ideal([], [ring.zero()])
    assert same_ideal([ring.zero()], [])
    assert not same_ideal([], [x12])
    assert not same_ideal([x12, ring.zero()], [])
    assert same_ideal(groebner_basis([], ring), [ring.zero()])
    # saturation_member takes the ring from the element it tests
    assert saturation_member([], x12, ring.x(1, 3), 2) == (False, None)


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("kind", ["I", "J"])
@pytest.mark.parametrize("f", [4, 5])
def test_single_entries_are_regular(kind, f, char, request):
    # (E : x_(1,2)) = E and ((E + x_(1,2)) : x_(1,3)) = E + (x_(1,2))
    ring = ring_for(f, field_of(char))
    gens = build_ideal(kind, ring)
    x12, x13 = ring.x(1, 2), ring.x(1, 3)
    q1 = ideal_quotient(gens, x12)
    assert same_ideal(groebner_basis(q1, ring), groebner_basis(gens, ring))
    bigger = gens + [x12]
    q2 = ideal_quotient(bigger, x13)
    assert same_ideal(groebner_basis(q2, ring), groebner_basis(bigger, ring))


def test_quotient_detects_zero_divisor():
    # in R/(x12 * x13), the class of x12 is a zero divisor
    ring = ring_for(3, QQ)
    x12, x13 = ring.x(1, 2), ring.x(1, 3)
    q = ideal_quotient([x12 * x13], x12)
    gb = groebner_basis(q, ring)
    assert gb.contains(x13)


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_strict_colons_by_hand(char):
    ring = ring_for(4, field_of(char))
    x12, x13, x14 = ring.x(1, 2), ring.x(1, 3), ring.x(1, 4)
    for gens, want in (([x12 * x13, x12 * x14], [x13, x14]),
                       ([x12 * x12 * x13], [x12 * x13])):
        q = ideal_quotient(gens, x12)
        gq, gwant = groebner_basis(q, ring), groebner_basis(want, ring)
        assert all(gwant.contains(p) for p in q)
        assert all(gq.contains(p) for p in want)
        assert not same_ideal(q, gens)


# sha256 of the rendered reduced Groebner basis of each colon ideal that
# the localization suite takes over GF(2), computed by the earlier
# tag-variable elimination route
GF2_COLON_DIGESTS = {
    ("I", 4, "x12"): "07115beb57aa2b3c05bdff42834f7ce1a59ab5f51540481edfb093761f628d5e",
    ("I", 4, "x13"): "212f2d45a8a68e9298c922b3914507b62123898a1c6ae3fbd592458a20ec705e",
    ("I", 5, "x12"): "e8cc70d55400ceecd1f1aeb80049d43616b394b9b3f506492f7c10635ed90051",
    ("I", 5, "x13"): "b5dd24946d0f50ebdbd45b9c75789524ec48e28eb0a5bd81f68f1d6be5c8984e",
    ("J", 4, "x12"): "a9d5de1659892d4c6a9f8b723faee05f410e5736c4b5270459f9b0903c3598bc",
    ("J", 4, "x13"): "1dd67d3bcab81814927f7274acf3437c32569c6b01e6c30bca6fb6c88d20443c",
    ("J", 5, "x12"): "8f5f0883f78a801a0852ac144d3fd375555dca55d89bc33fdd2091e9674b3a07",
    ("J", 5, "x13"): "229bebd45fcb62fc9f09c138ac1f66ce8f3ac2085d36831b667ec5ee338a27f2",
}


@pytest.mark.parametrize("kind", ["I", "J"])
@pytest.mark.parametrize("f", [4, 5])
def test_verify_grid_colons_gf2_frozen(kind, f):
    ring = ring_for(f, GF(2))
    gens = build_ideal(kind, ring)
    x12, x13 = ring.x(1, 2), ring.x(1, 3)
    for step, q in (("x12", ideal_quotient(gens, x12)),
                    ("x13", ideal_quotient(gens + [x12], x13))):
        text = "\n".join(render(g) for g in groebner_basis(q, ring))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            GF2_COLON_DIGESTS[(kind, f, step)]


def test_colon_input_checks():
    ring = ring_for(4, QQ)
    x12, x13 = ring.x(1, 2), ring.x(1, 3)
    with pytest.raises(ValueError, match="bihomogeneous"):
        ideal_quotient([x13], x12 + x12 * x13)
    with pytest.raises(ValueError, match="bihomogeneous"):
        ideal_quotient([x13, x13 + ring.t(1)], x12)
    with pytest.raises(ZeroDivisionError):
        ideal_quotient([x13], ring.zero())
    assert ideal_quotient([ring.zero()], x12) == []


def test_pivot_power_clears_into_smaller_ideal():
    # x12^n * g lands in I + ((tX)_1, (tX)_2) for every generator g of J,
    # with n at most 4
    ring = ring_for(4, QQ)
    I = build_ideal("I", ring)
    K = build_ideal("K", ring)
    target = list(I) + [K[0], K[1]]
    x12 = ring.x(1, 2)
    for g in build_ideal("J", ring):
        found, n = saturation_member(target, x12, g, bound=4)
        assert found and 0 <= n <= 4


def test_saturation_bound_respected():
    ring = ring_for(3, QQ)
    x12 = ring.x(1, 2)
    # x12^3 * t_1 is in (x12^3) but no smaller power clears t_1 into it
    gens = [x12 * x12 * x12]
    assert saturation_member(gens, x12, ring.t(1), bound=2) == (False, None)
    assert saturation_member(gens, x12, ring.t(1), bound=3) == (True, 3)
