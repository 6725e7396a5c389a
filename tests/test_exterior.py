"""Exterior algebra: wedge, contraction, divided powers, Pfaffians."""

import random
from fractions import Fraction

import pytest

from pfaffcalc import exterior
from pfaffcalc.constructions import generic_xi
from pfaffcalc.exterior import (AlternatingMatrix, ExteriorElement,
                                all_subsets, contract, determinant_oracle,
                                merge_sign, pfaffian_oracle)
from pfaffcalc.fields import GF, QQ
from pfaffcalc.rings import ring_for
from pfaffcalc.verify import _rand_form, run_suite


def rand_form(ring, rng, side, k, span=4):
    el = ExteriorElement.zero(ring, side, k)
    for _ in range(span):
        idx = rng.sample(range(1, ring.f + 1), k)
        c = ring.const(ring.field.from_int(rng.randrange(-9, 10)))
        el = el + ExteriorElement.basis(ring, side, idx, coeff=c)
    return el


@pytest.fixture(scope="module")
def ring4():
    return ring_for(4, QQ, vars="x")


@pytest.fixture(scope="module")
def ring5():
    return ring_for(5, QQ, vars="x")


def test_merge_sign_matches_inversion_parity():
    rng = random.Random("exterior|merge")
    for _ in range(30):
        pool = rng.sample(range(1, 10), 6)
        S = tuple(sorted(pool[:3]))
        T = tuple(sorted(pool[3:]))
        inv = sum(1 for a in S for b in T if a > b)
        assert merge_sign(S, T) == (-1) ** inv


def test_basis_antisymmetry(ring4):
    e12 = ExteriorElement.basis(ring4, "primal", (1, 2))
    e21 = ExteriorElement.basis(ring4, "primal", (2, 1))
    assert e21 == -e12
    assert ExteriorElement.basis(ring4, "primal", (3, 3)).is_zero()


def test_wedge_anticommutes_on_vectors(ring4):
    rng = random.Random("exterior|wedge")
    for _ in range(10):
        u = rand_form(ring4, rng, "primal", 1)
        v = rand_form(ring4, rng, "primal", 1)
        assert u.wedge(v) == -(v.wedge(u))
        assert u.wedge(u).is_zero()


def test_wedge_associative(ring5):
    rng = random.Random("exterior|assoc")
    for _ in range(10):
        u = rand_form(ring5, rng, "primal", 1)
        v = rand_form(ring5, rng, "primal", 2)
        w = rand_form(ring5, rng, "primal", 1)
        assert u.wedge(v).wedge(w) == u.wedge(v.wedge(w))


def test_contraction_on_basis(ring4):
    e1s = ExteriorElement.basis(ring4, "dual", (1,))
    e123 = ExteriorElement.basis(ring4, "primal", (1, 2, 3))
    got = e1s.act(e123)
    assert got == ExteriorElement.basis(ring4, "primal", (2, 3))
    e2s = ExteriorElement.basis(ring4, "dual", (2,))
    assert e2s.act(e123) == -ExteriorElement.basis(ring4, "primal", (1, 3))
    e4s = ExteriorElement.basis(ring4, "dual", (4,))
    assert e4s.act(e123).is_zero()


def test_vector_contraction_exchange_rule(ring5):
    # (f1(phi_q))(f_p) = f1 ^ phi_q(f_p) + (-1)^(1+q) phi_q(f1 ^ f_p)
    rng = random.Random("exterior|leibniz")
    for q, p in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)]:
        for _ in range(4):
            f1 = rand_form(ring5, rng, "primal", 1)
            phi = rand_form(ring5, rng, "dual", q)
            fp = rand_form(ring5, rng, "primal", p)
            lhs = f1.act(phi).act(fp)
            mid = f1.wedge(phi.act(fp))
            last = phi.act(f1.wedge(fp))
            rhs = mid + last if q % 2 else mid - last
            assert lhs == rhs, (q, p)


def test_double_contraction_is_divided_square(ring5):
    rng = random.Random("exterior|double")
    for _ in range(8):
        f2 = rand_form(ring5, rng, "primal", 2)
        phi3 = rand_form(ring5, rng, "dual", 3)
        assert f2.act(phi3).act(f2) == phi3.act(f2.divided_power(2))


def test_three_term_expansion(ring4):
    rng = random.Random("exterior|threeterm")
    for _ in range(8):
        f2 = rand_form(ring4, rng, "primal", 2)
        a, b, c = (rand_form(ring4, rng, "dual", 1) for _ in range(3))
        lhs = f2.act(a.wedge(b).wedge(c))
        rhs = (c.scale(f2.act(a.wedge(b)).coeff(()))
               - b.scale(f2.act(a.wedge(c)).coeff(()))
               + a.scale(f2.act(b.wedge(c)).coeff(())))
        assert lhs == rhs


def test_divided_power_derivation(ring5):
    rng = random.Random("exterior|gamma")
    for _ in range(8):
        tau = rand_form(ring5, rng, "dual", 1)
        v = rand_form(ring5, rng, "primal", 2)
        w = rand_form(ring5, rng, "primal", 2)
        assert tau.act(v.divided_power(2)) == tau.act(v).wedge(v)
        assert tau.act(v.wedge(w)) == tau.act(v).wedge(w) + tau.act(w).wedge(v)


def test_divided_power_zero_and_one(ring4):
    v = ExteriorElement.basis(ring4, "primal", (1, 2))
    assert v.divided_power(0).coeff(()) == ring4.one()
    assert v.divided_power(1) == v


def test_divided_square_of_generic_two_form_has_pfaffian_coefficients(ring4):
    # the top coefficient of X^(2) at f = 4 is the principal 4x4 Pfaffian
    A = AlternatingMatrix.generic(ring4)
    sq = generic_xi(ring4).divided_power(2)
    pf = pfaffian_oracle(A, (1, 2, 3, 4))
    assert sq.coeff((1, 2, 3, 4)) == pf


def divided_power_reference(v, ell):
    """divided_power as it was: each step wedges all of e_i*(v) with all
    of the previous power and then keeps the terms above i."""
    if ell == 0:
        return ExteriorElement(v.ring, v.side, 0, {(): v.ring.one()})
    if ell == 1:
        return v
    prev = divided_power_reference(v, ell - 1)
    opp = "dual" if v.side == "primal" else "primal"
    out = {}
    for i in sorted({i for S in v.terms for i in S}):
        w = ExteriorElement.basis(v.ring, opp, (i,)).act(v).wedge(prev)
        for S, c in w.terms.items():
            if S and S[0] > i:
                out[(i,) + S] = c
    return ExteriorElement(v.ring, v.side, 2 * ell, out)


@pytest.mark.parametrize("char", [0, 2, 32003])
@pytest.mark.parametrize("f", [4, 5, 6])
def test_divided_power_matches_the_unpruned_recursion(f, char):
    """Equal terms in the same key order, on seeded field forms of both
    sides and on generic_xi over the polynomial ring (whose square gives
    pfaffian_gens)."""
    field = GF(char) if char else QQ
    rng = random.Random("divided|%d|%d" % (f, char))
    elements = [_rand_form(field, f, rng, side, 2)
                for side in ("primal", "dual") for _ in range(3)]
    elements.append(generic_xi(ring_for(f, field)))
    for v in elements:
        for ell in (2, 3):
            got, want = v.divided_power(ell), divided_power_reference(v, ell)
            assert (got.side, got.k) == (want.side, want.k)
            assert list(got.terms.items()) == list(want.terms.items())
    # the Pfaffians: one nonzero coefficient per 4-subset
    assert len(elements[-1].divided_power(2).terms) == len(all_subsets(f, 4))


def test_pairing_sides_agree_as_scalars(ring4):
    rng = random.Random("exterior|compat")
    for k in (1, 2, 3):
        for _ in range(5):
            fk = rand_form(ring4, rng, "primal", k)
            pk = rand_form(ring4, rng, "dual", k)
            assert pk.act(fk).coeff(()) == fk.act(pk).coeff(())


def test_contract_dispatches_on_degree(ring4):
    phi = ExteriorElement.basis(ring4, "dual", (1,))
    f12 = ExteriorElement.basis(ring4, "primal", (1, 2))
    assert contract(phi, f12) == phi.act(f12)
    phi123 = ExteriorElement.basis(ring4, "dual", (1, 2, 3))
    f1 = ExteriorElement.basis(ring4, "primal", (1,))
    assert contract(phi123, f1) == f1.act(phi123)


def test_act_requires_opposite_sides(ring4):
    u = ExteriorElement.basis(ring4, "primal", (1,))
    v = ExteriorElement.basis(ring4, "primal", (1, 2))
    with pytest.raises(ValueError):
        u.act(v)


def test_pfaffian_squares_to_determinant_generic():
    for f in (4, 6):
        ring = ring_for(f, QQ, vars="x")
        A = AlternatingMatrix.generic(ring)
        pf = pfaffian_oracle(A)
        M = [[A.entry(i, j) for j in range(1, f + 1)] for i in range(1, f + 1)]
        assert pf * pf == determinant_oracle(M)


def test_pfaffian_squares_to_determinant_random_entries():
    ring = ring_for(6, QQ, vars="x")
    rng = random.Random("exterior|pfdet")
    for _ in range(5):
        upper = {(i, j): ring.const(Fraction(rng.randrange(-99, 100)))
                 for i in range(1, 7) for j in range(i + 1, 7)}
        A = AlternatingMatrix(ring, 6, upper)
        pf = pfaffian_oracle(A)
        M = [[A.entry(i, j) for j in range(1, 7)] for i in range(1, 7)]
        assert pf * pf == determinant_oracle(M)


def test_pfaffian_odd_size_is_zero(ring5):
    A = AlternatingMatrix.generic(ring5)
    assert pfaffian_oracle(A, (1, 2, 3)).is_zero()


def test_pfaffian_over_prime_field():
    ring = ring_for(4, GF(32003), vars="x")
    A = AlternatingMatrix.generic(ring)
    pf = pfaffian_oracle(A)
    M = [[A.entry(i, j) for j in range(1, 5)] for i in range(1, 5)]
    assert pf * pf == determinant_oracle(M)


def test_all_subsets_counts():
    assert len(all_subsets(5, 3)) == 10
    assert all_subsets(4, 4) == [(1, 2, 3, 4)]
    assert all(s == tuple(sorted(s)) for s in all_subsets(6, 3))


# -- scalar coefficients: a field as the domain ----------------------------

def _ring_rand_form(ring, rng, side, k):
    """The identity suites' form sampler as it was over the polynomial
    ring: one constant per subset, summed through `basis`."""
    el = ExteriorElement.zero(ring, side, k)
    for S in all_subsets(ring.f, k):
        if ring.field.char == 0:
            c = ring.const(Fraction(rng.randrange(-9, 10)))
        else:
            c = ring.const(rng.randrange(ring.field.char))
        el = el + ExteriorElement.basis(ring, side, S, coeff=c)
    return el


def _lift(ring, el):
    return ExteriorElement(ring, el.side, el.k,
                           {S: ring.const(c) for S, c in el.terms.items()})


@pytest.mark.parametrize("char", [0, 2, 3, 32003])
@pytest.mark.parametrize("f", [4, 5, 6])
def test_field_sampler_draws_like_the_ring_sampler(f, char):
    field = GF(char) if char else QQ
    ring = ring_for(f, field, vars="x")
    for side in ("primal", "dual"):
        for k in (1, 2, 3, 4):
            a = random.Random("sampler|%d|%d|%s|%d" % (f, char, side, k))
            b = random.Random("sampler|%d|%d|%s|%d" % (f, char, side, k))
            for _ in range(5):
                got = _rand_form(field, f, a, side, k)
                assert _lift(ring, got) == _ring_rand_form(ring, b, side, k)
                assert a.getstate() == b.getstate()


@pytest.mark.parametrize("char", [0, 2, 32003])
@pytest.mark.parametrize("f", [4, 5, 6])
def test_field_and_polynomial_coefficients_agree(f, char):
    field = GF(char) if char else QQ
    ring = ring_for(f, field, vars="x")
    rng = random.Random("domains|%d|%d" % (f, char))

    def same(scalar, poly):
        assert _lift(ring, scalar) == poly
        assert _lift(ring, scalar).terms.keys() == poly.terms.keys()

    for _ in range(6):
        v, w = (_rand_form(field, f, rng, "primal", 2) for _ in range(2))
        u = _rand_form(field, f, rng, "primal", 1)
        phi = _rand_form(field, f, rng, "dual", 3)
        tau = _rand_form(field, f, rng, "dual", 1)
        pv, pw, pu, pphi, ptau = (_lift(ring, e) for e in (v, w, u, phi, tau))
        same(v.wedge(u), pv.wedge(pu))
        same(v.wedge(w), pv.wedge(pw))
        same(tau.act(v), ptau.act(pv))
        same(v.act(phi), pv.act(pphi))
        same(phi.act(v.wedge(u)), pphi.act(pv.wedge(pu)))
        same(v.divided_power(2), pv.divided_power(2))
        same(v + w, pv + pw)
        same(v - w, pv - pw)
        same(v - v, pv - pv)
        scalar = tau.act(u).coeff(())
        lifted = ptau.act(pu).coeff(())
        assert ring.const(scalar) == lifted
        same(w.scale(scalar), pw.scale(lifted))


def test_identity_suite_runs_through_the_shared_act_table(monkeypatch):
    # every module action with its sign flipped must break the identities
    raw = exterior._act_basis

    def flipped(T, S):
        hit = raw(T, S)
        return None if hit is None else (-hit[0], hit[1])

    monkeypatch.setattr(exterior, "_act_basis", flipped)
    rep = run_suite("exterior-identities", fs=[4], chars=[32003])
    assert rep.status == "fail"


# -- the one-pass product sum ----------------------------------------------

def accumulate_reference(domain, table, left, right):
    """`_accumulate` as a per-term loop: one domain call per
    operation, each partial sum canonical, a cancelled key dropped at
    once."""
    add, mul, neg, is_zero = domain.add, domain.mul, domain.neg, domain.is_zero
    out = {}
    for A, p in left.items():
        for B, q in right.items():
            hit = table(A, B)
            if hit is None:
                continue
            sign, key = hit
            c = mul(p, q)
            if sign < 0:
                c = neg(c)
            s = out.get(key)
            if s is not None:
                c = add(s, c)
            if is_zero(c):
                out.pop(key, None)
            else:
                out[key] = c
    return out


def _accumulate_operands(domain, f, rng, side, k):
    """A random form whose coefficients are field elements (over QQ a
    mix of ints and Fractions) or, over a PolyRing, polynomials."""
    field = getattr(domain, "field", domain)
    el = _rand_form(field, f, rng, side, k)
    if domain is not field:
        xs = [domain.x(i, j) for i in range(1, f + 1)
              for j in range(i + 1, f + 1)]
        terms = {S: domain.const(c) * rng.choice(xs) + domain.const(
            rng.randrange(-2, 3)) for S, c in el.terms.items()}
    elif field.char == 0:
        terms = {S: Fraction(c, rng.choice((1, 2, 3))) if rng.random() < 0.3
                 else c for S, c in el.terms.items()}
    else:
        terms = el.terms
    return ExteriorElement(domain, side, k, terms)


ACCUMULATE_DOMAINS = {"QQ": QQ, "GF2": GF(2), "GF32003": GF(32003),
                      "QQ[x]": ring_for(4, QQ, vars="x"),
                      "GF3[x]": ring_for(4, GF(3), vars="x")}


@pytest.mark.parametrize("name", sorted(ACCUMULATE_DOMAINS))
def test_one_pass_accumulate_matches_the_per_term_loop(name):
    domain = ACCUMULATE_DOMAINS[name]
    field = getattr(domain, "field", domain)
    p = field.char
    rng = random.Random("accumulate|%s" % name)
    f = 4
    cases = []
    for _ in range(8):
        for k, l in ((1, 1), (1, 2), (2, 2), (1, 3)):
            cases.append((exterior._wedge_basis,
                          _accumulate_operands(domain, f, rng, "primal", k),
                          _accumulate_operands(domain, f, rng, "primal", l)))
        for k, l in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 4), (3, 3)):
            cases.append((exterior._act_basis,
                          _accumulate_operands(domain, f, rng, "dual", k),
                          _accumulate_operands(domain, f, rng, "primal", l)))
    # odd forms wedge themselves to zero, and in GF(2) so do even ones:
    # every sum cancels, unreduced sums included
    for k in (1, 2, 3):
        v = _accumulate_operands(domain, f, rng, "primal", k)
        if k % 2 or p == 2:
            assert exterior._accumulate(domain, exterior._wedge_basis,
                                        v.terms, v.terms) == {}
    nonzero = 0
    for table, a, b in cases:
        got = exterior._accumulate(domain, table, a.terms, b.terms)
        want = accumulate_reference(domain, table, a.terms, b.terms)
        assert got == want
        nonzero += bool(got)
        for c in got.values():
            assert not domain.is_zero(c)
            scalars = [c] if domain is field else [cc for _, cc in c.terms]
            if p:
                assert all(type(cc) is int and 0 < cc < p for cc in scalars)
    assert nonzero > len(cases) // 2
    # the per-term rows hold basis facts only, each its table's value
    for table in (exterior._wedge_basis, exterior._act_basis):
        for A, row in exterior._ROWS[table].items():
            assert all(hit == table(A, B)
                       for B, hit in row.items())
