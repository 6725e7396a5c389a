"""Buchberger/Schreyer engine: S-pair closure, module orders."""

import random

import pytest

from pfaffcalc import gbengine
from pfaffcalc.constructions import build_ideal, module_presentation
from pfaffcalc.fields import GF, QQ
from pfaffcalc.gbengine import (FreeModuleOrder, SchreyerOrder, buchberger,
                                columns_of_vecs, interreduce, make_buckets,
                                nf, schreyer_level, spair_vec, vec_bidegs,
                                vec_of_entries)
from pfaffcalc.resolutions import _ladder, _vecs_of_matrix
from pfaffcalc.rings import Polynomial, ring_for


def scalar_setup(f, field, kind="J"):
    ring = ring_for(f, field)
    order = FreeModuleOrder(ring, 1)
    gens = build_ideal(kind, ring).gens
    vecs = [vec_of_entries(((0, g),), order) for g in gens]
    return ring, order, vecs


def test_vec_poly_roundtrip():
    ring = ring_for(3, QQ)
    order = FreeModuleOrder(ring, 3)
    p = ring.x(1, 2) * ring.t(3) - ring.x(2, 3).scale(QQ.from_int(5))
    q = ring.t(1) + ring.x(1, 3)
    v = vec_of_entries(((2, q), (0, p)), order)
    assert columns_of_vecs([v, ()], order) == [{0: p, 2: q}, {}]
    # leading entry first: component 0 outranks component 2
    assert v[0][0] == order.key(0, p.lm())
    assert list(v) == sorted(v, reverse=True)


@pytest.mark.parametrize("char", [0, 32003])
def test_groebner_basis_invariants(char):
    field = GF(char) if char else QQ
    ring, order, vecs = scalar_setup(3, field)
    G = buchberger(vecs, order, field)
    G = interreduce(G, order, field)
    one = field.one()
    leads = [g[0][0] for g in G]
    for i, g in enumerate(G):
        assert g[0][1] == one
        for j, k in enumerate(leads):
            if i != j:
                assert not order.divides(k, leads[i])


@pytest.mark.parametrize("char", [0, 32003])
def test_every_s_pair_reduces_to_zero(char):
    field = GF(char) if char else QQ
    ring, order, vecs = scalar_setup(3, field)
    G = buchberger(vecs, order, field)
    buckets = make_buckets(G, order, field)
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            ki, kj = G[i][0][0], G[j][0][0]
            L = order.codec.lcm(order.mono(ki), order.mono(kj))
            ua = order.codec.div(L, order.mono(ki))
            ub = order.codec.div(L, order.mono(kj))
            s, _, _ = spair_vec(G[i], G[j], ua, ub, order, field)
            rem, _ = nf(s, order, buckets, field)
            assert not rem


def test_membership_via_normal_form():
    ring, order, vecs = scalar_setup(4, QQ)
    G = buchberger(vecs, order, QQ)
    buckets = make_buckets(G, order, QQ)
    gens = build_ideal("J", ring).gens
    member = gens[0] * ring.x(1, 3) + gens[2].scale(QQ.from_int(-3))
    rem, _ = nf(vec_of_entries(((0, member),), order), order, buckets, QQ)
    assert not rem
    rem, _ = nf(vec_of_entries(((0, ring.x(1, 2)),), order), order, buckets,
                QQ)
    assert rem


def test_schreyer_level_produces_syzygies():
    ring = ring_for(4, QQ)
    order = FreeModuleOrder(ring, 1)
    gens = build_ideal("J", ring).gens
    vecs = [vec_of_entries(((0, g),), order) for g in gens]
    G = buchberger(vecs, order, QQ)
    G = interreduce(G, order, QQ)
    syz, sorder = schreyer_level(G, order, QQ)
    polys = [col[0] for col in columns_of_vecs(G, order)]
    assert syz
    for s in syz[:10]:
        acc = ring.zero()
        for key, c in s:
            term = Polynomial(ring, ((sorder.mono(key), c),))
            acc = acc + polys[sorder.comp(key)] * term
        assert acc.is_zero()


def test_module_order_twists_and_degrees():
    ring = ring_for(3, QQ)
    order = FreeModuleOrder(ring, 2, twists=[(1, 0), (0, 2)])
    k = order.key(1, ring.x(1, 2).lm())
    assert order.comp(k) == 1
    assert vec_bidegs([((k, QQ.one()),)], order) == [(1, 2)]


def test_vec_bidegs_rejects_mixed_vec():
    ring = ring_for(3, QQ)
    order = FreeModuleOrder(ring, 2, twists=[(0, 0), (1, 0)])
    one = QQ.one()
    x12, t1 = ring.x(1, 2).lm(), ring.t(1).lm()
    # x_(1,2)*e_0 and 1*e_1 share the bidegree (1, 0)
    v = tuple(sorted([(order.key(0, x12), one),
                      (order.key(1, order.one), one)], reverse=True))
    w = ((order.key(1, t1), one),)
    assert vec_bidegs([v, (), w], order) == [(1, 0), None, (1, 1)]
    mixed = tuple(sorted(v + w, reverse=True))
    with pytest.raises(ValueError, match="not bihomogeneous"):
        vec_bidegs([v, mixed], order)


# -- interreduce against the per-element reference ---------------------------

def interreduce_reference(G, order, field):
    """interreduce as it was when the buckets of all other survivors were
    rebuilt for every element on every pass.  It looks up make_buckets
    and nf on the module at call time, so a recording nf sees it too."""
    items = sorted(G, key=lambda g: g[0][0])
    kept = []
    for g in items:
        k = g[0][0]
        if any(order.divides(h[0][0], k) for h in kept):
            continue
        kept.append(g)
    changed = True
    while changed:
        changed = False
        for i in range(len(kept)):
            others = kept[:i] + kept[i + 1:]
            buckets = gbengine.make_buckets(others, order, field)
            rem, _ = gbengine.nf(kept[i], order, buckets, field)
            if rem != kept[i]:
                if not rem or rem[0][0] != kept[i][0][0]:
                    raise AssertionError("interreduction destroyed a leading term")
                kept[i] = rem
                changed = True
    out = []
    for g in sorted(kept, key=lambda g: g[0][0], reverse=True):
        c = g[0][1]
        if c == field.one():
            out.append(tuple(g))
        else:
            inv = field.inv(c)
            out.append(tuple((k, field.mul(cc, inv)) for k, cc in g))
    return out


def recorded_interreduce(fn, G, order, field, monkeypatch):
    """(result, log) of fn(G, order, field), logging every nf call: the
    vec reduced, its remainder, and each nonempty bucket's
    (ltkey, inv(lc), vec) entries in order.  A reduced GB is unique, so
    only the log shows which divisor and which version of a vec each
    step used."""
    log = []
    real_nf = gbengine.nf

    def recording_nf(f, order, buckets, field, **kw):
        seen = tuple((comp, tuple(ent[:3] for ent in bucket))
                     for comp, bucket in sorted(buckets.items()) if bucket)
        rem, quots = real_nf(f, order, buckets, field, **kw)
        log.append((tuple(f), rem, seen))
        return rem, quots

    monkeypatch.setattr(gbengine, "nf", recording_nf)
    try:
        out = fn(G, order, field)
    finally:
        monkeypatch.setattr(gbengine, "nf", real_nf)
    return out, log


def assert_same_interreduce(G, order, field, monkeypatch):
    got, got_log = recorded_interreduce(interreduce, G, order, field,
                                        monkeypatch)
    want, want_log = recorded_interreduce(interreduce_reference, G, order,
                                          field, monkeypatch)
    assert got == want
    assert len(got_log) == len(want_log)
    for step, (a, b) in enumerate(zip(got_log, want_log)):
        assert a == b, "nf call %d differs" % step
    return got


@pytest.mark.parametrize("char", [0, 2, 32003])
@pytest.mark.parametrize("name", ["A", "N", "RJ"])
@pytest.mark.parametrize("f", [4, 5])
def test_interreduce_matches_per_element_reference(f, name, char, monkeypatch):
    """Every ladder level of A, N and RJ: the same output, and the same
    sequence of reductions against the same bucket contents."""
    field = GF(char) if char else QQ
    ring = ring_for(f, field, vars="xt" if name == "RJ" else "x")
    vecs, order = _vecs_of_matrix(module_presentation(name, ring))
    G = buchberger([v for v in vecs if v], order, field)
    levels = 0
    while G:
        G = assert_same_interreduce(G, order, field, monkeypatch)
        levels += 1
        G, order = schreyer_level(G, order, field)
    assert levels >= (1 if name == "A" and f == 4 else 3)


def test_interreduce_guards_leading_terms():
    """A corrupted key (a monomial field changed without its degree field)
    makes divisibility disagree with the key order, so reduction cancels
    a survivor's leading term; both implementations refuse."""
    field = GF(32003)
    ring = ring_for(3, field)
    order = FreeModuleOrder(ring, 1)
    k = order.key(0, ring.x(1, 2).lm())
    G = [((k, field.one()),), ((k - 1, field.one()),)]
    assert order.divides(k, k - 1) and not order.divides(k - 1, k)
    for fn in (interreduce, interreduce_reference):
        with pytest.raises(AssertionError, match="destroyed a leading term"):
            fn(G, order, field)


# -- Schreyer keys deep in the ladder -----------------------------------------

def check_schreyer_keys(order, comps, monos, rng):
    """comp/mono/divides/quot/moff round-trips on keys of one order, and
    the Schreyer comparison: by the parent key of m*anchor, ties to the
    smaller index."""
    codec = order.codec
    for _ in range(40):
        c, d = rng.choice(comps), rng.choice(comps)
        m1, m2 = rng.choice(monos), rng.choice(monos)
        k1, k2 = order.key(c, m1), order.key(c, codec.mul(m1, m2))
        assert (order.comp(k1), order.mono(k1)) == (c, m1)
        assert (order.comp(k2), order.mono(k2)) == (c, codec.mul(m1, m2))
        assert order.divides(k1, k2) and order.quot(k2, k1) == m2
        assert k1 + order.moff(m2) == k2
        assert order.divides(k2, k1) == (m2 == order.one)
        kd = order.key(d, m1)
        assert order.divides(kd, k2) == (d == c)
        if isinstance(order, SchreyerOrder):
            parent = order.parent
            pc = order.anchors[c] + parent.moff(m1)
            pd = order.anchors[d] + parent.moff(m1)
            assert (k1 > kd) == ((pc, -c) > (pd, -d))


def test_schreyer_keys_round_trip_at_depth_twelve():
    """Twelve nested Schreyer levels (N at f = 6 needs nine), with scalar
    monomials whose products reach 120, the per-variable cap."""
    ring = ring_for(6, GF(32003), vars="x")
    codec = ring.codec
    n = codec.nvars
    rng = random.Random("schreyer-depth")
    order = FreeModuleOrder(ring, 3, twists=[(0, 0), (1, 0), (2, 0)])
    depth = 0
    while True:
        # two monomials of up to 54 per variable, times the anchors' own
        # exponents (at most one per level), reach at most 120
        monos = [codec.pack(tuple(rng.choice((0, 1, 2, 53, 54))
                                  for _ in range(n))) for _ in range(8)]
        monos.append(order.one)
        check_schreyer_keys(order, range(order.rank), monos, rng)
        if depth == 12:
            break
        anchors = sorted({order.key(rng.randrange(order.rank),
                                    codec.var(rng.randrange(n)))
                          for _ in range(6)}, reverse=True)
        order = SchreyerOrder(order, anchors, [(0, 0)] * len(anchors))
        depth += 1
    assert order.mshift == 12 * gbengine.SBITS


def test_schreyer_keys_of_the_n_ladder_at_f6():
    """Every term key of every level of the N ladder at f = 6 (ten levels,
    the deepest nine Schreyer levels down) decodes and re-encodes, and
    divisibility between same-component terms agrees with the codec."""
    ring = ring_for(6, GF(32003), vars="x")
    codec = ring.codec
    levels, _ = _ladder(module_presentation("N", ring))
    assert len(levels) == 10
    for order, els in levels:
        leads = {}
        for v in els:
            for key, _ in v:
                c, m = order.comp(key), order.mono(key)
                assert order.key(c, m) == key
            leads.setdefault(order.comp(v[0][0]), []).append(v[0][0])
        for v in els[:20]:
            c = order.comp(v[0][0])
            for key, _ in v:
                if order.comp(key) != c:
                    continue
                for b in leads[c][:20]:
                    mb, ma = order.mono(b), order.mono(key)
                    assert order.divides(b, key) == codec.divides(mb, ma)
                    if codec.divides(mb, ma):
                        assert order.quot(key, b) == codec.div(ma, mb)
