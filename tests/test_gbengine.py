"""Buchberger/Schreyer engine: S-pair closure, module orders."""

import heapq
import random
from fractions import Fraction

import pytest

from conftest import flat, terms
from pfaffcalc import gbengine, homology, verify
from pfaffcalc.constructions import build_ideal, module_presentation
from pfaffcalc.fields import GF, QQ
from pfaffcalc.gbengine import (FreeModuleOrder, buchberger, columns_of_vecs,
                                interreduce, make_buckets, nf,
                                schreyer_level, schreyer_pairs, spair_vec,
                                vec_bidegs, vec_of_entries)
from pfaffcalc.resolutions import schreyer_frame, vecs_of_matrix
from pfaffcalc.rings import Polynomial, ring_for


def scalar_setup(f, field, kind="J"):
    ring = ring_for(f, field)
    order = FreeModuleOrder(ring, 1)
    gens = build_ideal(kind, ring)
    vecs = [vec_of_entries(((0, g),), order) for g in gens]
    return ring, order, vecs


def term_divides(order, b, a):
    """Does term key b divide term key a: the same component, and a
    quotient a/b with no guard bit set?"""
    return order.comp(a) == order.comp(b) and \
        not order.quot(a, b) & order.guards


def test_vec_poly_roundtrip():
    ring = ring_for(3, QQ)
    order = FreeModuleOrder(ring, 3)
    p = ring.x(1, 2) * ring.t(3) - ring.x(2, 3).scale(QQ.from_int(5))
    q = ring.t(1) + ring.x(1, 3)
    v = vec_of_entries(((2, q), (0, p)), order)
    assert columns_of_vecs([v, ()], order) == [{0: p, 2: q}, {}]
    # leading entry first: component 0 outranks component 2
    assert v[0] == order.key(0, p.lm())
    assert len(v) == 2 * (len(p.terms) + len(q.terms))
    assert list(v[::2]) == sorted(set(v[::2]), reverse=True)


def test_packed_capacity_guards_refuse_before_laying_out_keys():
    # each guard reads a length only, so a refused order allocates nothing
    ring = ring_for(3, QQ)
    with pytest.raises(ValueError,
                       match="free module rank exceeds the packed capacity"):
        FreeModuleOrder(ring, gbengine.MAXC)

    class TooMany:
        def __len__(self):
            return gbengine.SMASK + 1

        def __iter__(self):
            raise AssertionError("the anchors were read past the guard")

    with pytest.raises(ValueError,
                       match="too many basis elements for one Schreyer level"):
        FreeModuleOrder(ring, 1).schreyer(TooMany(), ())


@pytest.mark.parametrize("char", [0, 32003])
def test_groebner_basis_invariants(char):
    field = GF(char) if char else QQ
    ring, order, vecs = scalar_setup(3, field)
    G = buchberger(vecs, order)
    G = interreduce(G, order)
    one = field.one()
    leads = [g[0] for g in G]
    for i, g in enumerate(G):
        assert g[1] == one
        for j, k in enumerate(leads):
            if i != j:
                assert not term_divides(order, k, leads[i])


@pytest.mark.parametrize("char", [0, 32003])
def test_every_s_pair_reduces_to_zero(char):
    field = GF(char) if char else QQ
    ring, order, vecs = scalar_setup(3, field)
    G = buchberger(vecs, order)
    buckets = make_buckets(G, order)
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            ki, kj = G[i][0], G[j][0]
            L = order.codec.lcm(order.mono(ki), order.mono(kj))
            ua = order.codec.div(L, order.mono(ki))
            ub = order.codec.div(L, order.mono(kj))
            s, _, _ = spair_vec(G[i], G[j], ua, ub, order)
            rem, _ = nf(s, order, buckets)
            assert not rem


@pytest.mark.parametrize("char", [0, 32003])
def test_buckets_invert_only_leads_that_are_not_one(char):
    field = GF(char) if char else QQ
    inverted = []

    class Counting(type(field)):
        __slots__ = ()

        def inv(self, a):
            inverted.append(a)
            return super().inv(a)
    ring, order, vecs = scalar_setup(4, field)
    G = interreduce(buchberger(vecs, order), order)
    G += [flat((k, field.mul(c, 3)) for k, c in terms(g)) for g in G[:2]]
    # the same keys, over a ring whose field counts its inversions
    counting = FreeModuleOrder(ring_for(4, Counting(char)), 1)
    buckets = make_buckets(G, counting)
    assert sorted(inverted) == [3, 3]
    for ltkey, inv, g, idx in (e for b in buckets.values() for e in b):
        assert g is G[idx] and ltkey == g[0]
        want = field.inv(g[1])
        assert inv == want and type(inv) is type(want)


def test_membership_via_normal_form():
    ring, order, vecs = scalar_setup(4, QQ)
    G = buchberger(vecs, order)
    buckets = make_buckets(G, order)
    gens = build_ideal("J", ring)
    member = gens[0] * ring.x(1, 3) + gens[2].scale(QQ.from_int(-3))
    rem, _ = nf(vec_of_entries(((0, member),), order), order, buckets)
    assert not rem
    rem, _ = nf(vec_of_entries(((0, ring.x(1, 2)),), order), order, buckets)
    assert rem


def test_schreyer_level_produces_syzygies():
    ring = ring_for(4, QQ)
    order = FreeModuleOrder(ring, 1)
    gens = build_ideal("J", ring)
    vecs = [vec_of_entries(((0, g),), order) for g in gens]
    G = buchberger(vecs, order)
    G = interreduce(G, order)
    syz, sorder = schreyer_level(G, order, schreyer_pairs(G, order))
    polys = [col[0] for col in columns_of_vecs(G, order)]
    assert syz
    for s in syz[:10]:
        acc = ring.zero()
        for key, c in terms(s):
            term = Polynomial(ring, ((sorder.mono(key), c),))
            acc = acc + polys[sorder.comp(key)] * term
        assert acc.is_zero()


def test_schreyer_level_refuses_a_basis_that_is_not_groebner():
    """a*b + c^2 and a*c: their S-pair reduces to c^3, which buchberger
    adds, so as a basis they leave a nonzero remainder."""
    ring = ring_for(3, QQ)
    order = FreeModuleOrder(ring, 1)
    a, b, c = ring.x(1, 2), ring.x(1, 3), ring.x(2, 3)
    gens = (a * b + c * c, a * c)
    G = sorted((vec_of_entries(((0, g),), order) for g in gens), reverse=True)
    assert len(buchberger(G, order)) > len(G)
    with pytest.raises(AssertionError,
                       match="S-pair of a Groebner basis did not reduce "
                       "to zero"):
        schreyer_level(G, order, schreyer_pairs(G, order))


def test_schreyer_level_refuses_a_quotient_above_the_lead(monkeypatch):
    """An nf that records one quotient term far above every S-pair's
    leading term u_ij * eps_i puts that term at the head of the syzygy."""
    ring, order, vecs = scalar_setup(4, QQ)
    G = interreduce(buchberger(vecs, order), order)
    far = ring.codec.pack((9,) + (0,) * (ring.codec.nvars - 1))
    real_nf = gbengine.nf

    def inflating(f, order, buckets, record=False):
        rem, quots = real_nf(f, order, buckets, record=record)
        if record:
            quots.setdefault(0, []).append((far, 1))
        return rem, quots
    monkeypatch.setattr(gbengine, "nf", inflating)
    with pytest.raises(AssertionError,
                       match="Schreyer leading term mismatch"):
        schreyer_level(G, order, schreyer_pairs(G, order))


def test_module_order_twists_and_degrees():
    ring = ring_for(3, QQ)
    order = FreeModuleOrder(ring, 2, twists=[(1, 0), (0, 2)])
    k = order.key(1, ring.x(1, 2).lm())
    assert order.comp(k) == 1
    assert vec_bidegs([(k, QQ.one())], order) == [(1, 2)]


def test_vec_bidegs_rejects_mixed_vec():
    ring = ring_for(3, QQ)
    order = FreeModuleOrder(ring, 2, twists=[(0, 0), (1, 0)])
    one = QQ.one()
    x12, t1 = ring.x(1, 2).lm(), ring.t(1).lm()
    # x_(1,2)*e_0 and 1*e_1 share the bidegree (1, 0)
    v = flat(sorted([(order.key(0, x12), one),
                     (order.key(1, order.one), one)], reverse=True))
    w = (order.key(1, t1), one)
    assert vec_bidegs([v, (), w], order) == [(1, 0), None, (1, 1)]
    mixed = flat(sorted(terms(v) + terms(w), reverse=True))
    with pytest.raises(ValueError, match="not bihomogeneous"):
        vec_bidegs([v, mixed], order)


# -- interreduce against the per-element reference ---------------------------

def interreduce_reference(G, order):
    """interreduce as it was when the buckets of all other survivors were
    rebuilt for every element on every pass.  It looks up make_buckets
    and nf on the module at call time, so a recording nf sees it too."""
    field = order.ring.field
    items = sorted(G, key=lambda g: g[0])
    kept = []
    for g in items:
        k = g[0]
        if any(term_divides(order, h[0], k) for h in kept):
            continue
        kept.append(g)
    changed = True
    while changed:
        changed = False
        for i in range(len(kept)):
            others = kept[:i] + kept[i + 1:]
            buckets = gbengine.make_buckets(others, order)
            rem, _ = gbengine.nf(kept[i], order, buckets)
            if rem != kept[i]:
                if not rem or rem[0] != kept[i][0]:
                    raise AssertionError("interreduction destroyed a leading term")
                kept[i] = rem
                changed = True
    out = []
    for g in sorted(kept, key=lambda g: g[0], reverse=True):
        c = g[1]
        if c == field.one():
            out.append(tuple(g))
        else:
            inv = field.inv(c)
            out.append(flat((k, field.mul(cc, inv)) for k, cc in terms(g)))
    return out


def recorded_interreduce(fn, G, order, monkeypatch):
    """(result, log) of fn(G, order), logging every nf call: the
    vec reduced, its remainder, and each nonempty bucket's
    (ltkey, inv(lc), vec) entries in order.  A reduced GB is unique, so
    only the log shows which divisor and which version of a vec each
    step used."""
    log = []
    real_nf = gbengine.nf

    def recording_nf(f, order, buckets, **kw):
        seen = tuple((comp, tuple(ent[:3] for ent in bucket))
                     for comp, bucket in sorted(buckets.items()) if bucket)
        rem, quots = real_nf(f, order, buckets, **kw)
        log.append((tuple(f), rem, seen))
        return rem, quots

    monkeypatch.setattr(gbengine, "nf", recording_nf)
    try:
        out = fn(G, order)
    finally:
        monkeypatch.setattr(gbengine, "nf", real_nf)
    return out, log


def assert_same_interreduce(G, order, monkeypatch):
    """interreduce makes one pass: its nf calls are the reference's first
    pass, one per survivor, and every later call of the reference
    returns its input unchanged."""
    got, got_log = recorded_interreduce(interreduce, G, order, monkeypatch)
    want, want_log = recorded_interreduce(interreduce_reference, G, order,
                                          monkeypatch)
    assert got == want
    assert len(got_log) == len(want)
    for step, (a, b) in enumerate(zip(got_log, want_log)):
        assert a == b, "nf call %d differs" % step
    for step, (f, rem, _) in enumerate(want_log[len(got_log):]):
        assert rem == f, "later nf call %d changed its input" % step
    return got


@pytest.mark.parametrize("char", [0, 2, 32003])
@pytest.mark.parametrize("name", ["A", "N", "RJ"])
@pytest.mark.parametrize("f", [4, 5])
def test_interreduce_matches_per_element_reference(f, name, char, monkeypatch):
    """Every ladder level of A, N and RJ: the same output, and the same
    sequence of reductions against the same bucket contents."""
    field = GF(char) if char else QQ
    ring = ring_for(f, field, vars="xt" if name == "RJ" else "x")
    vecs, order = vecs_of_matrix(module_presentation(name, ring))
    G = buchberger([v for v in vecs if v], order)
    levels = 0
    while G:
        G = assert_same_interreduce(G, order, monkeypatch)
        levels += 1
        G, order = schreyer_level(G, order, schreyer_pairs(G, order))
    assert levels >= (1 if name == "A" and f == 4 else 3)


def test_interreduce_guards_leading_terms():
    """A corrupted key (a monomial field changed without its degree field)
    makes divisibility disagree with the key order, so reduction cancels
    a survivor's leading term; both implementations refuse."""
    field = GF(32003)
    ring = ring_for(3, field)
    order = FreeModuleOrder(ring, 1)
    k = order.key(0, ring.x(1, 2).lm())
    G = [(k, field.one()), (k - 1, field.one())]
    assert term_divides(order, k, k - 1) and \
        not term_divides(order, k - 1, k)
    for fn in (interreduce, interreduce_reference):
        with pytest.raises(AssertionError, match="destroyed a leading term"):
            fn(G, order)


# -- nf against the merge-based reference -------------------------------------

def _merge_sub_reference(a, ai, g, m, c, order, field):
    """a[ai:] minus (m, c)*g[1:] as a fresh descending list of (key,
    coeff) pairs, g a vec; the caller has arranged that a[ai-1] cancels
    against (m, c)*g[0]."""
    g = terms(g)
    out = []
    off = order.moff(m)
    i, j = ai, 1
    na, ng = len(a), len(g)
    while i < na and j < ng:
        ka, ca = a[i]
        kg = g[j][0] + off
        if ka > kg:
            out.append(a[i])
            i += 1
        elif ka < kg:
            out.append((kg, field.neg(field.mul(c, g[j][1]))))
            j += 1
        else:
            cc = field.add(ca, field.neg(field.mul(c, g[j][1])))
            if not field.is_zero(cc):
                out.append((ka, cc))
            i += 1
            j += 1
    if i < na:
        out.extend(a[i:])
    while j < ng:
        out.append((g[j][0] + off, field.neg(field.mul(c, g[j][1]))))
        j += 1
    return out


def nf_reference(f, order, buckets, record=False):
    """nf as it was when every reduction step merged the subtrahend into a
    fresh copy of the remaining work list of (key, coeff) pairs."""
    field = order.ring.field
    work = terms(f)
    i0 = 0
    rem = []
    quots = {} if record else None
    while i0 < len(work):
        k, c = work[i0]
        hit = None
        for ent in buckets.get(order.comp(k), ()):
            if term_divides(order, ent[0], k):
                hit = ent
                break
        if hit is None:
            rem.append(work[i0])
            i0 += 1
            continue
        lk, inv, g, gi = hit
        m = order.quot(k, lk)
        cc = field.mul(c, inv)
        if record:
            quots.setdefault(gi, []).append((m, cc))
        work = _merge_sub_reference(work, i0 + 1, g, m, cc, order, field)
        i0 = 0
    return flat(rem), quots


def spair_vec_reference(gi, gj, ua, ub, order):
    """spair_vec as it was, one merge of the two scaled vecs."""
    field = order.ring.field
    inv_i = field.inv(gi[1])
    inv_j = field.inv(gj[1])
    offa = order.moff(ua)
    a = [(k + offa, field.mul(c, inv_i)) for k, c in terms(gi)]
    return flat(_merge_sub_reference(a, 1, gj, ub, inv_j, order, field)), \
        inv_i, inv_j


def assert_canonical(pairs, field):
    """Every coefficient of the (key or monomial, coeff) pairs is a
    nonzero field element in canonical form: a reduced int over GF(p), an
    int or a Fraction over QQ."""
    p = field.char
    for _, c in pairs:
        if p:
            assert type(c) is int and 0 < c < p
        else:
            assert type(c) in (int, Fraction) and c != 0


def coeff_types(pairs):
    return [type(c) for _, c in pairs]


def checked_engine(monkeypatch, calls):
    """Route gbengine's nf and spair_vec through wrappers that also run
    the references on the same input and assert identical output, down
    to coefficient types and the order of the quotient dict and lists.
    calls counts the engine's nf calls by record."""
    real_nf, real_spair = gbengine.nf, gbengine.spair_vec

    def nf_both(f, order, buckets, record=False):
        field = order.ring.field
        got = real_nf(f, order, buckets, record=record)
        want = nf_reference(f, order, buckets, record=record)
        calls[record] = calls.get(record, 0) + 1
        assert got[0] == want[0]
        assert coeff_types(terms(got[0])) == coeff_types(terms(want[0]))
        assert_canonical(terms(got[0]), field)
        if record:
            assert list(got[1].items()) == list(want[1].items())
            for gi, quot in got[1].items():
                assert coeff_types(quot) == coeff_types(want[1][gi])
                assert_canonical(quot, field)
        else:
            assert got[1] is None and want[1] is None
        return got

    def spair_both(gi, gj, ua, ub, order):
        got = real_spair(gi, gj, ua, ub, order)
        want = spair_vec_reference(gi, gj, ua, ub, order)
        assert got[0] == want[0]
        assert coeff_types(terms(got[0])) == coeff_types(terms(want[0]))
        assert got[1:] == want[1:]
        assert_canonical(terms(got[0]), order.ring.field)
        return got

    monkeypatch.setattr(gbengine, "nf", nf_both)
    monkeypatch.setattr(gbengine, "spair_vec", spair_both)


@pytest.mark.parametrize("char", [0, 2, 32003])
@pytest.mark.parametrize("name", ["A", "N", "RJ"])
@pytest.mark.parametrize("f", [4, 5])
def test_nf_matches_merge_reference(f, name, char, monkeypatch):
    """Every nf call of buchberger, interreduce and schreyer_level on the
    A, N and RJ ladders: the same remainder, the same recorded
    quotients, the same coefficient types as the merge-based nf."""
    field = GF(char) if char else QQ
    ring = ring_for(f, field, vars="xt" if name == "RJ" else "x")
    vecs, order = vecs_of_matrix(module_presentation(name, ring))
    calls = {}
    checked_engine(monkeypatch, calls)
    G = buchberger([v for v in vecs if v], order)
    while G:
        G = interreduce(G, order)
        G, order = schreyer_level(G, order, schreyer_pairs(G, order))
    assert calls[False] > 0
    # A at f = 4 is principal: its ladder has no S-pairs
    assert (calls.get(True, 0) > 0) == (name != "A" or f != 4)


def test_nf_drops_a_term_that_cancels_over_gf2():
    """In GF(2), 1 + 1 = 0: the cancelled term leaves no zero coefficient
    and no key behind, in nf and in spair_vec."""
    field = GF(2)
    ring = ring_for(3, field)
    order = FreeModuleOrder(ring, 1)
    x, y, t = ring.x(1, 2), ring.x(1, 3), ring.t(1)
    assert y.lm() > x.lm()

    def vec(p):
        return vec_of_entries(((0, p),), order)

    g = vec(y + x)
    buckets = make_buckets([g], order)
    # y^2 - y*(y + x) = xy in GF(2), which cancels the xy of f
    f = vec(y * y + x * y + t * t)
    rem, quots = nf(f, order, buckets, record=True)
    assert rem == vec(t * t)
    assert quots == {0: [(y.lm(), 1)]}
    assert nf(vec(y * y + x * y), order, buckets)[0] == ()
    # under the leading w, the y terms cancel: (w + y + x) - (w + y) = x
    w = ring.x(2, 3)
    sp, _, _ = spair_vec(vec(w + y + x), vec(w + y), order.one, order.one,
                         order)
    assert sp == vec(x)


# -- Schreyer keys deep in the ladder -----------------------------------------

def check_schreyer_keys(order, parent, comps, monos, rng):
    """comp/mono/quot/moff round-trips and divisibility on keys of one
    order.  For a Schreyer order inside `parent`, also its base keys and
    comparison: bases[c] holds the parent key of the anchor above the
    complemented index, so m*eps_c compares by the parent key of
    m*anchor_c, ties to the smaller index."""
    codec = order.codec
    if parent is not None:
        anchors = [b >> gbengine.SBITS for b in order.bases]
        assert order.mshift == parent.mshift + gbengine.SBITS
        assert [b & gbengine.SMASK for b in order.bases] == \
            [gbengine.SMASK - c for c in range(order.rank)]
    for _ in range(40):
        c, d = rng.choice(comps), rng.choice(comps)
        m1, m2 = rng.choice(monos), rng.choice(monos)
        k1, k2 = order.key(c, m1), order.key(c, codec.mul(m1, m2))
        assert (order.comp(k1), order.mono(k1)) == (c, m1)
        assert (order.comp(k2), order.mono(k2)) == (c, codec.mul(m1, m2))
        assert term_divides(order, k1, k2) and order.quot(k2, k1) == m2
        assert k1 + order.moff(m2) == k2
        assert term_divides(order, k2, k1) == (m2 == order.one)
        kd = order.key(d, m1)
        assert term_divides(order, kd, k2) == (d == c)
        if parent is not None:
            pc = anchors[c] + parent.moff(m1)
            pd = anchors[d] + parent.moff(m1)
            assert (k1 > kd) == ((pc, -c) > (pd, -d))


def test_schreyer_keys_round_trip_at_depth_twelve():
    """Twelve nested Schreyer levels (N at f = 6 needs nine), with scalar
    monomials whose products reach 120, the per-variable cap."""
    ring = ring_for(6, GF(32003), vars="x")
    codec = ring.codec
    n = codec.nvars
    rng = random.Random("schreyer-depth")
    order = FreeModuleOrder(ring, 3, twists=[(0, 0), (1, 0), (2, 0)])
    parent = None
    depth = 0
    while True:
        # two monomials of up to 54 per variable, times the anchors' own
        # exponents (at most one per level), reach at most 120
        monos = [codec.pack(tuple(rng.choice((0, 1, 2, 53, 54))
                                  for _ in range(n))) for _ in range(8)]
        monos.append(order.one)
        check_schreyer_keys(order, parent, range(order.rank), monos, rng)
        if depth == 12:
            break
        anchors = sorted({order.key(rng.randrange(order.rank),
                                    codec.var(rng.randrange(n)))
                          for _ in range(6)}, reverse=True)
        parent, order = order, order.schreyer(anchors,
                                              [(0, 0)] * len(anchors))
        depth += 1
    assert order.mshift == 12 * gbengine.SBITS


def test_schreyer_keys_of_the_n_ladder_at_f6():
    """Every term key of every level of the N ladder at f = 6 (ten levels,
    the deepest nine Schreyer levels down) decodes and re-encodes, and
    divisibility between same-component terms agrees with the codec."""
    ring = ring_for(6, GF(32003), vars="x")
    codec = ring.codec
    levels = schreyer_frame(module_presentation("N", ring)).levels
    assert len(levels) == 10
    for order, els in levels:
        leads = {}
        for v in els:
            for key in v[::2]:
                c, m = order.comp(key), order.mono(key)
                assert order.key(c, m) == key
            leads.setdefault(order.comp(v[0]), []).append(v[0])
        for v in els[:20]:
            c = order.comp(v[0])
            for key in v[::2]:
                if order.comp(key) != c:
                    continue
                for b in leads[c][:20]:
                    mb, ma = order.mono(b), order.mono(key)
                    assert term_divides(order, b, key) == \
                        codec.divides(mb, ma)
                    if codec.divides(mb, ma):
                        assert order.quot(key, b) == codec.div(ma, mb)


# -- buchberger against the pair scan over every component --------------------

def buchberger_reference(vecs, order):
    """buchberger as it was when a new element scanned every earlier
    element, and the chain criterion every live pair, of all components,
    and no basis could be installed as known."""
    codec = order.codec
    scalar = order.rank == 1
    G, lts, buckets, heap, alive, lcms = [], [], {}, [], set(), {}

    def add_pairs(t):
        kt = lts[t]
        ct = order.comp(kt)
        mt = order.mono(kt)
        cand = []
        for i in range(t):
            if order.comp(lts[i]) != ct:
                continue
            L = codec.lcm(order.mono(lts[i]), mt)
            cand.append((codec.deg(L), L, i))
        kept = gbengine._divisibility_minimal(cand, codec.divides)
        if scalar:
            kept = [(dL, L, i) for (dL, L, i) in kept
                    if not codec.coprime(order.mono(lts[i]), mt)]
        for (i, j) in list(alive):
            Lij = lcms[(i, j)]
            if order.comp(lts[i]) != ct or not codec.divides(mt, Lij):
                continue
            if codec.lcm(order.mono(lts[i]), mt) != Lij and \
                    codec.lcm(order.mono(lts[j]), mt) != Lij:
                alive.discard((i, j))
                del lcms[(i, j)]
        a, b = order.twists[ct]
        for dL, L, i in kept:
            alive.add((i, t))
            lcms[(i, t)] = L
            heapq.heappush(heap, (dL + a + b, t, i))

    def install(remainder):
        s = len(G)
        G.append(tuple(remainder))
        lts.append(remainder[0])
        gbengine.bucket_insert(buckets, order, G[s], s)
        add_pairs(s)

    for v in vecs:
        v = tuple(v)
        if v:
            rem, _ = gbengine.nf(v, order, buckets)
            if rem:
                install(rem)
    while heap:
        _, j, i = heapq.heappop(heap)
        if (i, j) not in alive:
            continue
        alive.discard((i, j))
        L = lcms.pop((i, j))
        ua = codec.div(L, order.mono(lts[i]))
        ub = codec.div(L, order.mono(lts[j]))
        sp, _, _ = gbengine.spair_vec(G[i], G[j], ua, ub, order)
        rem, _ = gbengine.nf(sp, order, buckets)
        if rem:
            install(rem)
    return G


def existing_inputs(char):
    """The buchberger inputs of the other tests here: J at f = 3, 4 and
    the A, N and RJ presentations at f = 4, 5."""
    field = GF(char) if char else QQ
    for f in (3, 4):
        _, order, vecs = scalar_setup(f, field)
        yield vecs, order
    for f in (4, 5):
        for name in ("A", "N", "RJ"):
            ring = ring_for(f, field, vars="xt" if name == "RJ" else "x")
            vecs, order = vecs_of_matrix(module_presentation(name, ring))
            yield [v for v in vecs if v], order


def suite_inputs(name, f, char, monkeypatch):
    """Every (vecs, order, known) that the complex-closure and exactness
    checks of one complex hand to buchberger."""
    calls = []
    real = homology.buchberger

    def recording(vecs, order, known=()):
        calls.append((list(vecs), order, list(known)))
        return real(vecs, order, known=known)
    with monkeypatch.context() as m:
        m.setattr(homology, "buchberger", recording)
        verify._closure_complex(name, f, char)
        verify._exactness_check(name, f, char)
    return calls


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_buchberger_matches_reference_on_the_existing_inputs(char):
    for vecs, order in existing_inputs(char):
        assert buchberger(vecs, order) == buchberger_reference(vecs, order)


@pytest.mark.parametrize("char", [0, 2, 32003])
@pytest.mark.parametrize("name", ["precplx", "seq32", "seq43"])
@pytest.mark.parametrize("f", [4, 5])
def test_buchberger_with_a_known_basis_matches_reference(f, name, char,
                                                         monkeypatch):
    """Each span and kernel input of the closure and exactness checks,
    as the flat list known + vecs: the same list as the reference.  With
    the quotient's basis installed as known: no pair of two known
    elements, and the same reduced basis as the reference."""
    calls = suite_inputs(name, f, char, monkeypatch)
    assert sum(1 for *_, known in calls if known) >= 2
    real_spair = gbengine.spair_vec
    for vecs, order, known in calls:
        flat = known + vecs
        want = buchberger_reference(flat, order)
        assert buchberger(flat, order) == want
        pairs = []

        def spying(gi, gj, *args):
            pairs.append((gi, gj))
            return real_spair(gi, gj, *args)
        with monkeypatch.context() as m:
            m.setattr(gbengine, "spair_vec", spying)
            got = buchberger(vecs, order, known=known)
        assert got[:len(known)] == known
        seen = set(known)
        assert not any(gi in seen and gj in seen for gi, gj in pairs)
        assert interreduce(got, order) == interreduce(want, order)


def _old_span_basis(C, rank, cols, twists):
    """ModuleSpan._G as it was: the quotient generators times each cover
    vector flattened into the columns, through the reference."""
    ring = C.ring
    zero = ring.zero()
    qcols = [[q if r == i else zero for r in range(rank)]
             for q in C.quotient for i in range(rank)]
    order = FreeModuleOrder(ring, rank, twists=twists)
    vecs = [vec_of_entries(enumerate(c), order) for c in list(cols) + qcols]
    G = buchberger_reference([v for v in vecs if v], order)
    return interreduce(G, order)


@pytest.mark.parametrize("char", [0, 2, 32003])
@pytest.mark.parametrize("name", ["precplx", "seq32", "seq43"])
@pytest.mark.parametrize("f", [4, 5])
def test_module_spans_of_the_suites_keep_their_reduced_basis(f, name, char,
                                                             monkeypatch):
    """Every term span the closure and exactness checks build has the
    reduced basis the flattened quotient columns gave it."""
    built = []
    real_complex = verify.build_complex
    real_init = homology.ModuleSpan.__init__

    def init(self, ring, rank, cols, twists=None, quotient=None):
        real_init(self, ring, rank, cols, twists=twists, quotient=quotient)
        if quotient is not None:
            built.append((self, cols, twists))

    complexes = []

    def building(name, ring):
        complexes.append(real_complex(name, ring))
        return complexes[-1]
    monkeypatch.setattr(verify, "build_complex", building)
    monkeypatch.setattr(homology.ModuleSpan, "__init__", init)
    verify._closure_complex(name, f, char)
    verify._exactness_check(name, f, char)
    C = complexes[0]
    spans = len(C.maps) - 1 + len(C.exact_positions)
    assert len(built) == spans
    for span, cols, twists in built:
        assert span._G == _old_span_basis(C, span.order.rank, cols, twists)
