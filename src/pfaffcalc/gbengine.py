"""Groebner machinery for submodules of graded free modules.

Terms of a free module R^r are packed into single integers the same way
ring monomials are (see `monomials`): the component index sits above the
monomial bits, complemented so that integer comparison realizes a
position-over-term order (earlier basis vectors are greater).  Syzygy
levels use Schreyer orders that embed the parent level's keys, so every
level of a free resolution runs on the identical reduction code path.

A module element ("vec") is a tuple of (key, coefficient) pairs sorted
descending by key.  The engine works on vecs; `vec_of_entries` and
`columns_of_vecs` are the one translation to and from Polynomial
columns: columns enter where a dense matrix comes in (`vecs_of_matrix`,
`homology`'s spans and kernels) and leave only where a caller asks for
polynomials.  `nf` and `spair_vec` sum into a dict {key: coeff}, and `nf`
pops the largest key left from a heap, so a reduction step costs one
dict probe per term of the reducer and never copies the rest of the vec.
"""

from functools import lru_cache
from heapq import heappop, heappush

from .rings import Polynomial

MAXC = 1 << 20          # component capacity of a position-over-term order
SBITS = 24              # index bits appended per Schreyer level
SMASK = (1 << SBITS) - 1


class FreeModuleOrder:
    """Position-over-term order on R^rank with one bidegree twist per
    component.  Keys: (MAXC - comp) << shift | monomial.

    mshift is the bit position of the scalar monomial inside a key (0
    here; Schreyer levels accumulate SBITS per level), so that
    multiplying a key by a monomial m is key + ((m - one) << mshift)."""

    __slots__ = ("ring", "rank", "twists", "codec", "one", "guards",
                 "shift", "_mask", "mshift")

    def __init__(self, ring, rank, twists=None):
        if rank >= MAXC:
            raise ValueError("free module rank exceeds the packed capacity")
        if twists is None:
            twists = ((0, 0),) * rank
        twists = tuple((int(a), int(b)) for a, b in twists)
        if len(twists) != rank:
            raise ValueError("need one twist per component")
        self.ring = ring
        self.rank = rank
        self.twists = twists
        self.codec = ring.codec
        self.one = self.codec.one
        self.guards = self.codec.guards
        self.shift = self.codec.nbits
        self._mask = (1 << self.shift) - 1
        self.mshift = 0

    def key(self, comp, mono):
        return ((MAXC - comp) << self.shift) | mono

    def comp(self, key):
        return MAXC - (key >> self.shift)

    def mono(self, key):
        return key & self._mask

    def moff(self, m):
        """Additive key offset realizing multiplication by the scalar
        monomial m."""
        return m - self.one

    def divides(self, b, a):
        """Does term key b divide term key a (same component, monomial
        divisibility)?"""
        return (a >> self.shift) == (b >> self.shift) and \
            ((a - b + self.one) & self.guards) == 0

    def quot(self, a, b):
        """Scalar monomial a/b for same-component keys with b | a."""
        return a - b + self.one


class SchreyerOrder:
    """Order on the syzygy module of a basis G inside a parent order:
    m*eps_i compares by the parent key of lt(m*g_i); ties go to the
    smaller index i.  anchors[i] = parent key of lt(g_i); twists[i] =
    bidegree of g_i.

    Keys: (parent key of lt(m*g_i)) << SBITS | (SMASK - i).  The scalar
    monomial m therefore sits mshift = parent.mshift + SBITS bits up, and
    multiplying a key by m adds (m - one) << mshift -- at every nesting
    depth, since parent keys place their own monomial at parent.mshift."""

    __slots__ = ("parent", "ring", "rank", "anchors", "twists", "codec",
                 "one", "guards", "mshift", "bases")

    def __init__(self, parent, anchors, twists):
        if len(anchors) > SMASK:
            raise ValueError("too many basis elements for one Schreyer level")
        if len(anchors) != len(twists):
            raise ValueError("need one twist per anchor")
        self.parent = parent
        self.ring = parent.ring
        self.rank = len(anchors)
        self.anchors = tuple(anchors)
        self.twists = tuple((int(a), int(b)) for a, b in twists)
        self.codec = parent.codec
        self.one = parent.one
        self.guards = parent.guards
        self.mshift = parent.mshift + SBITS
        self.bases = tuple((a << SBITS) | (SMASK - i)
                           for i, a in enumerate(self.anchors))

    def key(self, comp, mono):
        return self.bases[comp] + ((mono - self.one) << self.mshift)

    def comp(self, key):
        return SMASK - (key & SMASK)

    def mono(self, key):
        return ((key - self.bases[SMASK - (key & SMASK)]) >> self.mshift) \
            + self.one

    def moff(self, m):
        return (m - self.one) << self.mshift

    def divides(self, b, a):
        return ((a ^ b) & SMASK) == 0 and \
            ((((a - b) >> self.mshift) + self.one) & self.guards) == 0

    def quot(self, a, b):
        return ((a - b) >> self.mshift) + self.one


# -- vec primitives ----------------------------------------------------------

def vec_of_entries(entries, order):
    """The vec with the given (row, Polynomial) entries, e.g.
    enumerate(column) for a matrix column."""
    acc = []
    for i, p in entries:
        acc.extend((order.key(i, m), c) for m, c in p.terms)
    acc.sort(reverse=True)
    return tuple(acc)


def columns_of_vecs(vecs, order):
    """Each vec as a column {row: Polynomial} of its nonzero entries."""
    ring = order.ring
    ocomp = order.comp
    omono = order.mono
    cols = []
    for v in vecs:
        col = {}
        for key, c in v:
            col.setdefault(ocomp(key), []).append((omono(key), c))
        cols.append({i: Polynomial(ring, tuple(terms))
                     for i, terms in col.items()})
    return cols


def vec_bidegs(vecs, order):
    """Bidegree of each bihomogeneous vec (None for the zero vec); raises
    on a vec with mixed terms.  Monomial bidegrees are memoized across
    all the vecs."""
    of_monomial = lru_cache(maxsize=None)(order.ring.bidegree_of_monomial)
    ocomp = order.comp
    omono = order.mono
    twists = order.twists
    out = []
    for v in vecs:
        bd = None
        for k, _ in v:
            mx, mt = of_monomial(omono(k))
            ta, tb = twists[ocomp(k)]
            got = (mx + ta, mt + tb)
            if bd is None:
                bd = got
            elif got != bd:
                raise ValueError("vec is not bihomogeneous")
        out.append(bd)
    return out


def make_buckets(G, order, field):
    """Index a basis by leading component for divisor scans: comp ->
    list of (ltkey, inv(lc), terms, index)."""
    buckets = {}
    for idx, g in enumerate(G):
        bucket_insert(buckets, order, field, g, idx)
    return buckets


def bucket_insert(buckets, order, field, g, idx):
    k, c = g[0]
    buckets.setdefault(order.comp(k), []).append((k, field.inv(c), g, idx))


def nf(f, order, buckets, field, record=False, zero_only=False):
    """Full normal form of the vec f against the bucketed basis.

    Returns (remainder, quots): remainder is a descending tuple; quots
    (when record) maps basis index -> list of (monomial, coeff) with
    f = sum(quots * basis) + remainder.  With zero_only=True, returns as
    soon as an irreducible head proves the remainder nonzero, with a
    partial remainder: the terms reached so far, that head and the
    unreduced rest.  Keys enter the heap when they enter the dict; a
    popped key no longer in it is skipped."""
    p = field.char
    acc = dict(f)
    heap = [-k for k, _ in f]   # f descends, so this list is a heap
    rem = []
    quots = {} if record else None
    ocomp = order.comp
    odiv = order.divides
    oquot = order.quot
    moff = order.moff
    get = acc.get
    pop, push = heappop, heappush
    empty = ()
    while heap:
        k = -pop(heap)
        c = acc.pop(k, None)
        if c is None:
            continue
        for ent in buckets.get(ocomp(k), empty):
            if odiv(ent[0], k):
                break
        else:
            rem.append((k, c))
            if zero_only:
                rem.extend(sorted(acc.items(), reverse=True))
                return tuple(rem), quots
            continue
        lk, inv, g, gi = ent
        m = oquot(k, lk)
        cc = c * inv % p if p else c * inv
        if record:
            quots.setdefault(gi, []).append((m, cc))
        ncc = -cc
        off = moff(m)
        for kg, cg in g[1:]:
            kk = kg + off
            x = get(kk)
            if x is None:
                acc[kk] = ncc * cg % p if p else ncc * cg
                push(heap, -kk)
            else:
                y = x + ncc * cg
                if p:
                    y %= p
                if y:
                    acc[kk] = y
                else:
                    del acc[kk]
    return tuple(rem), quots


def spair_vec(gi, gj, ua, ub, order, field):
    """ua*gi/lc(gi) - ub*gj/lc(gj); the leading terms cancel exactly."""
    p = field.char
    inv_i = field.inv(gi[0][1])
    inv_j = field.inv(gj[0][1])
    offa = order.moff(ua)
    offb = order.moff(ub)
    acc = {k + offa: c * inv_i % p if p else c * inv_i for k, c in gi[1:]}
    get = acc.get
    ninv = -inv_j
    for k, c in gj[1:]:
        kk = k + offb
        y = get(kk, 0) + ninv * c
        if p:
            y %= p
        if y:
            acc[kk] = y
        else:
            del acc[kk]
    return sorted(acc.items(), reverse=True), inv_i, inv_j


# -- Buchberger --------------------------------------------------------------

def _divisibility_minimal(cand, divides):
    """The candidates (degree, monomial, ...), sorted, whose monomial no
    earlier candidate's divides: the divisibility-minimal monomials, the
    first of equal ones.  Sorting puts every divisor of a monomial
    before it, so each candidate is tested only against those kept."""
    cand.sort()
    kept = []
    for c in cand:
        m = c[1]
        for k in kept:
            if divides(k[1], m):
                break
        else:
            kept.append(c)
    return kept


def buchberger(vecs, order, field, known=()):
    """Groebner basis of the submodule generated by `known` and `vecs`,
    as a list of vecs (leading coefficients arbitrary) that starts with
    `known` as given.

    `known` must be a Groebner basis of its own span, of nonzero vecs
    (say, a reduced basis placed in each of several components).  Its
    elements are installed unreduced and no pair of two of them is ever
    formed: each such pair reduces to zero against `known` alone, so it
    counts as treated, and the pruning below stays sound.

    Pairs only ever join elements of one leading component.  A new
    element is paired with the earlier elements of its own component,
    pruned by Gebauer-Moeller multiple elimination (plus the coprime
    criterion on rank-1 scalar input), and the chain criterion scans
    only its component's pending pairs."""
    codec = order.codec
    lcm, divides = codec.lcm, codec.divides
    scalar = isinstance(order, FreeModuleOrder) and order.rank == 1

    G = []
    comps = []      # leading component of each element
    monos = []      # leading monomial of each element
    members = {}    # component -> indices of its elements, ascending
    pending = {}    # component -> {(i, j): lcm} of its live pairs
    buckets = {}
    heap = []

    def install(g):
        s = len(G)
        G.append(g)
        k = g[0][0]
        ct = order.comp(k)
        comps.append(ct)
        monos.append(order.mono(k))
        bucket_insert(buckets, order, field, g, s)
        return s, ct, members.setdefault(ct, [])

    def add_pairs(t, ct, mine):
        mt = monos[t]
        cand = []
        for i in mine:
            L = lcm(monos[i], mt)
            cand.append((codec.deg(L), L, i))
        kept = _divisibility_minimal(cand, divides)
        if scalar:
            kept = [c for c in kept if not codec.coprime(monos[c[2]], mt)]
        # chain criterion on pending pairs: lt(t) divides their lcm
        # and both new lcms differ from the old one
        live = pending.setdefault(ct, {})
        for (i, j), Lij in list(live.items()):
            if divides(mt, Lij) and lcm(monos[i], mt) != Lij and \
                    lcm(monos[j], mt) != Lij:
                del live[(i, j)]
        a, b = order.twists[ct]
        for dL, L, i in kept:
            live[(i, t)] = L
            heappush(heap, (dL + a + b, t, i))
        mine.append(t)

    for g in known:
        s, ct, mine = install(tuple(g))
        mine.append(s)

    for v in vecs:
        v = tuple(v)
        if not v:
            continue
        rem, _ = nf(v, order, buckets, field)
        if rem:
            add_pairs(*install(rem))

    while heap:
        _, j, i = heappop(heap)
        L = pending[comps[j]].pop((i, j), None)
        if L is None:
            continue
        ua = codec.div(L, monos[i])
        ub = codec.div(L, monos[j])
        sp, _, _ = spair_vec(G[i], G[j], ua, ub, order, field)
        rem, _ = nf(sp, order, buckets, field)
        if rem:
            add_pairs(*install(rem))
    return G


def interreduce(G, order, field):
    """Reduce a GB to a monic, auto-reduced one: drop elements whose
    leading term is divisible by another's, then fully reduce each
    survivor against the rest.  The result is still a GB of the same
    submodule, sorted descending by leading key.

    One bucket index (as in make_buckets: leading component -> list of
    (ltkey, inv(lc), vec, idx)) is built per call, in ascending
    leading-key order, and serves both steps.  A leading term is tested
    only against the survivors of its own component.  To reduce a
    survivor, its entry is taken out of its bucket, the vec is reduced
    against everything left, and the entry goes back at the same position
    holding the reduced vec, so later reductions in the same pass use it.
    Passes repeat until one changes nothing."""
    ocomp = order.comp
    odiv = order.divides
    buckets = {}
    slots = []   # (bucket, position) of each survivor
    for g in sorted(G, key=lambda g: g[0][0]):
        k = g[0][0]
        comp = ocomp(k)
        if any(odiv(ent[0], k) for ent in buckets.get(comp, ())):
            continue
        bucket_insert(buckets, order, field, g, len(slots))
        slots.append((buckets[comp], len(buckets[comp]) - 1))
    changed = True
    while changed:
        changed = False
        for bucket, pos in slots:
            ent = bucket.pop(pos)
            g = ent[2]
            rem, _ = nf(g, order, buckets, field)
            if rem != g:
                if not rem or rem[0][0] != ent[0]:
                    raise AssertionError("interreduction destroyed a leading term")
                ent = (ent[0], ent[1], rem, ent[3])
                changed = True
            bucket.insert(pos, ent)
    one = field.one()
    fmul = field.mul
    out = []
    for ent in sorted((bucket[pos] for bucket, pos in slots),
                      key=lambda ent: ent[0], reverse=True):
        inv, g = ent[1], ent[2]
        if g[0][1] == one:
            out.append(tuple(g))
        else:
            out.append(tuple((kk, fmul(cc, inv)) for kk, cc in g))
    return out


# -- Schreyer levels ---------------------------------------------------------

def schreyer_pairs(G, order):
    """The divisibility-minimal S-pair set for one syzygy level.

    For each i, among the quotient monomials u_ij = lcm(lt_i, lt_j)/lt_i
    over all j > i with matching lead component, only the divisibility-
    minimal ones are kept (one representative among equals).  The
    syzygies of the kept pairs have leading terms u_ij*eps_i generating
    the full leading-term module of the syzygy module, so they form a
    Groebner basis of it under the Schreyer order.
    Returns a list of (i, j, ua, ub)."""
    codec = order.codec
    n = len(G)
    comps = [order.comp(g[0][0]) for g in G]
    monos = [order.mono(g[0][0]) for g in G]
    by_comp = {}
    for i, c in enumerate(comps):
        by_comp.setdefault(c, []).append(i)
    out = []
    for c in sorted(by_comp):
        idxs = by_comp[c]
        for pos, i in enumerate(idxs):
            cand = []
            for j in idxs[pos + 1:]:
                L = codec.lcm(monos[i], monos[j])
                u = codec.div(L, monos[i])
                cand.append((codec.deg(u), u, j, L))
            for du, u, j, L in _divisibility_minimal(cand, codec.divides):
                out.append((i, j, u, codec.div(L, monos[j])))
    return out


def schreyer_level(G, order, field, pairs):
    """Syzygies of the GB G, as a GB under the induced Schreyer order;
    pairs is schreyer_pairs(G, order).

    Returns (taus, next_order).  Each tau is a vec over next_order; its
    leading term is u_ij * eps_i by construction (asserted)."""
    anchors = [g[0][0] for g in G]
    nxt = SchreyerOrder(order, anchors, vec_bidegs(G, order))
    buckets = make_buckets(G, order, field)
    p = field.char
    nkey = nxt.key
    taus = []
    for (i, j, ua, ub) in pairs:
        sp, inv_i, inv_j = spair_vec(G[i], G[j], ua, ub, order, field)
        rem, quots = nf(sp, order, buckets, field, record=True)
        if rem:
            raise AssertionError("S-pair of a Groebner basis did not reduce to zero")
        # components differ, so neither entry is zero
        acc = {nkey(i, ua): inv_i, nkey(j, ub): (-inv_j) % p if p else -inv_j}
        for gi, terms in quots.items():
            for m, c in terms:
                k = nkey(gi, m)
                y = acc.get(k, 0) - c
                if p:
                    y %= p
                if y:
                    acc[k] = y
                else:
                    del acc[k]
        tau = tuple(sorted(acc.items(), reverse=True))
        if tau[0][0] != nxt.key(i, ua):
            raise AssertionError("Schreyer leading term mismatch")
        taus.append(tau)
    taus.sort(key=lambda v: v[0][0], reverse=True)
    return taus, nxt


def schreyer_resolution(vecs, order0, field, max_levels):
    """Iterated syzygies of the submodule generated by `vecs` inside the
    free module described by order0.

    Returns (levels, truncated): levels[k] = (ambient_order, elements);
    levels[0] holds the reduced GB of the input submodule, levels[k+1]
    the reduced GB of the syzygies of levels[k] (both from interreduce).
    The ladder stops when a level has no same-component pairs left;
    truncated reports stopping at max_levels instead."""
    G = interreduce(buchberger(vecs, order0, field), order0, field)
    if not G:
        return [], False
    levels = [(order0, G)]
    while True:
        order_k, Gk = levels[-1]
        pairs = schreyer_pairs(Gk, order_k)
        if not pairs:
            return levels, False
        if len(levels) >= max_levels:
            return levels, True
        taus, nxt = schreyer_level(Gk, order_k, field, pairs)
        taus = interreduce(taus, nxt, field)
        if not taus:
            return levels, False
        levels.append((nxt, taus))
