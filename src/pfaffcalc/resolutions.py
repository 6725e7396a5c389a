"""Graded free resolutions and Betti tables.

A `FreeComplex` keeps each differential as engine vecs, the one
representation the whole pipeline works on: levels[k] = (order_k,
columns of d_{k+1} as vecs over order_k), each vec one flat tuple (k0,
c0, k1, c1, ...) of keys and coefficients (see `gbengine`), so a frame
or a minimal complex holds one tuple per column and none per term.  A
complex checks itself when built (twist data, entry bidegrees, d o d = 0
by `composite`), and dense graded matrices exist only at the API edge:
they come in through `vecs_of_matrix`, and leave only through the
engine's one translation out of vecs (see `gbengine`), for a caller that
asks for polynomials; nothing here builds a matrix.  The loops here
decode a key inline, its component from order.comp_bits and its
monomial's offset against order.bases; a unit is a key equal to its
component's base key.

Two independent Betti routes are provided on purpose.  Both read one
Schreyer frame, the iterated-syzygy ladder under Schreyer orders that
`schreyer_frame` builds as a checked FreeComplex, which a caller that
wants both tables builds once and hands to each.  Ownership:
`strand_betti` reads a frame, `minimalize` consumes it, emptying each
level's vec list as it takes it over, so a caller that wants both
tables calls `strand_betti` first.  A consumed frame raises ValueError
wherever it is read again.

* ``minimalize`` contracts unit entries on one {key: coeff} dict per
  column in the frame's own keys (deterministic pivot order), level by
  level, finding each pivot row through one flat index per row (the
  column and key of each of its terms) rather than a key list per
  entry; each vec of the frame is freed as it is copied, each column
  dict once it is re-keyed, and each level of the minimal complex,
  built flat once final, keeps one coefficient object per value, as every
  frame level does from `interreduce`; the minimal complex is checked
  again; ``free_resolution`` is this route on a presentation, and the
  one place that caps the length (ResolutionTruncated beyond max_len);
  every other caller reads the length off the result;
* ``strand_betti`` never minimalizes: it reads the minimal Betti numbers
  off the non-minimal frame as dimensions of constant-strand homology,
  the frame's generator table less the rank of each constant strand at
  both of its ends.  A strand is the constant entries of a level's
  columns of one twist, kept as sparse columns {row: coeff}
  (bihomogeneity puts each in a row of its column's twist), and its
  rank comes from eliminating those columns in place; no dense block is
  built.  ``ladder_betti`` is this route on a presentation.

Both must agree; tests compare them.
"""

import gc
from heapq import heapify, heappop, heappush
from itertools import chain

from .betti import BettiTable
from .gbengine import (FreeModuleOrder, vec_bidegs, vec_of_entries,
                       schreyer_resolution)


class ResolutionTruncated(Exception):
    """A resolution did not finish within the requested length."""


_CONSUMED = "the frame was consumed by minimalize"


# -- dense matrices in --------------------------------------------------------

def vecs_of_matrix(M):
    """Columns of a graded matrix as engine vecs, plus the ambient order."""
    order = FreeModuleOrder(M.ring, M.nrows, twists=M.row_degs)
    return [vec_of_entries(enumerate(col), order)
            for col in M.columns()], order


# -- invariants of a chain of vecs --------------------------------------------

def composite(v, order_next, G, order, field):
    """The image of the vec v over order_next, as a vec over order, where
    component i of order_next stands for the vec G[i] over order.  Each
    term m*eps_i of v contributes G[i] shifted by m; coefficients are
    summed unreduced and reduced once at the end, and zero sums are
    dropped.  The shift is read off the key without decoding m: key -
    bases_next[i] is (m - one) << mshift_next, and moff(m) over order is
    that number shifted down to order's mshift, so order_next's mshift
    must not be below order's."""
    mask, shift, top = order_next.comp_bits
    bases = order_next.bases
    down = order_next.mshift - order.mshift
    if down < 0:
        raise ValueError("order_next packs its monomials below order's")
    acc = {}
    get = acc.get
    it = iter(v)
    for key, c in zip(it, it):
        i = top - ((key & mask) >> shift)
        off = (key - bases[i]) >> down
        git = iter(G[i])
        for kg, cg in zip(git, git):
            kk = kg + off
            acc[kk] = get(kk, 0) + c * cg
    p = field.char
    terms = [(k, x % p) for k, x in acc.items() if x % p] if p else \
        [(k, x) for k, x in acc.items() if x]
    return tuple(chain.from_iterable(sorted(terms, reverse=True)))


def _check_chain(levels, twists, field):
    """The FreeComplex invariants on a chain given as engine vecs.

    levels[k] = (order_k, columns of d_{k+1} as vecs over order_k), and
    component i of order_{k+1} stands for column i of level k.  Checked:
    order_k carries the twists of F_k and level k has one column per
    generator of F_{k+1}, every entry has the bidegree its row and column
    twists demand, and d_{k+1} o d_{k+2} = 0, by pushing each column of
    level k+1 through the columns of level k."""
    for k, (order, vecs) in enumerate(levels):
        if order.twists != tuple(map(tuple, twists[k])) or \
                len(vecs) != len(twists[k + 1]):
            raise ValueError("differential %d does not match the twist "
                             "data" % (k + 1,))
        for j, (got, want) in enumerate(zip(vec_bidegs(vecs, order),
                                            map(tuple, twists[k + 1]))):
            if got is not None and got != want:
                raise ValueError("column %d of differential %d has bidegree "
                                 "%s, expected %s" % (j, k + 1, got, want))
    for k in range(len(levels) - 1):
        order, G = levels[k]
        order_next, H = levels[k + 1]
        for v in H:
            if composite(v, order_next, G, order, field):
                raise ValueError("composite d_%d o d_%d is nonzero"
                                 % (k + 1, k + 2))


# -- free complexes -----------------------------------------------------------

class FreeComplex:
    """A chain F_0 <- F_1 <- ... of graded free modules.

    twists[i] lists the generator bidegrees of F_i; levels[i] = (order_i,
    list of the columns of d_{i+1}: F_{i+1} -> F_i as vecs over order_i).
    Invariants, checked on construction: the differentials match the
    twist data, and consecutive composites are identically zero.  A chain
    is never cut short: a resolution that would be raises
    ResolutionTruncated instead.  `strand_betti` reads a frame,
    `minimalize` consumes it: it empties the vec lists and sets
    `consumed`, after which `check`, `is_minimal` and `strand_betti`
    raise ValueError; so do they on another complex
    built on the same vec lists, `check` as a twist mismatch."""

    __slots__ = ("ring", "twists", "levels", "consumed")

    def __init__(self, ring, twists, levels):
        self.ring = ring
        self.twists = [list(tw) for tw in twists]
        self.levels = list(levels)
        if len(self.twists) != len(self.levels) + 1:
            raise ValueError("need exactly one twist list per module")
        self.consumed = False
        self.check()

    @property
    def length(self):
        return len(self.twists) - 1

    def _check_unconsumed(self):
        """Raise ValueError if `minimalize` consumed this complex, or
        emptied vec lists it shares with another complex: until then
        every level holds one vec per generator of the next module."""
        if self.consumed:
            raise ValueError(_CONSUMED)
        for k, (_, vecs) in enumerate(self.levels):
            n = len(self.twists[k + 1])
            if len(vecs) != n:
                raise ValueError("%s: level %d holds %d of its %d columns"
                                 % (_CONSUMED, k, len(vecs), n))

    def check(self):
        if self.consumed:
            raise ValueError(_CONSUMED)
        _check_chain(self.levels, self.twists, self.ring.field)

    def betti(self):
        """Generator counts by (homological index, bidegree) — the Betti
        table when the complex is minimal."""
        B = BettiTable()
        for i, tw in enumerate(self.twists):
            for bd in tw:
                B.add(i, bd)
        return B

    def is_minimal(self):
        """No differential has a term with a constant monomial, a key
        equal to its component's base key; every entry of a checked
        complex is bihomogeneous, so such a term is a whole unit entry."""
        self._check_unconsumed()
        for order, vecs in self.levels:
            mask, shift, top = order.comp_bits
            bases = order.bases
            for v in vecs:
                for key in v[::2]:
                    if key == bases[top - ((key & mask) >> shift)]:
                        return False
        return True

    def __repr__(self):
        return "<FreeComplex ranks %r>" % ([len(t) for t in self.twists],)


def schreyer_frame(pres):
    """The Schreyer frame of coker(pres) as a checked FreeComplex: F_0
    from the rows of pres, F_k from the Schreyer order of level k, the
    last module from its columns.  `strand_betti` reads it and
    `minimalize` consumes it.  Raises ResolutionTruncated if the ladder
    does not end naturally within len(ring.names) + 2 levels."""
    cap = len(pres.ring.names) + 2
    vecs, order0 = vecs_of_matrix(pres)
    levels, truncated = schreyer_resolution([v for v in vecs if v], order0,
                                            pres.ring.field, max_levels=cap)
    if truncated:
        raise ResolutionTruncated(
            "syzygy ladder still active after %d levels" % cap)
    twists = [order.twists for order, _ in levels]
    if levels:
        last_order, last_els = levels[-1]
        twists.append(vec_bidegs(last_els, last_order))
    return FreeComplex(pres.ring, twists or [order0.twists], levels)


def free_resolution(pres, max_len):
    """The minimal graded free resolution of coker(pres): `minimalize`
    of its `schreyer_frame`.  If it is longer than max_len, a
    ResolutionTruncated error is raised — never a silently shortened
    complex.

    The frame is gone once `minimalize` returns, and one full collection
    then empties the interpreter's free lists, where up to 2000 freed
    tuples of each small length wait.  Over GF(p) a flat vec holds only
    ints, so the collector untracks it and full collections rarely run
    on their own; the frame's freed vecs would otherwise stay listed,
    scattered through the heap, and a caller resolving again would build
    its next frame around them, its peak RSS creeping from one resolve
    to the next."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    minC = minimalize(schreyer_frame(pres))[0]
    gc.collect()
    if minC.length > max_len:
        raise ResolutionTruncated(
            "minimal resolution has length %d, beyond the requested %d"
            % (minC.length, max_len))
    return minC


def minimalize(C):
    """(homotopy-equivalent minimal complex, its Betti table); C is
    consumed.

    Contracts unit entries one at a time: a constant entry u at (r, c)
    of d_k is removed by a Schur update of d_k, deleting row r / column
    c there, column r of d_{k-1} and row c of d_{k+1} (basis changes
    touch only the deleted row and column).  Pivot choice is the lowest
    (i, j) unit of the lowest k, so tables are reproducible.  The work
    runs on one {key: coeff} dict per column in the frame's own keys.

    Levels are taken over one at a time.  When level k's turn comes, its
    vecs are popped from its vec list one by one, each copied into a dict
    {key: coeff} (sharing the frame's key and coefficient objects) as it
    is popped, so the list ends empty and the frame's tuples are freed as
    they are copied, even if the caller still holds the frame.  Once
    level k is contracted, level k-1 of the minimal complex is final
    (only the contraction of level k can still delete its columns): each
    surviving term is re-keyed once into the minimal complex's
    FreeModuleOrder, each column dict dropped once re-keyed and its terms
    stored as one flat vec, with one coefficient object per value.  C is
    marked consumed, so its `check`, `is_minimal` and `strand_betti`
    raise ValueError from then on; C.twists stays readable.  The result
    is a checked FreeComplex."""
    C._check_unconsumed()
    C.consumed = True
    ring = C.ring
    n = len(C.levels)
    alive = [[True] * len(tw) for tw in C.twists]
    mats = [None] * n
    levels = []
    for k in range(n + 1):
        if k < n:
            order, vecs = C.levels[k]
            vecs.reverse()
            cols = []
            for _ in range(len(vecs)):
                it = iter(vecs.pop())
                cols.append(dict(zip(it, it)))
            mats[k] = cols
            _contract_units(mats, k, order, alive, ring.field)
        if k:
            levels.append(_minimal_level(mats[k - 1], C.levels[k - 1][0],
                                         C.twists[k - 1], alive[k - 1],
                                         alive[k], ring))
            mats[k - 1] = None
    twists = [[tw[i] for i, a in enumerate(al) if a]
              for tw, al in zip(C.twists, alive)]
    while len(twists) > 1 and not twists[-1]:
        twists.pop()
    out = FreeComplex(ring, twists, levels[:len(twists) - 1])
    if not out.is_minimal():
        raise AssertionError("unit entry survived minimalization")
    return out, out.betti()


def complex_betti(C):
    """Betti table of a minimal complex (errors on non-minimal input)."""
    if not C.is_minimal():
        raise ValueError("complex is not minimal; minimalize it first")
    return C.betti()


# -- minimalization on the frame's keys ---------------------------------------

def _contract_units(mats, k, order, alive, field):
    """Contract every unit entry of d_{k+1} in place.  mats[k][j] is
    column j of d_{k+1} as one {key: coefficient} dict in the keys of
    `order`; alive[k] and alive[k+1], the surviving generators of F_k and
    F_{k+1}, are updated, and each pivot row r empties column r of d_k,
    mats[k-1][r].  Every key of row i is ukey[i] + moff(m), ukey being
    order.bases, so a term ka of row i times a term kq of row r has the
    key ka + kq - ukey[r]: no monomial is decoded.  A unit is an entry
    holding ukey[i]; bihomogeneity makes that its only term.

    Pivots come off a heap keyed by the original (row, column) labels.
    Deleting rows and columns keeps the relative order of the survivors,
    so the heap's minimum is the lowest (i, j) unit of the current matrix; a
    Schur update can only create units below and to the right of its
    pivot, and those are pushed as they appear.  One pass over the
    columns builds the heap and the row index: rowcols[i] and rowkeys[i]
    list, side by side, the column and key of every term row i holds or
    gains.  Nothing is taken out of the index when a term cancels, so it
    may list a key its column no longer holds, or list one twice; the
    pivot row is read by popping each listed key from its column, and a
    key that is not there is skipped.  Each entry's value is independent
    of the order its terms are read in, so the output is too.  Row c of
    d_{k+2}, which dies with the pivot column c of d_{k+1}, is skipped by
    `alive` when its level's turn comes, and so is it when the level is
    re-keyed."""
    p = field.char
    inv = field.inv
    cols = mats[k]
    mask, shift, top = order.comp_bits
    ukey = order.bases
    alive_k, alive_next = alive[k], alive[k + 1]
    rowcols = [[] for _ in ukey]
    rowkeys = [[] for _ in ukey]
    heap = []
    for j, col in enumerate(cols):
        for key in col:
            i = top - ((key & mask) >> shift)
            if alive_k[i]:
                rowcols[i].append(j)
                rowkeys[i].append(key)
                if key == ukey[i]:
                    heap.append((i, j))
    heapify(heap)
    while heap:
        r, c = heappop(heap)
        if not (alive_k[r] and alive_next[c]):
            continue
        pivcol = cols[c]
        rone = ukey[r]
        u = pivcol.get(rone)
        if u is None:
            continue
        uinv = inv(u)
        # entry (i, j) -= a * u^-1 * q for a = entry (i, c) and
        # q = entry (r, j)
        facs = {}
        for ka, ca in pivcol.items():
            i = top - ((ka & mask) >> shift)
            if i != r and alive_k[i]:
                facs.setdefault(i, []).append((ka - rone, -ca * uinv))
        pivrow = {}
        for j, kq in zip(rowcols[r], rowkeys[r]):
            if j != c:
                cq = cols[j].pop(kq, None)
                if cq is not None:
                    pivrow.setdefault(j, []).append((kq, cq))
        for i, fi in facs.items():
            rc, rk = rowcols[i], rowkeys[i]
            ui = ukey[i]
            for j, q in pivrow.items():
                col = cols[j]
                get = col.get
                for base, nfac in fi:
                    for kq, cq in q:
                        m = base + kq
                        x = get(m)
                        y = nfac * cq if x is None else x + nfac * cq
                        if p:
                            y %= p
                        if y:
                            if x is None:
                                rc.append(j)
                                rk.append(m)
                            col[m] = y
                        else:   # x is there: nfac * cq alone is nonzero
                            del col[m]
                if ui in col:
                    heappush(heap, (i, j))
        # delete row r and column c of d_{k+1}, and column r of d_k
        rowcols[r] = rowkeys[r] = None
        cols[c] = {}
        alive_k[r] = alive_next[c] = False
        if k > 0:
            mats[k - 1][r] = {}


def _minimal_level(cols, order, row_twists, alive_rows, alive_cols, ring):
    """Level k of the minimal complex from the contracted columns of
    d_{k+1} over `order`: (FreeModuleOrder of the surviving rows, the
    surviving columns as vecs over it).  A term of row i, order.bases[i]
    + ((m - one) << mshift), goes to new_order.key(pos, m) = outbase[i] +
    (m - one), outbase[i] = new_order.bases[pos], pos its surviving row.  Each column dict is dropped from
    `cols` once it is re-keyed, and the level keeps one coefficient
    object per value."""
    keep = [i for i, a in enumerate(alive_rows) if a]
    new_order = FreeModuleOrder(ring, len(keep),
                                twists=[row_twists[i] for i in keep])
    mask, shift, top = order.comp_bits
    mshift = order.mshift
    ukey = order.bases
    outbase = [None] * order.rank
    for pos, i in enumerate(keep):
        outbase[i] = new_order.bases[pos]
    canon = {}.setdefault
    vecs = []
    for j, a in enumerate(alive_cols):
        col = cols[j]
        cols[j] = None
        if not a:
            continue
        terms = []
        for key, c in col.items():
            i = top - ((key & mask) >> shift)
            base = outbase[i]
            if base is not None:
                terms.append((base + ((key - ukey[i]) >> mshift),
                              canon(c, c)))
        terms.sort(reverse=True)
        vecs.append(tuple(chain.from_iterable(terms)))
    return new_order, vecs


# -- Betti numbers straight from the ladder ----------------------------------

def _strand_ranks(order, vecs, col_twists, field):
    """{bidegree: rank of the constant strand of d_{k+1} there}, for one
    level (order_k, vecs) whose columns have the twists col_twists.  A
    checked complex has bihomogeneous entries, so a constant entry sits in
    a row of its column's own bidegree: grouping the columns' constant
    entries, as sparse columns {row: coeff}, by column twist gives the
    strands."""
    mask, shift, top = order.comp_bits
    bases = order.bases
    strands = {}
    for v, bd in zip(vecs, col_twists):
        col = {}
        it = iter(v)
        for key, c in zip(it, it):
            i = top - ((key & mask) >> shift)
            if key == bases[i]:
                col[i] = c
        if col:
            strands.setdefault(bd, []).append(col)
    return {bd: _sparse_rank(cols, field) for bd, cols in strands.items()}


def _sparse_rank(cols, field):
    """Rank of the sparse columns {row: coeff}, which are eliminated in
    place: a column is reduced by the pivot at its lowest row until it
    vanishes or its lowest row has no pivot yet, and then becomes that
    row's pivot.  Entries are reduced mod p when p > 0."""
    p = field.char
    pivots = {}  # lowest row -> (pivot column, inverse of its entry there)
    for col in cols:
        while col:
            r = min(col)
            if r not in pivots:
                pivots[r] = (col, field.inv(col[r]))
                break
            piv, uinv = pivots[r]
            f = col[r] * uinv
            for i, v in piv.items():
                x = col.get(i, 0) - f * v
                if p:
                    x %= p
                if x:
                    col[i] = x
                else:   # i is in col: f * v alone is nonzero
                    del col[i]
    return len(pivots)


def ladder_betti(pres):
    """Minimal bigraded Betti numbers of coker(pres): `strand_betti` of
    its `schreyer_frame`."""
    return strand_betti(schreyer_frame(pres))


def strand_betti(C):
    """The constant-strand route: minimal bigraded Betti numbers read
    directly off the non-minimal complex C, a Schreyer frame.

    Starting from C's generator table, the rank of each constant strand
    of d_{k+1} is taken off its bidegree at levels k and k+1; no
    minimalization is performed, and C is left as it was.  A complex
    that `minimalize` consumed raises ValueError."""
    C._check_unconsumed()
    B = C.betti()
    for k, (order, vecs) in enumerate(C.levels):
        for bd, r in _strand_ranks(order, vecs, C.twists[k + 1],
                                   C.ring.field).items():
            B.add(k, bd, -r)
            B.add(k + 1, bd, -r)
    if any(c < 0 for c in B.data.values()):
        raise AssertionError("negative strand homology dimension")
    return B
