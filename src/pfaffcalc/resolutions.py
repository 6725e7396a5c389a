"""Graded free resolutions and Betti tables.

A `FreeComplex` keeps each differential as engine vecs, the one
representation the whole pipeline works on: levels[k] = (order_k,
columns of d_{k+1} as vecs over order_k).  It checks itself when built
(twist data, entry bidegrees, d o d = 0 by `composite`), and dense
graded matrices exist only at the API edge: `FreeComplex.of_matrices`
takes them in, and reading `diffs`, which only callers do, builds them.

Two independent Betti routes are provided on purpose.  Both read one
Schreyer frame, the iterated-syzygy ladder under Schreyer orders that
`schreyer_frame` builds, which a caller that wants both tables builds
once and hands to each:

* ``minimal_resolution`` wraps the frame as a (checked) FreeComplex and
  returns ``minimalize`` of it: unit entries are contracted on packed
  terms (deterministic pivot order) and the minimal complex is checked
  again; ``free_resolution`` is this route on a presentation;
* ``strand_betti`` never minimalizes: it reads the minimal Betti numbers
  off the non-minimal frame as dimensions of constant-strand homology
  (number of generators in a bidegree minus the ranks of the incoming
  and outgoing constant blocks); ``ladder_betti`` is this route on a
  presentation.

Both must agree; tests compare them.
"""

from heapq import heapify, heappop, heappush

from .constructions import GradedMatrix
from .betti import BettiTable
from .gbengine import (FreeModuleOrder, columns_of_vecs, vec_bidegs,
                       vec_of_entries, schreyer_resolution)


class ResolutionTruncated(Exception):
    """A resolution did not finish within the requested length."""


# -- vec <-> GradedMatrix ----------------------------------------------------

def vecs_of_matrix(M):
    """Columns of a GradedMatrix as engine vecs, plus the ambient order."""
    order = FreeModuleOrder(M.ring, M.nrows, twists=M.row_degs)
    return [vec_of_entries(enumerate(col), order)
            for col in M.columns()], order


# -- invariants of a chain of vecs --------------------------------------------

def composite(v, order_next, G, order, field):
    """The image of the vec v over order_next, as a vec over order, where
    component i of order_next stands for the vec G[i] over order.  Each
    term m*eps_i of v contributes G[i] shifted by m; coefficients are
    summed unreduced and reduced once at the end, and zero sums are
    dropped."""
    acc = {}
    get = acc.get
    ncomp = order_next.comp
    nmono = order_next.mono
    moff = order.moff
    for key, c in v:
        off = moff(nmono(key))
        for kg, cg in G[ncomp(key)]:
            kk = kg + off
            acc[kk] = get(kk, 0) + c * cg
    p = field.char
    terms = [(k, x % p) for k, x in acc.items() if x % p] if p else \
        [(k, x) for k, x in acc.items() if x]
    return tuple(sorted(terms, reverse=True))


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
    columns of d_{i+1}: F_{i+1} -> F_i as vecs over order_i).
    Invariants, checked on construction: the differentials match the
    twist data, and consecutive composites are identically zero.  A chain
    is never cut short: a resolution that would be raises
    ResolutionTruncated instead."""

    __slots__ = ("ring", "twists", "levels")

    def __init__(self, ring, twists, levels):
        self.ring = ring
        self.twists = [list(tw) for tw in twists]
        self.levels = list(levels)
        if len(self.twists) != len(self.levels) + 1:
            raise ValueError("need exactly one twist list per module")
        self.check()

    @classmethod
    def of_matrices(cls, ring, twists, diffs):
        """The complex whose differential d_{k+1} is the graded matrix
        diffs[k]."""
        levels = []
        for k, d in enumerate(diffs):
            if [list(d.row_degs), list(d.col_degs)] != \
                    [list(tw) for tw in twists[k:k + 2]]:
                raise ValueError("differential %d does not match the twist "
                                 "data" % (k + 1,))
            vecs, order = vecs_of_matrix(d)
            levels.append((order, vecs))
        return cls(ring, twists, levels)

    @property
    def diffs(self):
        """The differentials as graded matrices, built on each read."""
        zero = self.ring.zero()
        mats = []
        for (order, vecs), col_degs in zip(self.levels, self.twists[1:]):
            cols = columns_of_vecs(vecs, order)
            mats.append(GradedMatrix(self.ring, [[c.get(i, zero) for c in cols]
                                                 for i in range(order.rank)],
                                     order.twists, col_degs))
        return mats

    @property
    def length(self):
        return len(self.twists) - 1

    def check(self):
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
        """No differential has a term with a constant monomial; every
        entry of a checked complex is bihomogeneous, so such a term is a
        whole unit entry."""
        return not any(order.mono(key) == order.one
                       for order, vecs in self.levels
                       for v in vecs for key, _ in v)

    def __repr__(self):
        return "<FreeComplex ranks %r>" % ([len(t) for t in self.twists],)


def schreyer_frame(pres):
    """The Schreyer frame of coker(pres) as (levels, twists), the data of
    a FreeComplex: F_0 from the rows of pres, F_k from the Schreyer order
    of level k, the last module from its columns.  Both Betti routes
    read it and neither changes it.  Raises ResolutionTruncated if the
    ladder does not end naturally within len(ring.names) + 2 levels."""
    cap = len(pres.ring.names) + 2
    vecs, order0 = vecs_of_matrix(pres)
    levels, truncated = schreyer_resolution([v for v in vecs if v], order0,
                                            pres.ring.field, max_levels=cap)
    if truncated:
        raise ResolutionTruncated(
            "syzygy ladder still active after %d levels" % cap)
    if not levels:
        return levels, [list(order0.twists)]
    last_order, last_els = levels[-1]
    return levels, [list(order.twists) for order, _ in levels] + \
        [vec_bidegs(last_els, last_order)]


def free_resolution(pres, max_len):
    """The minimal graded free resolution of coker(pres), of length at
    most max_len: `minimal_resolution` of its `schreyer_frame`."""
    return minimal_resolution(schreyer_frame(pres), pres.ring, max_len)


def minimal_resolution(frame, ring, max_len):
    """The minimalizing route: the frame as a checked FreeComplex, which
    `minimalize` contracts.  If the minimal resolution turns out longer
    than max_len, a ResolutionTruncated error is raised — never a
    silently shortened complex."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    levels, twists = frame
    minC, _ = minimalize(FreeComplex(ring, twists, levels))
    if minC.length > max_len:
        raise ResolutionTruncated(
            "minimal resolution has length %d, beyond the requested %d"
            % (minC.length, max_len))
    return minC


def minimalize(C):
    """(homotopy-equivalent minimal complex, its Betti table).

    Contracts unit entries one at a time: a constant entry u at (r, c)
    of d_k is removed by a Schur update of d_k, deleting row r / column
    c there, column r of d_{k-1} and row c of d_{k+1} (basis changes
    touch only the deleted row and column).  Pivot choice is the lowest
    (i, j) unit of the lowest k, so tables are reproducible.  The work
    runs on the vecs' own terms; the result is a checked FreeComplex."""
    ring = C.ring
    mats = []
    for order, vecs in C.levels:
        cols = [{} for _ in vecs]
        for col, v in zip(cols, vecs):
            for key, c in v:
                col.setdefault(order.comp(key), {})[order.mono(key)] = c
        mats.append(cols)
    alive = _contract_units(mats, C.twists, ring.field, ring.codec.one)
    keep = [[i for i, a in enumerate(al) if a] for al in alive]
    twists = [[tw[i] for i in kp] for tw, kp in zip(C.twists, keep)]
    while len(twists) > 1 and not twists[-1]:
        twists.pop()
    levels = []
    for k in range(len(twists) - 1):
        pos = {i: p for p, i in enumerate(keep[k])}
        order = FreeModuleOrder(ring, len(twists[k]), twists=twists[k])
        levels.append((order, [
            tuple(sorted(((order.key(pos[i], m), c) for i, e in
                          mats[k][j].items() for m, c in e.items()),
                         reverse=True))
            for j in keep[k + 1]]))
    out = FreeComplex(ring, twists, levels)
    if not out.is_minimal():
        raise AssertionError("unit entry survived minimalization")
    return out, out.betti()


def complex_betti(C):
    """Betti table of a minimal complex (errors on non-minimal input)."""
    if not C.is_minimal():
        raise ValueError("complex is not minimal; minimalize it first")
    return C.betti()


# -- minimalization on engine terms ------------------------------------------

def _contract_units(mats, twists, field, one):
    """Contract every unit entry of a chain of sparse differentials in
    place; returns alive[k], the surviving generators of F_k.  mats[k][j]
    maps the rows of column j of d_{k+1} to its nonzero entries, each a
    {packed monomial: coefficient} dict.  A unit is an entry holding the
    constant monomial `one`; bihomogeneity makes that its only term.

    Pivots come off a heap keyed by the original (row, column) labels.
    Deleting rows and columns keeps the relative order of the survivors,
    so the heap's minimum is the lowest (i, j) unit of the current matrix; a
    Schur update can only create units below and to the right of its
    pivot, and those are pushed as they appear."""
    p = field.char
    alive = [[True] * len(tw) for tw in twists]
    rows = []   # rows[k][i]: columns of mats[k] with an entry in row i
    for k, cols in enumerate(mats):
        idx = [set() for _ in twists[k]]
        for j, col in enumerate(cols):
            for i in col:
                idx[i].add(j)
        rows.append(idx)

    for k, cols in enumerate(mats):
        rowidx = rows[k]
        heap = [(i, j) for j, col in enumerate(cols)
                for i, e in col.items() if one in e]
        heapify(heap)
        while heap:
            r, c = heappop(heap)
            if not (alive[k][r] and alive[k + 1][c]):
                continue
            pivcol = cols[c]
            u = pivcol.get(r)
            if u is None or one not in u:
                continue
            uinv = field.inv(u[one])
            pivrow = [(j, cols[j][r]) for j in rowidx[r] if j != c]
            for i, a in pivcol.items():
                if i == r:
                    continue
                # entry (i, j) -= a * u^-1 * q for q = entry (r, j)
                facs = [(ma - one, -ca * uinv) for ma, ca in a.items()]
                rowi = rowidx[i]
                for j, q in pivrow:
                    col = cols[j]
                    e = col.setdefault(i, {})
                    rowi.add(j)
                    for base, nfac in facs:
                        for mq, cq in q.items():
                            m = base + mq
                            y = e.get(m, 0) + nfac * cq
                            if p:
                                y %= p
                            if y:
                                e[m] = y
                            else:
                                del e[m]
                    if not e:
                        del col[i]
                        rowi.discard(j)
                    elif one in e:
                        heappush(heap, (i, j))
            # delete row r and column c of d_{k+1}
            for j in rowidx[r]:
                del cols[j][r]
            rowidx[r] = set()
            for i in pivcol:
                rowidx[i].discard(c)
            cols[c] = {}
            alive[k][r] = alive[k + 1][c] = False
            # column r of d_k and row c of d_{k+2}
            if k > 0:
                for i in mats[k - 1][r]:
                    rows[k - 1][i].discard(r)
                mats[k - 1][r] = {}
            if k + 1 < len(mats):
                for j in rows[k + 1][c]:
                    del mats[k + 1][j][c]
                rows[k + 1][c] = set()
    return alive


# -- Betti numbers straight from the ladder ----------------------------------

def _field_rank(rows, field):
    """Rank of a dense matrix given as lists of field elements."""
    if not rows:
        return 0
    rows = [row[:] for row in rows]
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if not field.is_zero(rows[i][c]):
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][c])
        base = rows[rank]
        for i in range(rank + 1, len(rows)):
            if not field.is_zero(rows[i][c]):
                f = field.mul(rows[i][c], inv)
                rowi = rows[i]
                for j in range(c, ncols):
                    rowi[j] = field.sub(rowi[j], field.mul(f, base[j]))
        rank += 1
        if rank == len(rows):
            break
    return rank


def _constant_strands(order, els, row_twists, col_twists, field):
    """For one ladder differential, the constant blocks by bidegree:
    {bidegree: rows list over row-indices with that twist}."""
    rows_at = {}
    for i, bd in enumerate(row_twists):
        rows_at.setdefault(bd, []).append(i)
    cols_at = {}
    for j, bd in enumerate(col_twists):
        cols_at.setdefault(bd, []).append(j)
    one = order.one
    strands = {}
    for bd, cols in cols_at.items():
        rows = rows_at.get(bd)
        if not rows:
            continue
        rowpos = {ri: p for p, ri in enumerate(rows)}
        zero = field.zero()
        block = [[zero] * len(cols) for _ in rows]
        for p, j in enumerate(cols):
            for key, c in els[j]:
                if order.mono(key) == one:
                    i = order.comp(key)
                    if i in rowpos:
                        block[rowpos[i]][p] = c
        strands[bd] = block
    return strands


def ladder_betti(pres):
    """Minimal bigraded Betti numbers of coker(pres): `strand_betti` of
    its `schreyer_frame`."""
    return strand_betti(schreyer_frame(pres), pres.ring.field)


def strand_betti(frame, field):
    """The constant-strand route: minimal bigraded Betti numbers read
    directly off the non-minimal frame.

    In each bidegree, beta_{k} = (generators of the frame's F_k there)
    minus the ranks of the incoming and outgoing constant strands; no
    minimalization is performed."""
    levels, twists = frame
    ranks = []  # ranks[k]: {bidegree: rank of the constant strand of d_{k+1}}
    for k, (order_k, els) in enumerate(levels):
        strands = _constant_strands(order_k, els, twists[k], twists[k + 1],
                                    field)
        ranks.append({bd: _field_rank(rows, field)
                      for bd, rows in strands.items()})
    B = BettiTable()
    for k, tw in enumerate(twists):
        counts = {}
        for bd in tw:
            counts[bd] = counts.get(bd, 0) + 1
        for bd, n in counts.items():
            r_out = ranks[k].get(bd, 0) if k < len(ranks) else 0
            r_in = ranks[k - 1].get(bd, 0) if k >= 1 else 0
            beta = n - r_out - r_in
            if beta < 0:
                raise AssertionError("negative strand homology dimension")
            if beta:
                B.add(k, bd, beta)
    return B
