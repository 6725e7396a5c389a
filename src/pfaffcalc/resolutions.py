"""Syzygies of graded matrices, graded free resolutions, and Betti
tables.

Two independent Betti routes are provided on purpose:

* ``free_resolution`` builds the iterated-syzygy ladder under Schreyer
  orders and keeps it as engine vecs: the d o d = 0 check runs on the
  vecs, the ladder is minimalized on sparse columns by contracting unit
  entries (deterministic pivot order), and only the minimal complex it
  returns is converted to graded matrices;
* ``ladder_betti`` never minimalizes: it reads the minimal Betti numbers
  off the non-minimal ladder as dimensions of constant-strand homology
  (number of generators in a bidegree minus the ranks of the incoming
  and outgoing constant blocks).

Both must agree; tests compare them.
"""

from heapq import heapify, heappop, heappush

from .rings import Polynomial
from .constructions import GradedMatrix
from .betti import BettiTable
from .gbengine import (FreeModuleOrder, poly_of_vec_component, vec_bideg,
                       make_buckets, nf, buchberger, schreyer_resolution)


class ResolutionTruncated(Exception):
    """A resolution did not finish within the requested length."""


# -- vec <-> GradedMatrix ----------------------------------------------------

def _vec_of_entries(entries, order):
    """The vec with the given (row, Polynomial) entries, e.g.
    enumerate(column) for a matrix column."""
    acc = []
    for i, p in entries:
        acc.extend((order.key(i, m), c) for m, c in p.terms)
    acc.sort(reverse=True)
    return tuple(acc)


def _vecs_of_matrix(M):
    """Columns of a GradedMatrix as engine vecs, plus the ambient order."""
    order = FreeModuleOrder(M.ring, M.nrows, twists=M.row_degs)
    return [_vec_of_entries(enumerate(col), order)
            for col in M.columns()], order


def _matrix_of_vecs(vecs, order, col_degs=None):
    """GradedMatrix with the given vecs as columns."""
    ring = order.ring
    if col_degs is None:
        col_degs = [vec_bideg(v, order) for v in vecs]
    ent = [[poly_of_vec_component(v, order, ring, i) for v in vecs]
           for i in range(order.rank)]
    return GradedMatrix(ring, ent, list(order.twists), list(col_degs))


# -- syzygies by division tracing --------------------------------------------

def syzygies(M):
    """A graded matrix whose columns generate ker(M : R^ncols -> R^nrows).

    Route: run the Buchberger loop with full division tracing.  With
    G = A * F (F the input columns, A the tracing rows) and F = B * G
    (each input re-divided by the final basis), the kernel is generated
    by the traced S-pair syzygies pushed through A together with the
    columns of Id - B*A.  Zero input columns contribute standard basis
    vectors."""
    ring = M.ring
    field = ring.field
    vecs, order = _vecs_of_matrix(M)
    live = [j for j, v in enumerate(vecs) if v]
    F = [vecs[j] for j in live]
    m = M.ncols
    sorder = FreeModuleOrder(ring, m, twists=M.col_degs)
    cols = []

    for j in range(m):
        if not vecs[j]:
            cols.append(((sorder.key(j, sorder.one), field.one()),))

    if F:
        G, arows, taus = buchberger(F, order, field, trace=True)
        buckets = make_buckets(G, order, field)

        def push_through_A(coeffs):
            # coeffs: dict basis-index -> Polynomial; returns the vec
            # sum_s coeffs[s] * (row s of A), in input coordinates.
            acc = {}
            for s, c in coeffs.items():
                for jloc, p in arows[s].items():
                    prod = c * p
                    if jloc in acc:
                        q = acc[jloc] + prod
                    else:
                        q = prod
                    if q.is_zero():
                        acc.pop(jloc, None)
                    else:
                        acc[jloc] = q
            out = []
            for jloc, p in acc.items():
                jg = live[jloc]
                out.extend((sorder.key(jg, mm), cc) for mm, cc in p.terms)
            out.sort(reverse=True)
            return tuple(out)

        for tau in taus:
            coeffs = {s: Polynomial(ring, tuple(sorted(terms, reverse=True)))
                      for s, terms in tau.items()}
            v = push_through_A(coeffs)
            if v:
                cols.append(v)

        for jloc, v in enumerate(F):
            rem, quots = nf(v, order, buckets, field, record=True)
            if rem:
                raise AssertionError("basis member failed to re-divide to zero")
            coeffs = {s: Polynomial(ring, tuple(sorted(terms, reverse=True)))
                      for s, terms in (quots or {}).items()}
            bav = push_through_A(coeffs)
            ej = ((sorder.key(live[jloc], sorder.one), field.one()),)
            diff = _vec_sub(ej, bav, field)
            if diff:
                cols.append(diff)

    return _matrix_of_vecs(cols, sorder)


def _vec_sub(a, b, field):
    """a - b for descending vecs."""
    out = {}
    for k, c in a:
        out[k] = c
    for k, c in b:
        if k in out:
            s = field.sub(out[k], c)
            if field.is_zero(s):
                del out[k]
            else:
                out[k] = s
        else:
            out[k] = field.neg(c)
    return tuple(sorted(out.items(), reverse=True))


# -- invariants of a chain of vecs --------------------------------------------

def _check_vec_degrees(vecs, order, col_degs, bideg):
    """Every term of column j lies in bidegree col_degs[j]: the monomial
    of a term in row i has bidegree col_degs[j] - twists[i].  `bideg` is
    a memoized bidegree_of_monomial."""
    twists = order.twists
    ocomp = order.comp
    omono = order.mono
    for j, v in enumerate(vecs):
        ca, cb = col_degs[j]
        for key, _ in v:
            i = ocomp(key)
            got = bideg(omono(key))
            want = (ca - twists[i][0], cb - twists[i][1])
            if got != want:
                raise ValueError("entry (%d,%d) has bidegree %s, expected %s"
                                 % (i, j, got, want))


def _composes_to_zero(v, order_next, G, order, field):
    """Does the vec v over order_next map to zero, where component i of
    order_next stands for the vec G[i] over order?  Each term m*eps_i of
    v contributes G[i] shifted by m; coefficients are summed unreduced
    and tested once at the end."""
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
    is_zero = field.is_zero
    return all(is_zero(x) for x in acc.values())


def _check_chain(levels, twists, field):
    """The FreeComplex invariants on a chain given as engine vecs.

    levels[k] = (order_k, columns of d_{k+1} as vecs over order_k), and
    component i of order_{k+1} stands for column i of level k.  Checked:
    order_k carries the twists of F_k and level k has one column per
    generator of F_{k+1}, every entry has the bidegree its row and column
    twists demand, and d_{k+1} o d_{k+2} = 0, by pushing each column of
    level k+1 through the columns of level k."""
    if not levels:
        return
    of_monomial = levels[0][0].ring.bidegree_of_monomial
    memo = {}

    def bideg(m):
        bd = memo.get(m)
        if bd is None:
            bd = memo[m] = of_monomial(m)
        return bd
    for k, (order, vecs) in enumerate(levels):
        if order.twists != tuple(map(tuple, twists[k])) or \
                len(vecs) != len(twists[k + 1]):
            raise ValueError("differential %d does not match the twist "
                             "data" % (k + 1,))
        _check_vec_degrees(vecs, order, twists[k + 1], bideg)
    for k in range(len(levels) - 1):
        order, G = levels[k]
        order_next, H = levels[k + 1]
        for v in H:
            if not _composes_to_zero(v, order_next, G, order, field):
                raise ValueError("composite d_%d o d_%d is nonzero"
                                 % (k + 1, k + 2))


# -- free complexes -----------------------------------------------------------

class FreeComplex:
    """A chain F_0 <- F_1 <- ... of graded free modules.

    twists[i] lists the generator bidegrees of F_i; diffs[i] is the
    graded matrix of d_{i+1}: F_{i+1} -> F_i.  Invariants (checked):
    differentials match the twist data, and consecutive composites are
    identically zero.  The check converts the matrices to engine vecs and
    runs the same sparse routine that checks the Schreyer ladder inside
    `free_resolution`.  `truncated` marks a chain cut off before its
    natural end; it is never set silently by the constructors here."""

    __slots__ = ("ring", "twists", "diffs", "truncated")

    def __init__(self, ring, twists, diffs, truncated=False, check=True):
        self.ring = ring
        self.twists = [list(tw) for tw in twists]
        self.diffs = list(diffs)
        self.truncated = bool(truncated)
        if len(self.twists) != len(self.diffs) + 1:
            raise ValueError("need exactly one twist list per module")
        if check:
            self.check()

    @property
    def length(self):
        return len(self.twists) - 1

    def check(self):
        levels = []
        for k, d in enumerate(self.diffs):
            if list(d.row_degs) != list(self.twists[k]) or \
                    list(d.col_degs) != list(self.twists[k + 1]):
                raise ValueError("differential %d does not match the twist "
                                 "data" % (k + 1,))
            vecs, order = _vecs_of_matrix(d)
            levels.append((order, vecs))
        _check_chain(levels, self.twists, self.ring.field)

    def betti(self):
        """Generator counts by (homological index, bidegree) — the Betti
        table when the complex is minimal."""
        B = BettiTable()
        for i, tw in enumerate(self.twists):
            for bd in tw:
                B.add(i, bd)
        return B

    def is_minimal(self):
        one = self.ring.codec.one
        return not any(_is_unit(e, one)
                       for d in self.diffs for row in d.entries for e in row)

    def __repr__(self):
        return "<FreeComplex ranks %r%s>" % (
            [len(t) for t in self.twists],
            " (truncated)" if self.truncated else "")


def _run_ladder(pres, cap):
    field = pres.ring.field
    vecs, order0 = _vecs_of_matrix(pres)
    vecs = [v for v in vecs if v]
    levels, truncated = schreyer_resolution(vecs, order0, field,
                                            max_levels=cap)
    return levels, truncated, order0


def _ladder_twists(levels, order0):
    """Generator bidegrees of every module of the ladder: F_0 from order0,
    F_k from the Schreyer order of level k, the last module from its
    columns."""
    twists = [list(order0.twists)]
    for k in range(1, len(levels)):
        twists.append(list(levels[k][0].twists))
    if levels:
        last_order, last_els = levels[-1]
        twists.append([vec_bideg(el, last_order) for el in last_els])
    return twists


def free_resolution(pres, max_len):
    """The minimal graded free resolution of coker(pres), of length at
    most max_len.

    Iterated Schreyer syzygies of the column module, kept as engine vecs
    over the target free module: d o d = 0 is checked on the vecs, the
    ladder is minimalized on sparse columns, and only the minimal complex
    is built from graded matrices.  If the ladder does not end naturally
    within a generous internal cap, or the minimal resolution turns out
    longer than max_len, a ResolutionTruncated error is raised — never a
    silently shortened complex."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    ring = pres.ring
    cap = max(max_len + 3, len(ring.names) + 2)
    levels, truncated, order0 = _run_ladder(pres, cap)
    if truncated:
        raise ResolutionTruncated(
            "syzygy ladder still active after %d levels" % cap)
    twists = _ladder_twists(levels, order0)
    _check_chain(levels, twists, ring.field)
    mats = [_columns_of_vecs(els, order) for order, els in levels]
    minC = _minimal_complex(ring, mats, twists, truncated=False)
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
    runs on sparse columns, the kernel `free_resolution` uses too."""
    mats = [[{i: p for i, p in enumerate(col) if not p.is_zero()}
             for col in d.columns()] for d in C.diffs]
    out = _minimal_complex(C.ring, mats, C.twists, truncated=C.truncated)
    return out, out.betti()


def complex_betti(C):
    """Betti table of a minimal complex (errors on non-minimal input)."""
    if not C.is_minimal():
        raise ValueError("complex is not minimal; minimalize it first")
    return C.betti()


# -- minimalization on sparse columns ----------------------------------------

def _columns_of_vecs(vecs, order):
    """Columns of one differential as {row: Polynomial} dicts."""
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


def _is_unit(p, one):
    """Is the Polynomial p a nonzero constant?"""
    return len(p.terms) == 1 and p.terms[0][0] == one


def _contract_units(mats, twists, field, one):
    """Contract every unit entry of a chain of sparse differentials, in
    place.  mats[k][j] maps the rows of d_{k+1}'s column j to their
    nonzero entries.  Returns alive[k], the surviving generators of F_k.

    Pivots come off a heap keyed by the original (row, column) labels.
    Deleting rows and columns keeps the relative order of the survivors,
    so the heap's minimum is the dense route's lowest (i, j) unit; a
    Schur update can only create units below and to the right of its
    pivot, and those are pushed as they appear."""
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
                for i, p in col.items() if _is_unit(p, one)]
        heapify(heap)
        while heap:
            r, c = heappop(heap)
            if not (alive[k][r] and alive[k + 1][c]):
                continue
            pivcol = cols[c]
            u = pivcol.get(r)
            if u is None or not _is_unit(u, one):
                continue
            uinv = field.inv(u.lc())
            pivrow = [(j, cols[j][r]) for j in rowidx[r] if j != c]
            for i, p in pivcol.items():
                if i == r:
                    continue
                fac = p.scale(uinv)
                rowi = rowidx[i]
                for j, q in pivrow:
                    col = cols[j]
                    old = col.get(i)
                    new = -(fac * q) if old is None else old - fac * q
                    if new.is_zero():
                        if old is not None:
                            del col[i]
                            rowi.discard(j)
                        continue
                    col[i] = new
                    rowi.add(j)
                    if _is_unit(new, one):
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


def _minimal_complex(ring, mats, twists, truncated):
    """Minimalize a chain of sparse differentials (see `minimalize`),
    check the result on engine vecs, and return it as a FreeComplex of
    graded matrices."""
    field = ring.field
    one = ring.codec.one
    alive = _contract_units(mats, twists, field, one)
    keep = [[i for i, a in enumerate(al) if a] for al in alive]
    twists = [[tw[i] for i in kp] for tw, kp in zip(twists, keep)]
    while len(twists) > 1 and not twists[-1]:
        twists.pop()
    zero = ring.zero()
    levels, entries = [], []
    for k in range(len(twists) - 1):
        pos = {i: p for p, i in enumerate(keep[k])}
        cols = [{pos[i]: e for i, e in mats[k][j].items()}
                for j in keep[k + 1]]
        if any(_is_unit(e, one) for col in cols for e in col.values()):
            raise AssertionError("unit entry survived minimalization")
        order = FreeModuleOrder(ring, len(twists[k]), twists=twists[k])
        levels.append((order, [_vec_of_entries(col.items(), order)
                               for col in cols]))
        entries.append([[col.get(i, zero) for col in cols]
                        for i in range(len(pos))])
    _check_chain(levels, twists, field)
    diffs = [GradedMatrix(ring, ent, twists[k], twists[k + 1], check=False)
             for k, ent in enumerate(entries)]
    return FreeComplex(ring, twists, diffs, truncated=truncated, check=False)


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


def ladder_betti(pres, cap=None):
    """Minimal bigraded Betti numbers of coker(pres), read directly off
    the non-minimal Schreyer ladder.

    In each bidegree, beta_{k} = (generators of the ladder's F_k there)
    minus the ranks of the incoming and outgoing constant strands; no
    minimalization is performed.  Raises ResolutionTruncated if the
    ladder does not end naturally within the cap."""
    ring = pres.ring
    field = ring.field
    if cap is None:
        cap = len(ring.names) + 2
    levels, truncated, order0 = _run_ladder(pres, cap)
    if truncated:
        raise ResolutionTruncated(
            "syzygy ladder still active after %d levels" % cap)
    twists = _ladder_twists(levels, order0)
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
