"""Degreewise linear-algebra oracle for graded Betti numbers.

A deliberately independent route: no Groebner bases, no S-pairs, no
division — only exact ranks and null spaces of multiplication matrices
on graded pieces, bidegree by bidegree up to total degree
MAX_TOTAL_DEGREE.

The tower is built level by level.  Level 1 is the column module of the
presentation; its graded pieces are spanned by monomial multiples of
the columns.  Minimal generators in each bidegree are found by graded
Nakayama: new generators = dim(piece) − dim(variables · previous
piece), with explicit representatives kept.  The next level is the
syzygy module of those representatives, whose graded pieces are null
spaces of the evaluation matrices; the same Nakayama count reads off
its Betti numbers, and so on until a level has no pieces under the cap.
Minimal generators never admit same-degree syzygies, so levels climb in
degree and the tower ends on its own.

Each piece is inserted from columns that can enlarge its span only.  A
basis element of a piece is kept as a label (g, m), the element m * g
for a generator g, so v * (g, m) is the label (g, v * m) and each label
is inserted once per bidegree.  Of the generators, only those of the
piece's own bidegree are inserted: a multiple m * g with deg m > 0 is
v * (m' * g), which lies in v times the piece one bidegree lower, and
that piece, complete because bidegrees are visited by increasing total
degree, has been inserted already.  The columns skipped are all
dependent, so the pivots, the chosen generators and every null space are
those of inserting every multiple.

The elimination builds no `Fraction`.  Over QQ each presentation column
is scaled once to integers (by the lcm of its denominators, which keeps
the module it spans) and stays integral: a column is reduced by
col <- a*col - c*pivot with the gcd of the two lead entries a, c taken
out, and each new pivot is divided by the content (gcd) of its entries.
Over GF(p) the same update runs on residues mod p with monic pivots.
Null-space vectors come out as nonzero multiples of the ones exact
field arithmetic would give, so every rank, and every Betti number, is
the same.
"""

from itertools import combinations_with_replacement
from math import gcd, lcm

from .betti import BettiTable

MAX_TOTAL_DEGREE = 6  # the oracle's total-degree cap


def monomials_of_bidegree(ring, a, b):
    """All packed monomials of x-degree a and t-degree b, ascending.

    A packed monomial is `one` plus the offset var(v) - one of each of
    its variables, counted with multiplicity, so the x part and the t
    part are summed once each and combined by addition."""
    nx = ring.n_x
    nvars = len(ring.names)
    if a < 0 or b < 0 or (b and nvars == nx):
        return []
    one = ring.codec.one
    steps = [v - one for v in ring._vcache]
    xsums = [sum(steps[v] for v in part)
             for part in combinations_with_replacement(range(nx), a)]
    tsums = [one + sum(steps[v] for v in part)
             for part in combinations_with_replacement(range(nx, nvars), b)]
    out = [xs + ts for xs in xsums for ts in tsums]
    out.sort()
    return out


def _bidegrees_upto(cap):
    """All (a, b) with a + b <= cap, in increasing (total, a) order."""
    out = []
    for tot in range(cap + 1):
        for a in range(tot + 1):
            out.append((a, tot - a))
    return out


class _Eliminator:
    """Incremental elimination: feed columns {row: coeff}, be told which
    ones enlarge the span.  Each column may carry a combination {key:
    coeff} through the same updates (see `_null_space`).

    Entries are ints: over QQ integral columns, over GF(p) residues.  A
    column is reduced against the pivot at its lead row by col <- a*col -
    c*pivot with a, c the two lead entries over their gcd.  A new pivot
    is divided by the gcd of its entries over QQ and made monic over
    GF(p)."""

    def __init__(self, field):
        self.p = field.char
        self.pivots = {}  # lead row -> (column, combination or None)

    def reduce(self, col, combo=None):
        """Reduce col (and combo alongside it) in place against the
        pivots: (lead, col, combo), with lead None when col vanishes."""
        p = self.p
        while col:
            lead = min(col)
            piv = self.pivots.get(lead)
            if piv is None:
                return lead, col, combo
            pcol, pcombo = piv
            a, c = pcol[lead], col[lead]
            if a != 1:
                g = gcd(a, c)
                a //= g
                c //= g
            _update(col, a, c, pcol, p)
            if lead in col:
                raise AssertionError("pivot update left its lead entry")
            if combo is not None:
                _update(combo, a, c, pcombo, p)
        return None, None, combo

    def record(self, lead, col, combo=None):
        """Store a reduced column with its lead row as a new pivot."""
        p = self.p
        if p:
            s = pow(col[lead], p - 2, p)
            if s != 1:
                col = {r: v * s % p for r, v in col.items()}
                if combo is not None:
                    combo = {k: v * s % p for k, v in combo.items()}
        else:
            col, combo = _primitive(col, combo)
        self.pivots[lead] = (col, combo)

    def insert(self, col):
        """True iff the column was independent (and is now recorded).
        The column is reduced in place."""
        lead, red, _ = self.reduce(col)
        if lead is None:
            return False
        self.record(lead, red)
        return True

    @property
    def rank(self):
        return len(self.pivots)


def _update(vec, a, c, piv, p):
    """vec <- a*vec - c*piv in place, modulo p when p; zeros dropped."""
    if a != 1:
        for r in vec:
            vec[r] *= a
    get = vec.get
    for r, v in piv.items():
        s = get(r, 0) - c * v
        if p:
            s %= p
        if s:
            vec[r] = s
        else:
            del vec[r]


def _primitive(col, combo=None):
    """col (and combo) divided by the gcd of all their entries."""
    g = gcd(*col.values(), *(combo.values() if combo else ()))
    if g == 1:
        return col, combo
    col = {r: v // g for r, v in col.items()}
    if combo is not None:
        combo = {k: v // g for k, v in combo.items()}
    return col, combo


def _multiple_coords(ring, vec, mono, index):
    """Coordinates {position: coeff} of mono * vec on an indexed strand
    basis {(comp, mono): position}.

    A product of packed monomials is their sum less `one`; the strand
    holds every monomial of its bidegree, so a product that leaves it
    misses the index."""
    shift = mono - ring.codec.one
    try:
        return {index[(c, m + shift)]: v for (c, m), v in vec.items()}
    except KeyError:
        raise AssertionError("element leaves its graded strand") from None


def _strand_index(monos, twists, bidegree):
    """Basis {(comp, mono): position} of the free module's piece in one
    bidegree; monos(a, b) lists the monomials of a bidegree."""
    a, b = bidegree
    index = {}
    pos = 0
    for comp, (ta, tb) in enumerate(twists):
        for m in monos(a - ta, b - tb):
            index[(comp, m)] = pos
            pos += 1
    return index


def _poly_columns_to_vectors(pres):
    """Presentation columns as integral {(row, mono): coeff} elements.

    Over QQ a column with denominators is scaled by their lcm, which
    leaves the module it spans unchanged; over GF(p) the residues pass
    through as they are."""
    out = []
    for j in range(pres.ncols):
        terms = [((i, m), c) for i in range(pres.nrows)
                 for m, c in pres.entries[i][j].terms]
        den = lcm(*(c.denominator for _, c in terms))
        vec = {key: c.numerator * (den // c.denominator) for key, c in terms}
        out.append((vec, pres.col_degs[j]))
    return out


def oracle_betti(pres):
    """Bigraded Betti numbers of coker(pres) with total degree at most
    MAX_TOTAL_DEGREE, by graded linear algebra alone.

    The presentation must be bihomogeneous with no unit entries (its
    cover generators are taken as the minimal ones).  If every twist has
    t-degree 0, the entries are t-free and, by flat base change, the
    table is that over the x-variables alone: only t-degree-0 bidegrees
    are visited."""
    ring = pres.ring
    field = ring.field
    for row in pres.entries:
        for e in row:
            if not e.is_zero() and e.degree() == 0:
                raise ValueError("presentation has a unit entry; its cover "
                                 "is not minimal")
    B = BettiTable()
    for bd in pres.row_degs:
        B.add(0, bd)

    mono_memo = {}

    def monos(a, b):
        got = mono_memo.get((a, b))
        if got is None:
            got = mono_memo[(a, b)] = monomials_of_bidegree(ring, a, b)
        return got

    degrees = _bidegrees_upto(MAX_TOTAL_DEGREE)
    if all(b == 0 for _, b in (*pres.row_degs, *pres.col_degs)):
        degrees = [bd for bd in degrees if bd[1] == 0]
    prev_twists = list(pres.row_degs)
    gens = _poly_columns_to_vectors(pres)  # generating set of level 1
    level = 1
    one = ring.codec.one
    var_steps = [(v - one, ring.bidegree_of_monomial(v))
                 for v in ring._vcache]

    while True:
        # choose minimal generators of the module generated by `gens`
        # inside Free(prev_twists), bidegree by bidegree, and read off
        # their syzygies in each bidegree once its generators are known
        chosen = []  # (vector, bidegree)
        # bidegree -> basis of the piece as labels (g, m), each the
        # element m * gens[g]
        pieces = {}
        next_gens = []
        for bd in degrees:
            index = _strand_index(monos, prev_twists, bd)
            if not index:
                continue
            elim = _Eliminator(field)
            piece = []
            # span of (variables * piece one bidegree lower); v * (g, m)
            # is the label (g, v * m), which many pairs (v, w) share
            seen = set()
            for step, (va, vb) in var_steps:
                for g, m in pieces.get((bd[0] - va, bd[1] - vb), ()):
                    label = (g, m + step)
                    if label in seen:
                        continue
                    seen.add(label)
                    if elim.insert(_multiple_coords(ring, gens[g][0],
                                                    label[1], index)):
                        piece.append(label)
            old_rank = elim.rank
            # the rest of the piece comes from the generators of bidegree
            # bd: m * g with deg m > 0 is v * (m' * g), and pieces[low]
            # already spans m' * g
            for g, (gvec, gd) in enumerate(gens):
                if gd == bd and elim.insert(_multiple_coords(ring, gvec, one,
                                                             index)):
                    piece.append((g, one))
                    chosen.append((gvec, bd))
            if piece:
                pieces[bd] = piece
            new = elim.rank - old_rank
            if new:
                B.add(level, bd, new)
            # next level: syzygies of the chosen generators, as the null
            # space of the evaluation matrix; generators chosen in later
            # bidegrees have no multiples here.  Columns are made one at
            # a time, (syzygy-coordinate key, strand coords)
            cols = (((gi, m), _multiple_coords(ring, gvec, m, index))
                    for gi, (gvec, gd) in enumerate(chosen)
                    for m in monos(bd[0] - gd[0], bd[1] - gd[1]))
            for kvec in _null_space(cols, field):
                next_gens.append((kvec, bd))
        if not next_gens:
            break
        prev_twists = [bd for _, bd in chosen]
        gens = next_gens
        level += 1
        if level > MAX_TOTAL_DEGREE + len(ring.names) + 2:
            raise AssertionError("oracle tower failed to terminate")
    return B


def _null_space(cols, field):
    """Null-space basis of the matrix whose columns are given, by any
    iterable, as (key, {row: coeff}); vectors come back as {key: coeff}.

    Augmented elimination: every pivot remembers how it was combined
    from the original columns, so a column that reduces to zero hands
    over its combination as a kernel vector.  The coordinate dicts are
    reduced in place, and a column read from a generator is freed as
    soon as it reduces to zero."""
    elim = _Eliminator(field)
    kernel = []
    for key, coords in cols:
        lead, col, combo = elim.reduce(coords, {key: 1})
        if lead is None:
            kernel.append(combo)
        else:
            elim.record(lead, col, combo)
    return kernel
