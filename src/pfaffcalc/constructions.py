"""The ideals, maps and complexes attached to a generic alternating
matrix X (entries x_(i,j)) and a generic row vector t.

Everything here is derived from two universal elements by exterior
algebra: xi = sum x_(i,j) e_i^e_j and tau = sum t_i e_i*.  Matrix signs
emerge from the contraction machinery; the only transcribed matrix is
d0 = -X, and a test asserts it agrees with the contraction route.

Basis conventions for wedge powers of F*: columns/rows are labeled by
decreasing wedges e_k*^e_j*^e_i* with (i,j,k) running over increasing
subsets in lexicographic order.  For wedge powers of F the increasing
wedges e_i^e_j^e_k are used.
"""

from .betti import BettiTable
from .exterior import (ExteriorElement, AlternatingMatrix, all_subsets,
                       contract, pfaffian_oracle)
from .rings import ring_for


def generic_xi(ring):
    """xi = sum_{i<j} x_(i,j) e_i ^ e_j in wedge^2 F."""
    f = ring.f
    return ExteriorElement(ring, "primal", 2,
                           {(i, j): ring.x(i, j)
                            for i in range(1, f + 1) for j in range(i + 1, f + 1)})


def generic_tau(ring):
    """tau = sum_i t_i e_i* in F*."""
    f = ring.f
    return ExteriorElement(ring, "dual", 1, {(i,): ring.t(i) for i in range(1, f + 1)})


def _dec_basis(ring, indices):
    """Decreasing wedge e_k*^e_j*^e_i* for an increasing index tuple."""
    return ExteriorElement.basis(ring, "dual", tuple(reversed(indices)))


def _dec_coord(el, indices):
    """Coordinate of a dual element on the decreasing-wedge basis vector
    labeled by the increasing tuple `indices`."""
    return el.coeff(tuple(reversed(indices)))


def pfaffian_gens(ring):
    """Coefficients of xi^(2): the 4x4 Pfaffians of X, one per increasing
    4-subset in lexicographic order."""
    dp2 = generic_xi(ring).divided_power()
    return [dp2.terms.get(I, ring.zero()) for I in all_subsets(ring.f, 4)]


def tx_entries(ring):
    """Entries of t*X: coefficient of e_k in tau(xi), k = 1..f."""
    v = contract(generic_tau(ring), generic_xi(ring))
    return [v.coeff((k,)) for k in range(1, ring.f + 1)]


_LAMBDA_ONLY = "lambda applies only to Ilambda, not %r"


def build_ideal(kind, ring, lam=None):
    """The generator list of an ideal.  kinds: 'I' (4x4 Pfaffians of X),
    'K' (entries of t*X), 'J' (I + K), 'Ilambda' (I + x-variables with
    column index <= lam).  lam is required for 'Ilambda' and rejected for
    every other kind."""
    f = ring.f
    if kind == "Ilambda":
        if lam is None or not 1 <= lam <= f - 1:
            raise ValueError("Ilambda needs 1 <= lambda <= f-1")
        extra = [ring.x(i, j)
                 for i in range(1, f + 1) for j in range(i + 1, f + 1) if j <= lam]
        return pfaffian_gens(ring) + extra
    if lam is not None:
        raise ValueError(_LAMBDA_ONLY % (kind,))
    if kind == "I":
        return pfaffian_gens(ring)
    if kind == "K":
        return tx_entries(ring)
    if kind == "J":
        return pfaffian_gens(ring) + tx_entries(ring)
    raise ValueError("unknown ideal kind %r" % (kind,))


class GradedMatrix:
    """Matrix over a bigraded ring with degree bookkeeping: entry (i,j)
    is bihomogeneous of bidegree col_degs[j] - row_degs[i] (or zero)."""

    __slots__ = ("ring", "entries", "row_degs", "col_degs")

    def __init__(self, ring, entries, row_degs, col_degs):
        self.ring = ring
        self.entries = [list(r) for r in entries]
        self.row_degs = list(row_degs)
        self.col_degs = list(col_degs)
        if len(self.entries) != len(self.row_degs):
            raise ValueError("row count / row degree mismatch")
        for r in self.entries:
            if len(r) != len(self.col_degs):
                raise ValueError("column count / column degree mismatch")
        self.check_degrees()

    @property
    def nrows(self):
        return len(self.row_degs)

    @property
    def ncols(self):
        return len(self.col_degs)

    def check_degrees(self):
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                if e.is_zero():
                    continue
                want = (self.col_degs[j][0] - self.row_degs[i][0],
                        self.col_degs[j][1] - self.row_degs[i][1])
                got = e.bidegree()
                if got != want:
                    raise ValueError("entry (%d,%d) has bidegree %s, expected %s"
                                     % (i, j, got, want))

    def column(self, j):
        return [row[j] for row in self.entries]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self, row_degs, col_degs):
        ent = [[self.entries[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return GradedMatrix(self.ring, ent, row_degs, col_degs)

    def __matmul__(self, other):
        """Composition self o other (apply `other` first)."""
        if other.nrows != self.ncols:
            raise ValueError("dimension mismatch in composition")
        z = self.ring.zero()
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                s = z
                for k in range(self.ncols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if not (a.is_zero() or b.is_zero()):
                        s = s + a * b
                row.append(s)
            out.append(row)
        return GradedMatrix(self.ring, out, self.row_degs, other.col_degs)

    @classmethod
    def identity(cls, ring, n):
        degs = [(0, 0)] * n
        one, zero = ring.one(), ring.zero()
        ent = [[one if i == j else zero for j in range(n)] for i in range(n)]
        return cls(ring, ent, degs, degs)

    def retwisted(self, row_degs, col_degs):
        return GradedMatrix(self.ring, self.entries, row_degs, col_degs)

    def __repr__(self):
        return "<GradedMatrix %dx%d over %r>" % (self.nrows, self.ncols, self.ring)


def map_matrix(name, ring):
    """The named structure maps.  See the module docstring for basis
    conventions."""
    f = ring.f
    xi = generic_xi(ring)

    if name == "d0":
        # transcribed as -X; the contraction route phi_1 |-> phi_1(xi) is
        # asserted equal in tests
        A = AlternatingMatrix.generic(ring)
        ent = [[-A.entry(i, j) for j in range(1, f + 1)] for i in range(1, f + 1)]
        return GradedMatrix(ring, ent, [(0, 0)] * f, [(1, 0)] * f)

    if name == "d0_contracted":
        cols = []
        for j in range(1, f + 1):
            v = contract(ExteriorElement.basis(ring, "dual", (j,)), xi)
            cols.append([v.coeff((i,)) for i in range(1, f + 1)])
        ent = [[cols[j][i] for j in range(f)] for i in range(f)]
        return GradedMatrix(ring, ent, [(0, 0)] * f, [(1, 0)] * f)

    if name == "d1":
        subs = all_subsets(f, 3)
        cols = []
        for S in subs:
            v = contract(_dec_basis(ring, S), xi)  # xi acting, dual degree 1
            cols.append([v.coeff((i,)) for i in range(1, f + 1)])
        ent = [[cols[c][i] for c in range(len(subs))] for i in range(f)]
        return GradedMatrix(ring, ent, [(1, 0)] * f, [(2, 0)] * len(subs))

    if name == "delta1":
        subs = all_subsets(f, 3)
        cols = []
        for j in range(1, f + 1):
            w = ExteriorElement.basis(ring, "primal", (j,)).wedge(xi)
            cols.append([w.coeff(S) for S in subs])
        ent = [[cols[j][r] for j in range(f)] for r in range(len(subs))]
        return GradedMatrix(ring, ent, [(-1, 0)] * len(subs), [(0, 0)] * f)

    if name == "rho":
        if f < 3:
            raise ValueError("rho needs f >= 3")
        v = contract(_dec_basis(ring, (1, 2, 3)), xi)
        ent = [[v.coeff((i,)) for i in (1, 2, 3)]]
        return GradedMatrix(ring, ent, [(0, 0)], [(1, 0)] * 3)

    if name == "d0prime":
        if f < 3:
            raise ValueError("d0prime needs f >= 3")
        d0 = map_matrix("d0", ring)
        ent = [d0.entries[i] for i in range(3)]
        return GradedMatrix(ring, ent, [(0, 0)] * 3, [(1, 0)] * f)

    if name == "tau_row":
        return GradedMatrix(ring, [[ring.t(i) for i in range(1, f + 1)]],
                            [(0, 0)], [(0, 1)] * f)

    if name == "tXi_row":
        return GradedMatrix(ring, [tx_entries(ring)], [(0, 0)], [(1, 1)] * f)

    if name == "D1":
        pfs = pfaffian_gens(ring)
        return GradedMatrix(ring, [tx_entries(ring) + pfs], [(0, 0)],
                            [(1, 1)] * f + [(2, 0)] * len(pfs))

    if name == "D2":
        tau = generic_tau(ring)
        subs3 = all_subsets(f, 3)
        subs4 = all_subsets(f, 4)
        subs5 = all_subsets(f, 5)
        nrows = f + len(subs4)
        cols = []
        col_degs = []

        def column(one_part, four_part):
            col = [one_part.coeff((a,)) for a in range(1, f + 1)]
            col += [_dec_coord(four_part, S) for S in subs4]
            return col

        zero1 = ExteriorElement.zero(ring, "dual", 1)
        for S in subs3:
            phi3 = _dec_basis(ring, S)
            cols.append(column(contract(phi3, xi), tau.wedge(phi3)))
            col_degs.append((2, 1))
        for a in range(1, f + 1):
            ea_xi = contract(ExteriorElement.basis(ring, "dual", (a,)), xi)
            for S in subs5:
                phi5 = _dec_basis(ring, S)
                cols.append(column(zero1, ea_xi.act(phi5)))
                col_degs.append((3, 0))
        for Sa in subs3:
            pa = _dec_basis(ring, Sa)
            xa = contract(pa, xi)
            for Sb in subs3:
                pb = _dec_basis(ring, Sb)
                xb = contract(pb, xi)
                four = xa.wedge(pb) - pa.wedge(xb)
                cols.append(column(zero1, four))
                col_degs.append((3, 0))
        ent = [[cols[c][r] for c in range(len(cols))] for r in range(nrows)]
        return GradedMatrix(ring, ent,
                            [(1, 1)] * f + [(2, 0)] * len(subs4), col_degs)

    raise ValueError("unknown map %r" % (name,))


class TermSpec:
    """One spot of a presented complex: a free cover with generator
    bidegrees `degs`, presented modulo `extra_relations` (columns over
    the cover) plus the complex-wide quotient ideal."""

    __slots__ = ("degs", "extra_relations")

    def __init__(self, degs, extra_relations=None):
        self.degs = list(degs)
        self.extra_relations = [list(c) for c in (extra_relations or [])]

    @property
    def rank(self):
        """The rank of the free cover, one per generator bidegree."""
        return len(self.degs)


class PresentedComplex:
    """terms[0] is the rightmost spot; maps[k] sends terms[k+1] to
    terms[k].  quotient is a list of ring elements; every term is
    implicitly a module over ring/(quotient)."""

    __slots__ = ("name", "ring", "quotient", "terms", "maps", "exact_positions")

    def __init__(self, name, ring, quotient, terms, maps, exact_positions):
        self.name = name
        self.ring = ring
        self.quotient = list(quotient)
        self.terms = list(terms)
        self.maps = list(maps)
        self.exact_positions = tuple(exact_positions)
        for k, M in enumerate(self.maps):
            if M.nrows != self.terms[k].rank or M.ncols != self.terms[k + 1].rank:
                raise ValueError("map %d shape mismatch" % k)

    def __repr__(self):
        ranks = " <- ".join(str(t.rank) for t in self.terms)
        return "<PresentedComplex %s: %s>" % (self.name, ranks)


def build_complex(name, ring):
    f = ring.f

    if name == "precplx":
        if f < 3:
            raise ValueError("precplx needs f >= 3")
        d1 = map_matrix("d1", ring)
        d0 = map_matrix("d0", ring)
        delta1 = map_matrix("delta1", ring)
        n3 = len(all_subsets(f, 3))
        # spots, rightmost first: wedge3 F, F, F*, wedge3 F*
        terms = [TermSpec([(-1, 0)] * n3),
                 TermSpec([(0, 0)] * f),
                 TermSpec([(1, 0)] * f),
                 TermSpec([(2, 0)] * n3)]
        return PresentedComplex(name, ring, pfaffian_gens(ring), terms,
                                [delta1, d0, d1], (1, 2))

    if name == "seq32":
        if f < 3:
            raise ValueError("seq32 needs f >= 3")
        d1 = map_matrix("d1", ring).retwisted([(2, 0)] * f,
                                              [(3, 0)] * len(all_subsets(f, 3)))
        d0p = map_matrix("d0prime", ring).retwisted([(1, 0)] * 3, [(2, 0)] * f)
        rho = map_matrix("rho", ring).retwisted([(0, 0)], [(1, 0)] * 3)
        ident = GradedMatrix.identity(ring, 1)
        n3 = len(all_subsets(f, 3))
        small = [[ring.x(1, 2)], [ring.x(1, 3)], [ring.x(2, 3)]]
        # spots, rightmost first: R/I_3, A, A^3, F*, wedge3 F*
        terms = [TermSpec([(0, 0)], extra_relations=small),
                 TermSpec([(0, 0)]),
                 TermSpec([(1, 0)] * 3),
                 TermSpec([(2, 0)] * f),
                 TermSpec([(3, 0)] * n3)]
        return PresentedComplex(name, ring, pfaffian_gens(ring), terms,
                                [ident, rho, d0p, d1], (0, 1, 2, 3))

    if name == "seq43":
        if not ring.tidx:
            raise ValueError("seq43 needs the full ring with t-variables")
        tXi = map_matrix("tXi_row", ring)
        tau_col = map_matrix("tau_row", ring).transpose(
            row_degs=[(1, 1)] * f, col_degs=[(1, 2)])
        ident = GradedMatrix.identity(ring, 1)
        d1cols = map_matrix("d1", ring).retwisted([(1, 1)] * f, [(2, 1)] * len(all_subsets(f, 3))).columns()
        # spots, rightmost first: R/J, A, N, A
        terms = [TermSpec([(0, 0)], extra_relations=[[g] for g in tx_entries(ring)]),
                 TermSpec([(0, 0)]),
                 TermSpec([(1, 1)] * f, extra_relations=d1cols),
                 TermSpec([(1, 2)])]
        return PresentedComplex(name, ring, pfaffian_gens(ring), terms,
                                [ident, tXi, tau_col], (0, 1, 2, 3))

    raise ValueError("unknown complex %r" % (name,))


def s1_s2_sets(ring):
    """The localization generator sets attached to the pivot entry
    x_(1,2): S1 = the 3(f-2) variables {x_(i,j): i <= 2 < j} u {t_j:
    j >= 3}, S2 = the C(f-2,2) pivot-row Pfaffians Pf(1,2,i,j) plus two
    t-linear elements (the pivot-indexed entries of t*X up to sign)."""
    f = ring.f
    s1 = [ring.x(i, j) for i in (1, 2) for j in range(3, f + 1)]
    s1 += [ring.t(j) for j in range(3, f + 1)]
    A = AlternatingMatrix.generic(ring)
    s2 = [pfaffian_oracle(A, (1, 2, i, j))
          for i in range(3, f + 1) for j in range(i + 1, f + 1)]
    tx = tx_entries(ring)
    s2 += [-tx[0], tx[1]]
    return s1, s2


def module_ring(name, f, field):
    """The ring module `name` is resolved over: the full ring for 'RJ',
    whose ideal holds the entries of t*X, and the x-variable ring for
    'A', 'N' and 'Ilambda'."""
    return ring_for(f, field, vars="xt" if name == "RJ" else "x")


def module_presentation(name, ring, lam=None):
    """Presentation matrix (one free module presenting the cokernel).

    'RJ', 'A', 'Ilambda': cyclic modules — a single generator in
    bidegree (0,0) with the ideal generators as the relation row.
    'N': cokernel of the alternating-matrix differential with rank-f
    generation in bidegree (0,0): relations are the d1 columns (shifted
    to column degree (1,0)) followed by each degree-(2,0) Pfaffian times
    each basis vector."""
    if name in ("RJ", "A", "Ilambda"):
        kind = {"RJ": "J", "A": "I", "Ilambda": "Ilambda"}[name]
        gens = build_ideal(kind, ring, lam=lam)
        return GradedMatrix(ring, [list(gens)], [(0, 0)],
                            [g.bidegree() for g in gens])
    if name == "N":
        if lam is not None:
            raise ValueError(_LAMBDA_ONLY % (name,))
        f = ring.f
        d1 = map_matrix("d1", ring)
        rows = [(0, 0)] * f
        cols = [(1, 0)] * d1.ncols
        entries = [list(r) for r in d1.entries]
        for p in pfaffian_gens(ring):
            for i in range(f):
                for r in range(f):
                    entries[r].append(p if r == i else ring.zero())
                cols.append((2, 0))
        return GradedMatrix(ring, entries, rows, cols)
    raise ValueError("unknown module %r" % (name,))


def mapping_cone_betti(betti_a, betti_n):
    """Bigraded Betti table of the mapping-cone resolution of R/J, from
    the x-graded tables of A = R/I (betti_a) and N (betti_n), both
    normalized to generation in degree 0:

      L_i = (+)_j R(-j-1,-2)^beta_{i-2,j} (+) R(-j-1,-1)^gamma_{i-1,j}
            (+) R(-j,0)^beta_{i,j}
    """
    out = BettiTable()
    for (i, (a, b)), c in betti_a.data.items():
        if b:
            raise ValueError("betti_a must be x-graded (t-degree 0)")
        out.add(i + 2, (a + 1, 2), c)
        out.add(i, (a, 0), c)
    for (i, (a, b)), c in betti_n.data.items():
        if b:
            raise ValueError("betti_n must be x-graded (t-degree 0)")
        out.add(i + 1, (a + 1, 1), c)
    return out
