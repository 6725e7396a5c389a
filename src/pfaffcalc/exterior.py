"""Exterior algebra over a free module F of rank f, with coefficients in
a domain: a `CoefficientField` or a `PolyRing`.

Elements of wedge^k(F) ("primal") and wedge^k(F*) ("dual") are stored as
{increasing index tuple: coefficient}, with arithmetic by the domain's
zero/one/add/mul/neg/is_zero (the rank is implicit); a product sums its
terms with the coefficients' own operators and reduces each sum once
through the domain.  The two algebras act on each other as modules: a
degree-1 actor expands at the leftmost position with alternating signs,
and a wedge of actors applies right factor first, i.e. (u ^ v)(w) =
u(v(w)).  All other signs (wedge reordering, interior products of higher
degree) emerge from these two rules; none are hand-coded.

Divided powers of a degree-2 element v are computed by the recursion
e_i*(v^(l)) = e_i*(v) ^ v^(l-1), reading off the coefficient of each
basis monomial from its smallest index i, so only the factors' terms
above i enter the product.  The independent cross-check,
pfaffian_oracle, instead expands submatrix Pfaffians along the first row
with explicit (-1)^j signs.
"""

from itertools import combinations
from weakref import WeakKeyDictionary

# Per-term rows of each basis table: table -> {A: {B: table(A, B)}},
# filled on first use, so a table runs once per pair of subsets.  Rows
# hold facts about index subsets only, never coefficients, so they hold
# at most 4**f pairs each.  Keyed weakly, so that a table swapped in for
# a test takes its rows with it.
_ROWS = WeakKeyDictionary()


def merge_sign(S, T):
    """Sign of sorting the concatenation of two disjoint increasing
    tuples: (-1)^#{(s,t) in S x T : s > t}."""
    inv = 0
    for t in T:
        for s in S:
            if s > t:
                inv += 1
    return -1 if inv & 1 else 1


def _wedge_basis(S, T):
    """Basis product e_S ^ e_T for increasing tuples: returns (sign,
    increasing tuple) or None if they share an index."""
    if set(S) & set(T):
        return None
    return merge_sign(S, T), tuple(sorted(S + T))


def _act_basis(T, S):
    """Basis action e_T(e_S) for increasing tuples: returns (sign,
    remaining tuple) or None if T is not contained in S.  The rightmost
    factor of e_T acts first; a degree-1 actor on index s removes it
    with sign (-1)^position."""
    cur = list(S)
    sign = 1
    for t in reversed(T):
        try:
            pos = cur.index(t)
        except ValueError:
            return None
        if pos & 1:
            sign = -sign
        del cur[pos]
    return sign, tuple(cur)


def _accumulate(domain, table, left, right):
    """Sum over all term pairs of the basis product table(A, B) (None
    when it vanishes) times the two coefficients.  Each pair is one
    probe of A's row in `_ROWS`.

    Each sum is built unreduced with the coefficients' own + and * (- for
    a negative sign), then made canonical once by domain.add(zero, s),
    which reduces mod p over GF(p) and is the identity over QQ and a
    PolyRing, and dropped if zero."""
    rows = _ROWS.get(table)
    if rows is None:
        rows = _ROWS[table] = {}
    zero = domain.zero()
    acc = {}
    get = acc.get
    for A, p in left.items():
        row = rows.get(A)
        if row is None:
            row = rows[A] = {}
        for B, q in right.items():
            try:
                hit = row[B]
            except KeyError:
                hit = row[B] = table(A, B)
            if hit is None:
                continue
            sign, key = hit
            if sign < 0:
                acc[key] = get(key, zero) - p * q
            else:
                acc[key] = get(key, zero) + p * q
    add, is_zero = domain.add, domain.is_zero
    out = {}
    for key, s in acc.items():
        s = add(zero, s)
        if not is_zero(s):
            out[key] = s
    return out


def _sort_sign(idx):
    """Sign of sorting the index tuple into increasing order."""
    sign = 1
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if idx[a] > idx[b]:
                sign = -sign
    return sign


class ExteriorElement:
    __slots__ = ("ring", "side", "k", "terms")

    def __init__(self, ring, side, k, terms=None):
        if side not in ("primal", "dual"):
            raise ValueError("side must be 'primal' or 'dual'")
        self.ring = ring  # the coefficient domain
        self.side = side
        self.k = k
        self.terms = {} if terms is None else terms  # tuple -> coefficient

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, ring, side, k):
        return cls(ring, side, k, {})

    @classmethod
    def basis(cls, ring, side, indices, coeff=None):
        """Wedge of basis vectors in the listed order (sign-normalized to
        the increasing tuple)."""
        idx = tuple(indices)
        if len(set(idx)) != len(idx):
            return cls.zero(ring, side, len(idx))
        c = ring.one() if coeff is None else coeff
        if _sort_sign(idx) < 0:
            c = ring.neg(c)
        if ring.is_zero(c):
            return cls.zero(ring, side, len(idx))
        return cls(ring, side, len(idx), {tuple(sorted(idx)): c})

    def _new(self, terms):
        return ExteriorElement(self.ring, self.side, self.k, terms)

    # -- linear structure ------------------------------------------------------
    def __add__(self, other):
        if (other.side, other.k) != (self.side, self.k):
            raise ValueError("degree/side mismatch in addition")
        R = self.ring
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            if s is not None:
                c = R.add(s, c)
            if R.is_zero(c):
                out.pop(key, None)
            else:
                out[key] = c
        return self._new(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.ring.neg
        return self._new({k: neg(c) for k, c in self.terms.items()})

    def scale(self, c):
        R = self.ring
        if R.is_zero(c):
            return ExteriorElement.zero(R, self.side, self.k)
        return self._new({k: R.mul(a, c) for k, a in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def coeff(self, indices):
        """Coefficient of the basis element with the given indices (any
        order; the sign of sorting is applied)."""
        idx = tuple(indices)
        c = self.terms.get(tuple(sorted(idx)))
        if c is None:
            return self.ring.zero()
        return self.ring.neg(c) if _sort_sign(idx) < 0 else c

    # -- multiplicative structure -----------------------------------------------
    def wedge(self, other):
        if other.side != self.side:
            raise ValueError("wedge requires matching sides")
        out = _accumulate(self.ring, _wedge_basis, self.terms, other.terms)
        return ExteriorElement(self.ring, self.side, self.k + other.k, out)

    def act(self, other):
        """Module action of self on other (opposite sides, deg self <=
        deg other): result lives on other's side in degree
        other.k - self.k."""
        if other.side == self.side:
            raise ValueError("module action requires opposite sides")
        if self.k > other.k:
            raise ValueError("actor degree exceeds target degree")
        out = _accumulate(self.ring, _act_basis, self.terms, other.terms)
        return ExteriorElement(self.ring, other.side, other.k - self.k, out)

    # -- divided powers -----------------------------------------------------------
    def divided_power(self, ell):
        if self.k != 2:
            raise ValueError("divided powers are defined here for degree-2 elements")
        if ell < 0:
            raise ValueError("negative divided power")
        if ell == 0:
            return ExteriorElement(self.ring, self.side, 0, {(): self.ring.one()})
        if ell == 1:
            return self
        prev = self.divided_power(ell - 1)
        opp = "dual" if self.side == "primal" else "primal"
        out = {}
        # e_i*(self) = 0 for an index i that occurs in no term.  Only the
        # terms S with S[0] > i are kept, and those come only from terms
        # j > i of e_i*(self) wedged with terms of prev above i, so both
        # factors are cut to those first; the kept sums and their order
        # are unchanged.
        for i in sorted({i for S in self.terms for i in S}):
            ei = ExteriorElement.basis(self.ring, opp, (i,)).act(self)
            head = ei._new({S: c for S, c in ei.terms.items() if S[0] > i})
            tail = prev._new({S: c for S, c in prev.terms.items()
                              if S[0] > i})
            for S, c in head.wedge(tail).terms.items():
                out[(i,) + S] = c
        return ExteriorElement(self.ring, self.side, 2 * ell, out)

    # ------------------------------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, ExteriorElement) and self.side == other.side
                and self.k == other.k and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "<0 (%s deg %d)>" % (self.side, self.k)
        star = "*" if self.side == "dual" else ""
        bits = []
        for key in sorted(self.terms):
            mono = "^".join("e%d%s" % (i, star) for i in key) or "1"
            bits.append("(%s)%s" % (self.terms[key], mono))
        return "<" + " + ".join(bits) + ">"


def contract(phi, f):
    """Action between a dual element phi (degree q) and a primal element
    f (degree p): phi(f) when q <= p, else f(phi)."""
    if phi.side != "dual" or f.side != "primal":
        raise ValueError("contract expects (dual, primal)")
    if phi.k <= f.k:
        return phi.act(f)
    return f.act(phi)


class AlternatingMatrix:
    """n x n alternating matrix over a polynomial ring, stored by its
    strictly-upper entries."""

    __slots__ = ("ring", "n", "upper")

    def __init__(self, ring, n, upper):
        self.ring = ring
        self.n = n
        self.upper = dict(upper)  # (i,j) i<j -> Polynomial

    @classmethod
    def generic(cls, ring):
        f = ring.f
        return cls(ring, f, {(i, j): ring.x(i, j)
                             for i in range(1, f + 1) for j in range(i + 1, f + 1)})

    def entry(self, i, j):
        if i == j:
            return self.ring.zero()
        if i < j:
            return self.upper.get((i, j), self.ring.zero())
        return -self.upper.get((j, i), self.ring.zero())


def pfaffian_oracle(A, rows=None):
    """Pfaffian of the principal submatrix of the alternating matrix A on
    `rows`, by recursive expansion along the first row:

        Pf = sum_{j=2}^{m} (-1)^j A[r1, rj] Pf(rows minus r1, rj)

    Independent of the exterior-algebra machinery by design."""
    if rows is None:
        rows = tuple(range(1, A.n + 1))
    rows = tuple(sorted(rows))
    if len(rows) % 2:
        return A.ring.zero()
    memo = {}

    def pf(rs):
        if not rs:
            return A.ring.one()
        got = memo.get(rs)
        if got is not None:
            return got
        r1 = rs[0]
        total = A.ring.zero()
        for pos in range(1, len(rs)):
            rj = rs[pos]
            rest = rs[1:pos] + rs[pos + 1:]
            term = A.entry(r1, rj) * pf(rest)
            # pos is j-1 for 1-based j; (-1)^j = +1 when pos is odd
            total = total + term if pos & 1 else total - term
        memo[rs] = total
        return total

    return pf(rows)


def determinant_oracle(M):
    """Determinant of a square matrix of polynomials by first-row minor
    expansion with memoization on column subsets."""
    n = len(M)
    if n == 0:
        raise ValueError("empty matrix")
    ring = None
    for row in M:
        for e in row:
            ring = e.ring
            break
        if ring:
            break
    memo = {}

    def det(r, cols):
        if r == n:
            return ring.one()
        got = memo.get(cols)
        if got is not None:
            return got
        total = ring.zero()
        for k, c in enumerate(cols):
            term = M[r][c] * det(r + 1, cols[:k] + cols[k + 1:])
            total = total + term if k % 2 == 0 else total - term
        memo[cols] = total
        return total

    return det(0, tuple(range(n)))


def all_subsets(n, k):
    """Increasing k-subsets of 1..n in lexicographic order."""
    return list(combinations(range(1, n + 1), k))
