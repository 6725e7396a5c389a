"""Reduced Groebner bases for ideals, with membership, colon ideals,
saturation exponents, and Hilbert-series dimension data.

Everything here works in a single polynomial ring (the rank-1 case of
the module engine in gbengine).  A colon ideal is the kernel of a 1x1
map, taken by `homology.kernel_over_quotient`.  The
dimension/codimension routine runs two independent computations -- a
maximal-independent-set search and a Hilbert-numerator recursion, both
on the leading-term ideal -- and insists they agree.
"""

from functools import lru_cache

from .constructions import GradedMatrix
# nf stays bound here, unused, for the benchmark harness's restore test
from .gbengine import columns_of_vecs, nf, vec_of_entries  # noqa: F401
from .homology import ModuleSpan, kernel_over_quotient


class GroebnerBasis(ModuleSpan):
    """A reduced Groebner basis of an ideal, the rank-1 case of
    ModuleSpan: monic, auto-reduced, no leading term divides another,
    sorted by decreasing leading monomial."""

    def __init__(self, ring, gens):
        super().__init__(ring, 1, [[g] for g in gens])
        self.elements = tuple(col[0] for col in
                              columns_of_vecs(self._G, self.order))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def contains(self, p):
        return self.contains_column(vec_of_entries(((0, p),), self.order))

    def contains_one(self):
        """Whether the ideal is the unit ideal."""
        return any(g.degree() == 0 for g in self.elements)

    def lead_exponents(self):
        """Exponent tuples of the leading monomials."""
        codec = self.ring.codec
        return tuple(codec.unpack(g.lm()) for g in self.elements)

    def __repr__(self):
        return "<GroebnerBasis of %d elements over %r>" % (
            len(self.elements), self.ring)


def groebner_basis(gens, ring=None):
    """Reduced Groebner basis of the ideal generated by `gens`."""
    gens = [g for g in gens if not g.is_zero()]
    if ring is None:
        if not gens:
            raise ValueError("cannot infer the ring from an empty list")
        ring = gens[0].ring
    return GroebnerBasis(ring, gens)


def _as_gb(ideal, ring=None):
    if isinstance(ideal, GroebnerBasis):
        return ideal
    return groebner_basis(list(ideal), ring)


def same_ideal(a, b):
    """Whether two generating sets span the same ideal (two-sided
    membership against each other's Groebner basis).  The ring comes
    from whichever side has a nonzero generator; two zero ideals are
    equal."""
    a, b = (x if isinstance(x, GroebnerBasis) else list(x) for x in (a, b))
    ring = next((p.ring for p in (*a, *b) if not p.is_zero()), None)
    if ring is None:
        return True
    ga, gb = _as_gb(a, ring), _as_gb(b, ring)
    return all(gb.contains(p) for p in ga) and \
        all(ga.contains(p) for p in gb)


def ideal_quotient(gens, f):
    """Generators of the colon ideal (I : f) for a single polynomial f;
    f and the generators of I must be bihomogeneous.

    (I : f) is the kernel of the 1x1 map [f] into R/I, taken by the
    graph-module elimination of `kernel_over_quotient` (the colon by
    syzygies)."""
    gens = [g for g in gens if not g.is_zero()]
    if f.is_zero():
        raise ZeroDivisionError("colon by the zero polynomial")
    for g in gens:
        g.bidegree()  # raises ValueError unless g is bihomogeneous
    if not gens:
        return []
    M = GradedMatrix(f.ring, [[f]], [(0, 0)], [f.bidegree()])
    vecs, order = kernel_over_quotient(M, [[g] for g in gens])
    return [col[0] for col in columns_of_vecs(vecs, order)]


def saturation_member(gens, f, g, bound):
    """The least N <= bound with f^N * g in the ideal, as (True, N);
    (False, None) if no such exponent exists within the bound."""
    gb = _as_gb(gens, g.ring)
    power = g.ring.one()
    for n in range(bound + 1):
        if gb.contains(power * g):
            return True, n
        power = power * f
    return False, None


class HilbertData:
    """Dimension data of a quotient R/I: Krull dimension, codimension,
    and the Hilbert numerator N(T) with HS(R/I) = N(T)/(1-T)^n."""

    __slots__ = ("dim", "codim", "numerator")

    def __init__(self, dim, codim, numerator):
        self.dim = dim
        self.codim = codim
        self.numerator = tuple(numerator)

    def __repr__(self):
        return "HilbertData(dim=%d, codim=%d, numerator=%r)" % (
            self.dim, self.codim, self.numerator)


def _poly_add(a, b):
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return tuple(x + y for x, y in zip(a, b))


def _poly_shift(a):
    return (0,) + a


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _trim(a):
    n = len(a)
    while n > 1 and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _minimalize_monomials(gens, nvars):
    gens = sorted(set(gens), key=sum)
    out = []
    for g in gens:
        if not any(all(o[i] <= g[i] for i in range(nvars)) for o in out):
            out.append(g)
    return tuple(out)


def _hilbert_numerator(lts, nvars):
    """Numerator of the Hilbert series of R/M for the monomial ideal M,
    by the colon recursion N(M) = N(M + (x)) + T*N(M : x)."""

    @lru_cache(maxsize=None)
    def numer(gens):
        if not gens:
            return (1,)
        if any(sum(g) == 0 for g in gens):
            return (0,)
        multi = [g for g in gens if sum(1 for e in g if e) > 1]
        if not multi:
            # Pure powers of distinct variables: a regular sequence.
            out = (1,)
            for g in gens:
                factor = [0] * (sum(g) + 1)
                factor[0] = 1
                factor[sum(g)] = -1
                out = _poly_mul(out, tuple(factor))
            return out
        counts = [0] * nvars
        for g in multi:
            for i, e in enumerate(g):
                if e:
                    counts[i] += 1
        x = counts.index(max(counts))
        unit = tuple(1 if i == x else 0 for i in range(nvars))
        plus = _minimalize_monomials(
            tuple(g for g in gens if g[x] == 0) + (unit,), nvars)
        colon = _minimalize_monomials(
            tuple(g[:x] + (max(g[x] - 1, 0),) + g[x + 1:] for g in gens),
            nvars)
        return _poly_add(numer(plus), _poly_shift(numer(colon)))

    return _trim(numer(_minimalize_monomials(lts, nvars)))


def _independent_set_dim(lts, nvars):
    """Largest size of a variable set meeting no generator support —
    the Krull dimension of R/M for the monomial ideal M."""
    sups = [frozenset(i for i, e in enumerate(l) if e) for l in lts]
    if any(not s for s in sups):
        return -1
    best = 0
    seen = set()

    def rec(avail):
        nonlocal best
        if avail in seen or len(avail) <= best - 1:
            return
        seen.add(avail)
        blocker = next((s for s in sups if s <= avail), None)
        if blocker is None:
            if len(avail) > best:
                best = len(avail)
            return
        for v in blocker:
            rec(avail - {v})

    rec(frozenset(range(nvars)))
    return best


def dimension_codim(ideal):
    """HilbertData for R/I.  I must be generated by homogeneous
    polynomials (in total degree); the dimension is computed both from
    a maximal independent set modulo the leading-term ideal and from
    the order of vanishing of the Hilbert numerator at T = 1, and the
    two must agree."""
    gb = _as_gb(ideal)
    ring = gb.ring
    nvars = len(ring.names)
    codec = ring.codec
    for g in gb:
        degs = {codec.deg(m) for m, _ in g.terms}
        if len(degs) > 1:
            raise ValueError("dimension data needs homogeneous generators")
    if gb.contains_one():
        return HilbertData(-1, nvars + 1, (0,))
    if not len(gb):
        return HilbertData(nvars, 0, (1,))
    lts = gb.lead_exponents()
    numerator = _hilbert_numerator(lts, nvars)
    vanish = 0
    work = list(numerator)
    while len(work) > 0 and sum(work) == 0:
        # synthetic division by (1 - T): N = (1-T) * Q  with
        # Q_k = N_0 + N_1 + ... + N_k
        acc, quo = 0, []
        for c in work[:-1]:
            acc += c
            quo.append(acc)
        work = quo if quo else [0]
        vanish += 1
    dim_numer = nvars - vanish
    dim_indep = _independent_set_dim(lts, nvars)
    if dim_indep != dim_numer:
        raise AssertionError(
            "independent-set dimension %d disagrees with Hilbert-numerator "
            "dimension %d" % (dim_indep, dim_numer))
    return HilbertData(dim_indep, nvars - dim_indep, numerator)
