"""Bigraded polynomial rings R0[x_(i,j), t_i] with exact arithmetic.

The standard ring for matrix size f has the x-variables x_(i,j),
1 <= i < j <= f, listed ascending by (i,j), followed by t_1..t_f.
x-variables carry bidegree (1,0) and t-variables (0,1).  Every ring
is ordered by grevlex over all its variables (see `monomials`).
Polynomials are immutable term lists (packed monomial, coefficient),
sorted descending in that order.
"""

from functools import reduce
from operator import or_

from . import monomials
from .fields import CoefficientField


class PolyRing:
    __slots__ = ("field", "names", "codec", "n_x", "f", "xidx", "tidx", "_vcache")

    def __init__(self, field, names, codec, n_x, f):
        if not isinstance(field, CoefficientField):
            raise TypeError("field must be a CoefficientField")
        if codec.nvars != len(names):
            raise ValueError("codec/name count mismatch")
        self.field = field
        self.names = tuple(names)
        self.codec = codec
        self.n_x = n_x
        self.f = f
        self.xidx = {}
        self.tidx = {}
        for k, nm in enumerate(self.names):
            if nm.startswith("x_("):
                i, j = nm[3:-1].split(",")
                self.xidx[(int(i), int(j))] = k
            elif nm.startswith("t_"):
                self.tidx[int(nm[2:])] = k
        self._vcache = [codec.var(i) for i in range(codec.nvars)]

    # -- constructors -----------------------------------------------------
    def zero(self):
        return Polynomial(self, ())

    def one(self):
        return Polynomial(self, ((self.codec.one, self.field.one()),))

    def const(self, c):
        c = self.field.from_int(c) if isinstance(c, int) else c
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, ((self.codec.one, c),))

    def var_poly(self, i):
        return Polynomial(self, ((self._vcache[i], self.field.one()),))

    def x(self, i, j):
        return self.var_poly(self.xidx[(i, j)])

    def t(self, i):
        return self.var_poly(self.tidx[i])

    def from_exp_terms(self, pairs):
        """pairs: iterable of (exponent tuple, coefficient)."""
        acc = {}
        f = self.field
        for exps, c in pairs:
            m = self.codec.pack(exps)
            if m in acc:
                acc[m] = f.add(acc[m], c)
            else:
                acc[m] = c
        terms = tuple((m, c) for m, c in sorted(acc.items(), reverse=True)
                      if not f.is_zero(c))
        return Polynomial(self, terms)

    # -- coefficient domain of `exterior` -----------------------------------
    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a.is_zero()

    # -- structure ----------------------------------------------------------
    def bidegree_of_monomial(self, m):
        exps = self.codec.unpack(m)
        dx = sum(exps[: self.n_x])
        return (dx, sum(exps) - dx)

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.field == other.field
                and self.names == other.names)

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return "PolyRing(%r, %d vars, grevlex)" % (self.field, len(self.names))


def ring_for(f, field, vars="xt"):
    """The standard ring for matrix size f: x_(i,j) ascending, then t_i.
    vars='x' gives the x-only subring."""
    if f < 2:
        raise ValueError("need f >= 2")
    names = ["x_(%d,%d)" % (i, j) for i in range(1, f + 1) for j in range(i + 1, f + 1)]
    n_x = len(names)
    if vars == "xt":
        names += ["t_%d" % i for i in range(1, f + 1)]
    elif vars != "x":
        raise ValueError("vars must be 'xt' or 'x'")
    return PolyRing(field, names, monomials.OrderCodec(len(names)), n_x, f)


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms  # tuple of (packed monomial, coeff), descending

    # -- predicates ---------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def lm(self):
        return self.terms[0][0]

    def degree(self):
        """Total degree (max over terms); -1 for the zero polynomial."""
        if not self.terms:
            return -1
        deg = self.ring.codec.deg
        return max(deg(m) for m, _ in self.terms)

    def bidegree(self):
        """(x-degree, t-degree) of a bihomogeneous polynomial; raises on
        mixed terms.  Zero polynomial -> None."""
        if not self.terms:
            return None
        bd = self.ring.bidegree_of_monomial(self.terms[0][0])
        for m, _ in self.terms[1:]:
            if self.ring.bidegree_of_monomial(m) != bd:
                raise ValueError("polynomial is not bihomogeneous")
        return bd

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        f = self.ring.field
        a, b = self.terms, other.terms
        ia = ib = 0
        na, nb = len(a), len(b)
        out = []
        while ia < na and ib < nb:
            ma, ca = a[ia]
            mb, cb = b[ib]
            if ma > mb:
                out.append(a[ia]); ia += 1
            elif ma < mb:
                out.append(b[ib]); ib += 1
            else:
                c = f.add(ca, cb)
                if not f.is_zero(c):
                    out.append((ma, c))
                ia += 1; ib += 1
        out.extend(a[ia:]); out.extend(b[ib:])
        return Polynomial(self.ring, tuple(out))

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __neg__(self):
        f = self.ring.field
        return Polynomial(self.ring, tuple((m, f.neg(c)) for m, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            f = self.ring.field
            one = self.ring.codec.one
            acc = {}
            get = acc.get
            for ma, ca in self.terms:
                base = ma - one
                for mb, cb in other.terms:
                    m = base + mb
                    c = get(m)
                    acc[m] = f.mul(ca, cb) if c is None else f.add(c, f.mul(ca, cb))
            # a legal monomial has no guard bit, so neither has their OR
            if reduce(or_, acc, 0) & self.ring.codec.guards:
                raise ValueError("monomial product exceeds the exponent range")
            terms = tuple((m, c) for m, c in sorted(acc.items(), reverse=True)
                          if not f.is_zero(c))
            return Polynomial(self.ring, terms)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        f = self.ring.field
        if isinstance(c, int):
            c = f.from_int(c)
        if f.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring, tuple((m, f.mul(cc, c)) for m, cc in self.terms))

    # -- misc ---------------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring.codec is not self.ring.codec and other.ring != self.ring:
                raise ValueError("mixed rings")
            return other
        return self.ring.const(other)

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ring.const(other)
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring.names, self.terms))

    def __str__(self):
        from . import textio
        return textio.render(self)

    def __repr__(self):
        return "<%s>" % self.__str__()
