"""Packed-integer monomials and monomial orders.

A monomial in n variables is stored as a single Python int whose bit
fields are arranged so that comparing two packed values as integers IS
the monomial-order comparison.  Multiplication and division of
monomials become integer addition/subtraction, which keeps the
Groebner-basis inner loops allocation-free and fast.

Layout, per order block (most significant first):

  grevlex-style block:  [deg:16][127-e_first:8]...[127-e_last:8]
  lex-style block:      [e_last:8]...[e_first:8]

Variables are listed ascending (index 0 is the smallest variable).  A
grevlex block stores complements so that, on a total-degree tie, the
monomial with the *smaller* exponent on the *smallest* variable wins --
which is graded reverse lexicographic order for an ascending variable
listing.  A lex block gives the plain lexicographic comparison, largest
variable first.

Each 8-bit field has a guard bit, so a field holds exponents up to 127;
`pack` caps them at MAX_EXP.  Divisibility is one subtract-and-mask, and
quotients and lcms of legal monomials never leave a field.  A product is
exact only while every exponent sum stays at most 127; an exponent sum
past that sets its field's guard bit, and `mul` raises on it.
"""

MAX_EXP = 120  # per-variable exponent cap (fields are 8 bit with a guard bit)

_FMASK = 0xFF
_COMPL = 127


class OrderCodec:
    """Monomial order plus the packed representation implementing it.

    blocks: list of (var_index_tuple, style) pairs, highest priority
    first; the var index tuples must partition range(nvars) and each be
    contiguous ascending.  style is 'grevlex' or 'lex'.
    """

    __slots__ = ("nvars", "blocks", "name", "one", "_shift", "_degshifts",
                 "_guards", "_styles", "_single_degshift")

    def __init__(self, nvars, blocks, name):
        cover = sorted(i for b, _ in blocks for i in b)
        if cover != list(range(nvars)):
            raise ValueError("blocks must partition the variable indices")
        self.nvars = nvars
        self.blocks = tuple((tuple(b), style) for b, style in blocks)
        self.name = name
        shift = [0] * nvars
        degshifts = []
        guards = 0
        pos = 0
        for bvars, style in reversed(self.blocks):
            if style == "grevlex":
                for v in reversed(bvars):
                    shift[v] = pos
                    guards |= 0x80 << pos
                    pos += 8
                degshifts.append(pos)
                guards |= 0x8000 << pos
                pos += 16
            elif style == "lex":
                for v in bvars:
                    shift[v] = pos
                    guards |= 0x80 << pos
                    pos += 8
                degshifts.append(None)
            else:
                raise ValueError("unknown block style %r" % (style,))
        self._shift = tuple(shift)
        self._degshifts = tuple(reversed(degshifts))
        self._guards = guards
        self._styles = tuple(style for _, style in self.blocks)
        one = 0
        for bvars, style in self.blocks:
            if style == "grevlex":
                for v in bvars:
                    one |= _COMPL << shift[v]
        self.one = one
        # fast total-degree path when a single grevlex block spans everything
        self._single_degshift = (self._degshifts[0]
                                 if len(self.blocks) == 1 and self._styles[0] == "grevlex"
                                 else None)

    # -- packing ---------------------------------------------------------
    def pack(self, exps):
        if len(exps) != self.nvars:
            raise ValueError("expected %d exponents, got %d" % (self.nvars, len(exps)))
        key = self.one
        shift = self._shift
        for (bvars, style), degshift in zip(self.blocks, self._degshifts):
            if style == "grevlex":
                d = 0
                for v in bvars:
                    e = exps[v]
                    if not 0 <= e <= MAX_EXP:
                        raise ValueError("exponent %r out of range [0, %d]" % (e, MAX_EXP))
                    d += e
                    key -= e << shift[v]
                key |= d << degshift
            else:
                for v in bvars:
                    e = exps[v]
                    if not 0 <= e <= MAX_EXP:
                        raise ValueError("exponent %r out of range [0, %d]" % (e, MAX_EXP))
                    key |= e << shift[v]
        return key

    def unpack(self, m):
        out = [0] * self.nvars
        shift = self._shift
        for bvars, style in self.blocks:
            if style == "grevlex":
                for v in bvars:
                    out[v] = _COMPL - ((m >> shift[v]) & _FMASK)
            else:
                for v in bvars:
                    out[v] = (m >> shift[v]) & _FMASK
        return tuple(out)

    def var(self, i):
        e = [0] * self.nvars
        e[i] = 1
        return self.pack(e)

    # -- arithmetic --------------------------------------------------------
    def mul(self, a, b):
        m = a + b - self.one
        if m & self._guards:
            raise ValueError("monomial product exceeds the exponent range")
        return m

    def div(self, a, b):
        """a / b; caller guarantees b divides a."""
        return a - b + self.one

    def divides(self, b, a):
        """Does b divide a?"""
        return (a - b + self.one) & self._guards == 0

    def lcm(self, a, b):
        ea, eb = self.unpack(a), self.unpack(b)
        return self.pack(tuple(x if x >= y else y for x, y in zip(ea, eb)))

    def deg(self, m):
        s = self._single_degshift
        if s is not None:
            return m >> s
        total = 0
        for (bvars, style), degshift in zip(self.blocks, self._degshifts):
            if style == "grevlex":
                total += (m >> degshift) & 0xFFFF
            else:
                for v in bvars:
                    total += (m >> self._shift[v]) & _FMASK
        return total

    def coprime(self, a, b):
        ea, eb = self.unpack(a), self.unpack(b)
        return all(x == 0 or y == 0 for x, y in zip(ea, eb))

    def __repr__(self):
        return "OrderCodec(%s, %d vars)" % (self.name, self.nvars)


def grevlex(nvars):
    return OrderCodec(nvars, [(tuple(range(nvars)), "grevlex")], "grevlex")


def lex(nvars):
    return OrderCodec(nvars, [(tuple(range(nvars)), "lex")], "lex")


def elim_blocks(nvars, cut, name="elim"):
    """Two grevlex blocks: variables [0, cut) outrank [cut, nvars)."""
    return OrderCodec(nvars, [(tuple(range(cut)), "grevlex"),
                              (tuple(range(cut, nvars)), "grevlex")], name)

