"""Packed-integer monomials in graded reverse lexicographic order.

A monomial in n variables is stored as a single Python int whose bit
fields are arranged so that comparing two packed values as integers IS
the monomial-order comparison.  Multiplication and division of
monomials become integer addition/subtraction, which keeps the
Groebner-basis inner loops allocation-free and fast.

Grevlex is the one order: everything computed here is graded.  Layout
(most significant first):

  [deg:16][127-e_first:8]...[127-e_last:8]

Variables are listed ascending (index 0 is the smallest variable).
Storing complements means that, on a total-degree tie, the monomial
with the *smaller* exponent on the *smallest* variable wins -- which is
graded reverse lexicographic order for an ascending variable listing.

Each 8-bit field has a guard bit, so a field holds exponents up to 127;
`pack` caps them at MAX_EXP.  Divisibility is one subtract-and-mask, and
quotients and lcms of legal monomials never leave a field.  `lcm` and
`coprime` likewise act on every field at once, with the guard bits
catching each field's comparison.  A product is exact only while every
exponent sum stays at most 127; an exponent sum past that sets its
field's guard bit, and `mul` raises on it.
"""

MAX_EXP = 120  # per-variable exponent cap (fields are 8 bit with a guard bit)

_FMASK = 0xFF
_COMPL = 127


class OrderCodec:
    """Grevlex order on nvars variables plus the packed representation
    implementing it.

    nbits is the width of a packed monomial and guards the mask of its
    guard bits; module orders in `gbengine` stack component bits above
    nbits.
    """

    __slots__ = ("nvars", "one", "nbits", "guards", "_shift", "_degshift",
                 "_eguards")

    def __init__(self, nvars):
        self.nvars = nvars
        self._shift = tuple(8 * (nvars - 1 - v) for v in range(nvars))
        self._degshift = 8 * nvars
        self.nbits = 8 * nvars + 16
        self.guards = sum(0x80 << s for s in self._shift) | \
            (0x8000 << self._degshift)
        self.one = sum(_COMPL << s for s in self._shift)
        # guard bits of the exponent fields only; `one` is 0x7F in each
        self._eguards = self.one << 1 & ~self.one

    # -- packing ---------------------------------------------------------
    def pack(self, exps):
        if len(exps) != self.nvars:
            raise ValueError("expected %d exponents, got %d" % (self.nvars, len(exps)))
        for e in exps:
            if not 0 <= e <= MAX_EXP:
                raise ValueError("exponent %r out of range [0, %d]" % (e, MAX_EXP))
        return self.one - sum(e << s for e, s in zip(exps, self._shift)) + \
            (sum(exps) << self._degshift)

    def unpack(self, m):
        return tuple(_COMPL - ((m >> s) & _FMASK) for s in self._shift)

    def var(self, i):
        e = [0] * self.nvars
        e[i] = 1
        return self.pack(e)

    # -- arithmetic --------------------------------------------------------
    def mul(self, a, b):
        m = a + b - self.one
        if m & self.guards:
            raise ValueError("monomial product exceeds the exponent range")
        return m

    def div(self, a, b):
        """a / b; caller guarantees b divides a."""
        return a - b + self.one

    def divides(self, b, a):
        """Does b divide a?"""
        return (a - b + self.one) & self.guards == 0

    def lcm(self, a, b):
        # a field of (ca | 0x80) - cb keeps its guard bit iff ca >= cb,
        # where the lcm takes the smaller complement cb
        low = self.one
        ca, cb = a & low, b & low
        ge = ((ca | self._eguards) - cb) & self._eguards
        c = ca ^ ((ca ^ cb) & (ge >> 7) * _COMPL)
        n = self.nvars
        return c + ((_COMPL * n - sum(c.to_bytes(n, "big"))) << self._degshift)

    def deg(self, m):
        return m >> self._degshift

    def coprime(self, a, b):
        # a field of 2*0x7F - c = 0x7F + e has its guard bit iff e > 0;
        # the degree bits above the fields leave them alone
        k = self.one << 1
        return (k - a) & (k - b) & self._eguards == 0

    def __repr__(self):
        return "OrderCodec(%d vars)" % (self.nvars,)
