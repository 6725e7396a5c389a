"""Polynomial text format shared by all I/O.

Grammar (whitespace-tolerant):

  poly   := ['+'|'-'] term (('+'|'-') term)*
  term   := factor ('*' factor)*
  factor := number | variable ['^' nat]
  number := nat ['/' nat]
  variable := 'x_(' nat ',' nat ')' | 't_' nat

Rendering writes terms in the ring's monomial order, descending.  Within
a monomial, factors are printed t-variables first (ascending index),
then x-variables (ascending (i,j)).  parse(render(f)) == f exactly.
"""

import re
from fractions import Fraction

from .fields import GF, QQ
from .monomials import MAX_EXP
from .rings import ring_for


class ParseError(ValueError):
    def __init__(self, msg, pos):
        super().__init__("%s (at position %d)" % (msg, pos))
        self.pos = pos


# -- rendering ---------------------------------------------------------------

def _coeff_str(c):
    if isinstance(c, Fraction) and c.denominator != 1:
        return "%d/%d" % (c.numerator, c.denominator)
    return "%d" % c


def _var_sort_key(name):
    if name.startswith("t_"):
        return (0, int(name[2:]), 0)
    i, j = name[3:-1].split(",")
    return (1, int(i), int(j))


def render(poly):
    ring = poly.ring
    if not poly.terms:
        return "0"
    order = sorted(range(len(ring.names)), key=lambda k: _var_sort_key(ring.names[k]))
    parts = []
    one = ring.field.one()
    for m, c in poly.terms:
        exps = ring.codec.unpack(m)
        factors = []
        for k in order:
            e = exps[k]
            if e == 1:
                factors.append(ring.names[k])
            elif e > 1:
                factors.append("%s^%d" % (ring.names[k], e))
        neg = c < 0  # QQ only; GF coefficients are canonical in [0, p)
        mag = -c if neg else c
        if not factors:
            body = _coeff_str(mag)
        elif mag == one:
            body = "*".join(factors)
        else:
            body = _coeff_str(mag) + "*" + "*".join(factors)
        parts.append(("-" if neg else "+", body))
    sign, body = parts[0]
    out = [body if sign == "+" else "-" + body]
    for sign, body in parts[1:]:
        out.append(" %s %s" % (sign, body))
    return "".join(out)


# -- parsing -----------------------------------------------------------------

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<xvar>x_\(\s*(?P<xi>\d+)\s*,\s*(?P<xj>\d+)\s*\))
  | (?P<tvar>t_(?P<ti>\d+))
  | (?P<num>\d+)
  | (?P<op>[-+*/^])
""", re.VERBOSE)


def _tokenize(s):
    toks = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise ParseError("unexpected character %r" % s[pos], pos)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            if kind == "xvar":
                toks.append(("var", "x_(%s,%s)" % (m.group("xi"), m.group("xj")), pos))
            elif kind == "tvar":
                toks.append(("var", "t_%s" % m.group("ti"), pos))
            elif kind == "num":
                toks.append(("num", int(m.group("num")), pos))
            elif kind == "op":
                toks.append(("op", m.group("op"), pos))
        pos = m.end()
    toks.append(("end", None, len(s)))
    return toks


class _Parser:
    def __init__(self, toks, ring):
        self.toks = toks
        self.i = 0
        self.ring = ring
        self.vindex = {nm: k for k, nm in enumerate(ring.names)}

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_num(self, what):
        kind, val, pos = self.take()
        if kind != "num":
            raise ParseError("expected %s" % what, pos)
        return val

    def parse_poly(self):
        ring = self.ring
        total = ring.zero()
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        if self.peek()[0] == "end":
            raise ParseError("empty polynomial", self.peek()[2])
        while True:
            total = total + self.parse_term(sign)
            kind, val, pos = self.peek()
            if kind == "end":
                return total
            if kind == "op" and val in "+-":
                self.take()
                sign = -1 if val == "-" else 1
                continue
            raise ParseError("expected '+' or '-'", pos)

    def parse_term(self, sign):
        ring = self.ring
        acc = ring.const(sign)
        acc_exps = None
        while True:
            kind, val, pos = self.peek()
            if kind == "num":
                self.take()
                num = val
                den = 1
                k2, v2, _ = self.peek()
                if k2 == "op" and v2 == "/":
                    self.take()
                    den = self.expect_num("denominator")
                    if ring.field.is_zero(ring.field.from_int(den)):
                        raise ParseError("denominator vanishes in %r"
                                         % ring.field, pos)
                acc = acc * ring.const(ring.field.from_fraction(num, den))
            elif kind == "var":
                self.take()
                if val not in self.vindex:
                    raise ParseError("unknown variable %s" % val, pos)
                e = 1
                k2, v2, _ = self.peek()
                if k2 == "op" and v2 == "^":
                    self.take()
                    e = self.expect_num("exponent")
                if acc_exps is None:
                    acc_exps = [0] * len(ring.names)
                acc_exps[self.vindex[val]] += e
                if acc_exps[self.vindex[val]] > MAX_EXP:
                    raise ParseError("exponent of %s exceeds %d"
                                     % (val, MAX_EXP), pos)
            else:
                raise ParseError("expected a number or variable", pos)
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                continue
            break
        if acc_exps is not None:
            acc = acc * ring.from_exp_terms([(tuple(acc_exps), ring.field.one())])
        return acc


def parse(s, ring):
    """Parse a polynomial in `ring`'s variables."""
    return _Parser(_tokenize(s), ring).parse_poly()


# -- CAS-portable ideal files -------------------------------------------------

def emit_cas(gens, ring):
    """Header naming ring and order, then one generator per line."""
    head = "ring: %r[%s], order: grevlex" % (ring.field, ",".join(ring.names))
    return "\n".join([head] + [render(g) for g in gens]) + "\n"


_HEAD = re.compile(r"^ring:\s*(QQ|GF\((\d+)\))\[(.*)\],\s*order:\s*(\w+)\s*$")
_VAR = re.compile(r"x_\((\d+),(\d+)\)|t_(\d+)")


def parse_cas(text):
    """Inverse of emit_cas: returns (ring, [gens]).  The header must name
    grevlex, the one monomial order, and a standard ring."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty input", 0)
    m = _HEAD.match(lines[0])
    if not m:
        raise ParseError("bad header line", 0)
    if m.group(4) != "grevlex":
        raise ParseError("unknown order %r (only grevlex is supported)"
                         % m.group(4), 0)
    field = QQ
    if m.group(2) is not None:
        try:
            field = GF(int(m.group(2)) or -1)   # GF(0) does not name QQ
        except ValueError:
            raise ParseError("GF(%s): need a prime below 2**31"
                             % m.group(2), 0) from None
    # x_(i,j) names contain a comma; split only outside the parentheses
    names = [nm.strip() for nm in re.split(r",(?![^(]*\))", m.group(3))]
    f = 0
    for nm in names:
        v = _VAR.fullmatch(nm)
        if not v:
            raise ParseError("bad variable name %r" % nm, 0)
        f = max(f, int(v.group(2) or v.group(3)))
    if f < 2:
        raise ParseError("variable list is not a standard ring", 0)
    vars = "xt" if any(nm.startswith("t_") for nm in names) else "x"
    ring = ring_for(f, field, vars=vars)
    if list(ring.names) != names:
        raise ParseError("variable list is not the standard ring for f=%d" % f, 0)
    return ring, [parse(ln, ring) for ln in lines[1:]]
