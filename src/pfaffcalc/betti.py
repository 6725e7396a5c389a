"""Bigraded Betti tables."""


class BettiTable:
    """Counts of free-module generators: (homological index i, bidegree
    (a,b)) -> multiplicity."""

    def __init__(self, data=None):
        self.data = {}
        if data:
            for key, c in dict(data).items():
                self.add(key[0], key[1], c)

    def add(self, i, bideg, count=1):
        if count:
            key = (i, (bideg[0], bideg[1]))
            self.data[key] = self.data.get(key, 0) + count
            if self.data[key] == 0:
                del self.data[key]

    def totals(self):
        """[beta_0, beta_1, ...] summed over degrees."""
        if not self.data:
            return []
        top = max(i for i, _ in self.data)
        out = [0] * (top + 1)
        for (i, _), c in self.data.items():
            out[i] += c
        return out

    def by_total_degree(self):
        """{(i, a+b): count}"""
        out = {}
        for (i, (a, b)), c in self.data.items():
            out[(i, a + b)] = out.get((i, a + b), 0) + c
        return out

    def length(self):
        """Largest i with a nonzero entry (projective dimension for a
        minimal table); -1 if empty."""
        return max((i for i, _ in self.data), default=-1)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.data == other.data

    def __repr__(self):
        return "BettiTable(%r)" % (self.data,)

    def pretty(self, bigraded=False):
        if not self.data:
            return "(zero table)"
        if bigraded:
            lines = []
            for (i, (a, b)) in sorted(self.data):
                lines.append("beta[%d, (%d,%d)] = %d" % (i, a, b, self.data[(i, (a, b))]))
            return "\n".join(lines)
        bydeg = self.by_total_degree()
        imax = max(i for i, _ in bydeg)
        jmin = min(d - i for (i, d) in bydeg)
        jmax = max(d - i for (i, d) in bydeg)
        cols = ["%6d" % i for i in range(imax + 1)]
        lines = ["      " + "".join(cols)]
        totals = [0] * (imax + 1)
        for r in range(jmin, jmax + 1):
            row = []
            for i in range(imax + 1):
                c = bydeg.get((i, i + r), 0)
                totals[i] += c
                row.append("%6s" % (c if c else "."))
            lines.append("%4d: " % r + "".join(row))
        lines.append("total:" + "".join("%6d" % t for t in totals))
        return "\n".join(lines)

    def to_json_obj(self, bigraded=False):
        if bigraded:
            return [{"i": i, "jx": a, "jt": b, "count": c}
                    for (i, (a, b)), c in sorted(self.data.items())]
        return [{"i": i, "j": d, "count": c}
                for (i, d), c in sorted(self.by_total_degree().items())]
