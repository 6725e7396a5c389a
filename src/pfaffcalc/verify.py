"""Verification suites: named batteries of machine checks, each tied to
a self-describing claim string, reported with per-check verdicts.

A suite runs over a grid of ranks ``f`` and coefficient characteristics
(0 for the rationals, a prime p for GF(p)) with a seed for the
randomized trials.  Checks outside a family's supported grid are simply
not emitted.  With a wall-clock budget, checks that would start after
the budget is spent get the verdict ``skipped (budget)`` and the run is
reported ``incomplete`` — distinct from ``fail``.  A check that raises
anything other than ``CheckFailure`` certifies nothing either way: it
gets the verdict ``error`` with the exception type and message, and the
run is reported ``error`` unless some check failed (precedence: fail >
error > incomplete > pass).

JSON reports are deterministic for a fixed (suite, grid, seed): check
order is fixed, keys are sorted, and timings are omitted.  Text reports
carry the timings.
"""

import json
import random
import time
from math import comb

from .constructions import (_PFAFFIANS, build_complex, build_ideal,
                            map_matrix, mapping_cone_betti,
                            module_presentation, s1_s2_sets, tx_entries)
from .exterior import (AlternatingMatrix, ExteriorElement, all_subsets,
                       determinant_oracle, pfaffian_oracle)
from .fields import CoefficientField, GF, QQ
from .groebner import (dimension_codim, groebner_basis, ideal_quotient,
                       same_ideal, saturation_member)
from .homology import (ModuleSpan, betti_palindrome_check,
                       char2_anomaly_check, homology_is_zero, quotient_span)
from .linoracle import oracle_betti
# free_resolution is not called here, but the benchmark's tracer test
# reads verify.free_resolution, so the name stays bound in this module
from .resolutions import (composite, free_resolution, minimalize,
                          schreyer_frame, strand_betti, vecs_of_matrix)
from .rings import ring_for

SUITE_NAMES = ("exterior-identities", "complex-closure", "grades",
               "exactness", "resolutions", "gorenstein", "localization",
               "char-anomaly")

PASS = "pass"
FAIL = "fail"
ERROR = "error"
SKIPPED = "skipped (budget)"


def _pick(requested, supported):
    return [v for v in requested if v in supported]


class CheckFailure(Exception):
    """Raised by a check body to fail with an explanation."""


class _Check:
    __slots__ = ("name", "claim", "fn")

    def __init__(self, name, claim, fn):
        self.name = name
        self.claim = claim
        self.fn = fn


class CheckResult:
    __slots__ = ("name", "claim", "verdict", "detail", "seconds")

    def __init__(self, name, claim, verdict, detail, seconds):
        self.name = name
        self.claim = claim
        self.verdict = verdict
        self.detail = detail
        self.seconds = seconds


class SuiteReport:
    """Outcome of one suite run over one grid."""

    __slots__ = ("suite", "fs", "chars", "seed", "checks")

    def __init__(self, suite, fs, chars, seed, checks):
        self.suite = suite
        self.fs = list(fs)
        self.chars = list(chars)
        self.seed = seed
        self.checks = list(checks)

    @property
    def status(self):
        if any(c.verdict == FAIL for c in self.checks):
            return "fail"
        if any(c.verdict == ERROR for c in self.checks):
            return "error"
        if any(c.verdict == SKIPPED for c in self.checks):
            return "incomplete"
        return "pass"

    def to_json_obj(self):
        return {
            "suite": self.suite,
            "grid": {"f": self.fs, "char": self.chars, "seed": self.seed},
            "status": self.status,
            "checks": [{"name": c.name, "claim": c.claim,
                        "verdict": c.verdict, "detail": c.detail}
                       for c in self.checks],
        }

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"

    def to_text(self):
        lines = ["suite: %s" % self.suite,
                 "grid: f=%s char=%s seed=%d"
                 % (",".join(map(str, self.fs)),
                    ",".join(map(str, self.chars)), self.seed),
                 "status: %s (%d checks: %d pass, %d fail, %d error, "
                 "%d skipped)"
                 % (self.status, len(self.checks),
                    sum(c.verdict == PASS for c in self.checks),
                    sum(c.verdict == FAIL for c in self.checks),
                    sum(c.verdict == ERROR for c in self.checks),
                    sum(c.verdict == SKIPPED for c in self.checks))]
        for c in self.checks:
            head = "[%s] %s" % (c.verdict, c.name)
            if c.seconds is not None:
                head += " (%.2fs)" % c.seconds
            lines.append(head)
            lines.append("    claim: %s" % c.claim)
            if c.detail:
                for ln in c.detail.splitlines():
                    lines.append("    %s" % ln)
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# randomized element helpers


def _rng_for(seed, *tags):
    return random.Random("%d|%s" % (seed, "|".join(map(str, tags))))


def _rand_const(field, rng):
    if field.char == 0:
        return rng.randrange(-9, 10)
    return rng.randrange(field.char)


def _rand_form(field, f, rng, side, k):
    """One seeded draw per increasing k-subset of 1..f, zeros dropped."""
    terms = {}
    for S in all_subsets(f, k):
        c = _rand_const(field, rng)
        if not field.is_zero(c):
            terms[S] = c
    return ExteriorElement(field, side, k, terms)


def _trial_count(char):
    return 20 if char == 0 else 100


# --------------------------------------------------------------------------
# exterior-identities suite


def _id_leibniz(f, char, seed):
    field = CoefficientField(char)
    rng = _rng_for(seed, "leibniz", f, char)
    n = _trial_count(char)
    shapes = [(q, p) for q in (1, 2, 3) for p in (q, q + 1)
              if p <= f and q <= f]
    for t in range(n):
        q, p = shapes[t % len(shapes)]
        f1 = _rand_form(field, f, rng, "primal", 1)
        phi = _rand_form(field, f, rng, "dual", q)
        fp = _rand_form(field, f, rng, "primal", p)
        lhs = f1.act(phi).act(fp)
        mid = f1.wedge(phi.act(fp))
        last = phi.act(f1.wedge(fp))
        # the sign is (-1)^(1+q): plus for odd q, minus for even q
        rhs = mid + last if q % 2 else mid - last
        if lhs != rhs:
            raise CheckFailure("trial %d (q=%d, p=%d) violates the "
                               "exchange rule" % (t, q, p))
    return "%d trials over shapes %s" % (n, shapes)


def _id_double_contraction(f, char, seed):
    field = CoefficientField(char)
    rng = _rng_for(seed, "double", f, char)
    n = _trial_count(char)
    for t in range(n):
        f2 = _rand_form(field, f, rng, "primal", 2)
        phi3 = _rand_form(field, f, rng, "dual", 3)
        lhs = f2.act(phi3).act(f2)
        rhs = phi3.act(f2.divided_power())
        if lhs != rhs:
            raise CheckFailure("trial %d violates the divided-square "
                               "pairing" % t)
    return "%d trials" % n


def _id_three_term(f, char, seed):
    field = CoefficientField(char)
    rng = _rng_for(seed, "threeterm", f, char)
    n = _trial_count(char)
    for t in range(n):
        f2 = _rand_form(field, f, rng, "primal", 2)
        a, b, c = (_rand_form(field, f, rng, "dual", 1) for _ in range(3))
        lhs = f2.act(a.wedge(b).wedge(c))
        rhs = (c.scale(f2.act(a.wedge(b)).coeff(()))
               - b.scale(f2.act(a.wedge(c)).coeff(()))
               + a.scale(f2.act(b.wedge(c)).coeff(())))
        if lhs != rhs:
            raise CheckFailure("trial %d violates the three-term "
                               "expansion" % t)
    return "%d trials" % n


def _id_divided_leibniz(f, char, seed):
    field = CoefficientField(char)
    rng = _rng_for(seed, "gamma", f, char)
    n = _trial_count(char)
    for t in range(n):
        tau = _rand_form(field, f, rng, "dual", 1)
        v = _rand_form(field, f, rng, "primal", 2)
        w = _rand_form(field, f, rng, "primal", 2)
        if tau.act(v.divided_power()) != tau.act(v).wedge(v):
            raise CheckFailure("trial %d: tau(v^(2)) != tau(v) ^ v" % t)
        lhs = tau.act(v.wedge(w))
        rhs = tau.act(v).wedge(w) + tau.act(w).wedge(v)
        if lhs != rhs:
            raise CheckFailure("trial %d: tau(v ^ w) != tau(v) ^ w + "
                               "tau(w) ^ v" % t)
    return "%d trials" % n


def _id_compat(f, char, seed):
    field = CoefficientField(char)
    rng = _rng_for(seed, "compat", f, char)
    n = _trial_count(char)
    for t in range(n):
        k = 1 + (t % min(3, f))
        fk = _rand_form(field, f, rng, "primal", k)
        pk = _rand_form(field, f, rng, "dual", k)
        # both pairings land in degree 0; compare the scalars
        if pk.act(fk).coeff(()) != fk.act(pk).coeff(()):
            raise CheckFailure("trial %d (degree %d): the two pairings "
                               "disagree" % (t, k))
    return "%d trials" % n


def _id_half_factorization(f, char, seed):
    field = CoefficientField(char)
    rng = _rng_for(seed, "half", f, char)
    half = field.from_fraction(1, 2)
    n = _trial_count(char)
    for t in range(n):
        xi = _rand_form(field, f, rng, "primal", 2)
        phi1 = _rand_form(field, f, rng, "dual", 1)
        phi4 = _rand_form(field, f, rng, "dual", 4)
        lhs = phi1.scale(xi.divided_power().act(phi4).coeff(()))
        inner = phi1.act(xi).act(phi4) + xi.act(phi1.wedge(phi4)).scale(half)
        if lhs != xi.act(inner):
            raise CheckFailure("trial %d violates the factorization" % t)
    return "%d trials" % n


def _id_pfaffian_det(seed):
    ring = ring_for(6, QQ, vars="x")
    rng = _rng_for(seed, "pfdet")
    for t in range(20):
        upper = {(i, j): ring.const(rng.randrange(-99, 100))
                 for i in range(1, 7) for j in range(i + 1, 7)}
        A = AlternatingMatrix(ring, 6, upper)
        pf = pfaffian_oracle(A)
        M = [[A.entry(i, j) for j in range(1, 7)] for i in range(1, 7)]
        if pf * pf != determinant_oracle(M):
            raise CheckFailure("matrix %d: Pf^2 != det" % t)
    return "20 random 6x6 alternating matrices over QQ"


def _exterior_checks(fs, chars, seed):
    families = [
        ("contract-vector-leibniz",
         "contracting a vector through a coform is a graded derivation: "
         "(f1(phi_q))(f_p) = f1 ^ phi_q(f_p) + (-1)^(1+q) phi_q(f1 ^ f_p)",
         _id_leibniz),
        ("double-contraction-divided-square",
         "a 2-form contracted twice through a 3-coform pairs with its "
         "divided square: [f2(phi3)](f2) = phi3(f2^(2))",
         _id_double_contraction),
        ("three-coform-expansion",
         "a 2-form expands a triple wedge of coforms by the signed "
         "three-term rule: f2(a^b^c) = f2(a^b) c - f2(a^c) b + f2(b^c) a",
         _id_three_term),
        ("divided-power-derivation",
         "coform contraction is a derivation on divided powers of even "
         "forms: tau(v^(2)) = tau(v) ^ v and tau(v^w) = tau(v)^w + tau(w)^v",
         _id_divided_leibniz),
        ("pairing-compatibility",
         "the two module actions agree in matching degrees: "
         "phi_k(f_k) = f_k(phi_k)",
         _id_compat),
        ("half-factorization",
         "when 2 is invertible the squared 2-form action factors: "
         "xi^(2)(phi4) phi1 = xi([phi1(xi)](phi4) + (1/2) xi(phi1 ^ phi4))",
         _id_half_factorization),
    ]
    checks = []
    for name, claim, fn in families:
        for f in _pick(fs, (4, 5, 6)):
            for char in chars:
                if name == "half-factorization" and char == 2:
                    continue
                field = CoefficientField(char)
                checks.append(_Check(
                    "%s[f=%d,%s]" % (name, f, field), claim,
                    (lambda fn=fn, f=f, char=char: fn(f, char, seed))))
    if _pick(fs, (4, 5, 6)):
        checks.append(_Check(
            "pfaffian-squares-to-determinant",
            "the Pfaffian of an alternating matrix squares to its "
            "determinant on random 6x6 instances",
            lambda: _id_pfaffian_det(seed)))
    return checks


# --------------------------------------------------------------------------
# complex-closure suite


def _closure_relation_maps(f, char):
    ring = ring_for(f, CoefficientField(char))
    (G, order), (H, order_next) = (vecs_of_matrix(map_matrix(name, ring))
                                   for name in ("D1", "D2"))
    if len(G) != order_next.rank:
        raise ValueError("dimension mismatch in composition")
    if any(composite(v, order_next, G, order, ring.field) for v in H):
        raise CheckFailure("the composite of the two relation maps is "
                           "a nonzero matrix")
    return "composite is the zero %dx%d matrix" % (order.rank, len(H))


def _closure_complex(name, f, char):
    ring = ring_for(f, CoefficientField(char))
    C = build_complex(name, ring)
    maps = [vecs_of_matrix(M) for M in C.maps]
    quotient = quotient_span(C)
    counted = 0
    for k in range(len(C.maps) - 1):
        (G, order), (H, order_next) = maps[k:k + 2]
        term = C.terms[k]
        span = ModuleSpan(ring, term.rank, term.extra_relations,
                          twists=term.degs, quotient=quotient)
        for v in H:
            if not span.contains_column(
                    composite(v, order_next, G, order, ring.field)):
                raise CheckFailure(
                    "a composite column at position %d lies outside the "
                    "designated relations" % k)
            counted += 1
    return "%d composite columns vanish modulo the designated relations" \
        % counted


def _closure_checks(fs, chars, seed):
    checks = []
    for char in chars:
        field = CoefficientField(char)
        for f in _pick(fs, (4, 5)):
            checks.append(_Check(
                "relation-maps-compose-to-zero[f=%d,%s]" % (f, field),
                "the two explicit relation matrices of the bigraded "
                "quotient compose to the zero matrix",
                lambda f=f, char=char: _closure_relation_maps(f, char)))
        for name, fmin in (("precplx", 3), ("seq32", 3), ("seq43", 2)):
            for f in _pick(fs, tuple(range(fmin, 7))):
                checks.append(_Check(
                    "composites-vanish[%s,f=%d,%s]" % (name, f, field),
                    "consecutive maps of the assembled complex compose to "
                    "zero modulo the designated relations of each target",
                    lambda name=name, f=f, char=char:
                        _closure_complex(name, f, char)))
    return checks


# --------------------------------------------------------------------------
# grades suite


def _codim_check(kind, f, char, expected, lam=None):
    ring = ring_for(f, CoefficientField(char))
    gens = build_ideal(kind, ring, lam=lam)
    hd = dimension_codim(groebner_basis(gens, ring))
    if hd.codim != expected:
        raise CheckFailure("codimension %d, expected %d" %
                           (hd.codim, expected))
    return "codim %d, dim %d, Hilbert numerator %s" % (
        hd.codim, hd.dim, list(hd.numerator))


def _grades_checks(fs, chars, seed):
    checks = []
    for char in chars:
        field = CoefficientField(char)
        for f in _pick(fs, (2, 3, 4, 5, 6)):
            expected = {2: 1, 3: 2}.get(f, comb(f - 2, 2) + 2)
            checks.append(_Check(
                "codim-sum-ideal[f=%d,%s]" % (f, field),
                "the quotient by the sum of the Pfaffian ideal and the "
                "row ideal has codimension C(f-2,2)+2 for f >= 4, with "
                "the degenerate values 1 at f=2 and 2 at f=3",
                lambda f=f, char=char, e=expected:
                    _codim_check("J", f, char, e)))
        for f in _pick(fs, (4, 5, 6)):
            checks.append(_Check(
                "codim-pfaffian-ideal[f=%d,%s]" % (f, field),
                "the ideal of rank-4 Pfaffian coefficients has the "
                "generic-alternating codimension C(f-2,2)",
                lambda f=f, char=char:
                    _codim_check("I", f, char, comb(f - 2, 2))))
            for lam in range(1, f):
                checks.append(_Check(
                    "codim-partial-row-ideal[f=%d,lam=%d,%s]"
                    % (f, lam, field),
                    "adding the first lam entries of the row product to "
                    "the Pfaffian ideal raises the codimension to "
                    "C(f-2,2) + lam - 1",
                    lambda f=f, char=char, lam=lam:
                        _codim_check("Ilambda", f, char,
                                     comb(f - 2, 2) + lam - 1, lam=lam)))
    return checks


# --------------------------------------------------------------------------
# exactness suite


def _exactness_check(name, f, char):
    ring = ring_for(f, CoefficientField(char))
    C = build_complex(name, ring)
    bad = [p for p in C.exact_positions if not homology_is_zero(C, p)]
    if bad:
        raise CheckFailure("homology is nonzero at positions %s" % bad)
    return "homology vanishes at positions %s" % (list(C.exact_positions),)


def _exactness_checks(fs, chars, seed):
    checks = []
    for char in chars:
        field = CoefficientField(char)
        for name, fmin in (("seq32", 3), ("seq43", 2), ("precplx", 3)):
            for f in _pick(fs, tuple(range(fmin, 6))):
                checks.append(_Check(
                    "homology-vanishes[%s,f=%d,%s]" % (name, f, field),
                    "the assembled complex is exact at every interior "
                    "position, computed as kernel membership in the span "
                    "of the incoming columns and designated relations",
                    lambda name=name, f=f, char=char:
                        _exactness_check(name, f, char)))
    return checks


# --------------------------------------------------------------------------
# resolutions suite


def _table_str(B):
    return ", ".join("(%d,(%d,%d)): %d" % (i, a, b, c)
                     for (i, (a, b)), c in sorted(B.data.items()))


# (presentation, Betti table) pairs by (module, ring), shared by the
# checks of one run_suite call, which empties it when it starts and when
# it ends.  Only a table whose two routes agreed is stored, so a failure
# or a crash repeats in every check that asks for the table again.
_TABLES = {}


def _resolve_both_routes(module, ring):
    """The module's presentation and its Betti table, computed by the
    matrix route and the rank route, which must agree.  The Schreyer
    frame is built once and read by both routes: first by the rank
    route, which leaves it as it was, then by the matrix route, which
    consumes it (a consumed frame raises ValueError, an error verdict).
    No length is capped here: each check compares the table's length
    with its claim, so a resolution longer than claimed is a certified
    fail."""
    key = (module, ring)
    if key not in _TABLES:
        pres = module_presentation(module, ring)
        frame = schreyer_frame(pres)
        B2 = strand_betti(frame)
        B = minimalize(frame)[1]
        if B.data != B2.data:
            raise CheckFailure("matrix-route and rank-route Betti tables "
                               "disagree: %s vs %s"
                               % (_table_str(B), _table_str(B2)))
        _TABLES[key] = (pres, B)
    return _TABLES[key]


def _rj_resolution_check(f, char, expect_totals):
    ring = ring_for(f, CoefficientField(char))
    _, B = _resolve_both_routes("RJ", ring)
    if B.totals() != expect_totals:
        raise CheckFailure("total Betti numbers %s, expected %s"
                           % (B.totals(), expect_totals))
    length = comb(f - 2, 2) + 2
    if B.length() != length:
        raise CheckFailure("length %d, expected %d" % (B.length(), length))
    if B.totals()[-1] != 1:
        raise CheckFailure("last Betti number is %d, not 1"
                           % B.totals()[-1])
    return "totals %s, length %d, last Betti number 1; both routes agree" \
        % (B.totals(), B.length())


def _rj_oracle_check(f, char):
    ring = ring_for(f, CoefficientField(char))
    pres, B = _resolve_both_routes("RJ", ring)
    O = oracle_betti(pres)
    if B.data != O.data:
        raise CheckFailure("engine table %s disagrees with the "
                           "degreewise-rank oracle %s"
                           % (_table_str(B), _table_str(O)))
    return "engine and degreewise-rank oracle agree: %s" % _table_str(B)


def _pd_check(f, char):
    ring = ring_for(f, CoefficientField(char), vars="x")
    expected = comb(f - 2, 2)
    _, B = _resolve_both_routes("N", ring)
    if B.length() != expected:
        raise CheckFailure("projective dimension %d, expected %d"
                           % (B.length(), expected))
    return "projective dimension %d, totals %s" % (B.length(), B.totals())


def _mapping_cone_check(char):
    ringx = ring_for(4, CoefficientField(char), vars="x")
    _, BA = _resolve_both_routes("A", ringx)
    _, BN = _resolve_both_routes("N", ringx)
    predicted = mapping_cone_betti(BA, BN)
    ring = ring_for(4, CoefficientField(char))
    _, direct = _resolve_both_routes("RJ", ring)
    if predicted.data != direct.data:
        raise CheckFailure("iterated-cone prediction %s differs from the "
                           "direct bigraded table %s"
                           % (_table_str(predicted), _table_str(direct)))
    return "cone-assembled and directly-computed bigraded tables agree: %s" \
        % _table_str(direct)


def _resolution_checks(fs, chars, seed):
    checks = []
    rj_totals = {4: [1, 5, 5, 1], 5: [1, 10, 16, 16, 10, 1]}
    for char in chars:
        field = CoefficientField(char)
        if char != 2:
            for f in _pick(fs, (4, 5)):
                checks.append(_Check(
                    "bigraded-quotient-resolution[f=%d,%s]"
                    % (f, field),
                    "the minimal bigraded resolution of the quotient by "
                    "the combined ideal has length C(f-2,2)+2 and last "
                    "Betti number 1, by two independent rank routes",
                    lambda f=f, char=char: _rj_resolution_check(
                        f, char, rj_totals[f])))
            for f in _pick(fs, (4,)):
                checks.append(_Check(
                    "betti-against-rank-oracle[f=%d,%s]" % (f, field),
                    "every graded Betti number of the bigraded quotient "
                    "matches the degreewise linear-algebra oracle, a code "
                    "path with no division steps",
                    lambda f=f, char=char: _rj_oracle_check(f, char)))
        for f in _pick(fs, (4, 5)):
            checks.append(_Check(
                "cokernel-projective-dimension[f=%d,%s]" % (f, field),
                "the cokernel of the Pfaffian-linear differential has "
                "projective dimension C(f-2,2) over the x-variable ring",
                lambda f=f, char=char: _pd_check(f, char)))
        if 4 in fs and char != 2:
            checks.append(_Check(
                "iterated-cone-assembly[f=4,%s]" % field,
                "the bigraded Betti table assembled from the two "
                "x-variable tables by the three-strand twist rule equals "
                "the directly computed table",
                lambda char=char: _mapping_cone_check(char)))
    return checks


# --------------------------------------------------------------------------
# gorenstein suite


def _palindrome_check(module, f, char):
    if module == "N":
        ring = ring_for(f, CoefficientField(char), vars="x")
        codim = comb(f - 2, 2)
    else:
        ring = ring_for(f, CoefficientField(char))
        codim = comb(f - 2, 2) + 2
    _, B = _resolve_both_routes(module, ring)
    rep = betti_palindrome_check(B, codim)
    if not rep.ok:
        raise CheckFailure("Betti table is not palindromic: totals %s"
                           % B.totals())
    return "palindromic of length %d with shift %d; totals %s" % (
        rep.c, rep.sigma, B.totals())


def _gorenstein_checks(fs, chars, seed):
    checks = []
    for char in chars:
        field = CoefficientField(char)
        for f in _pick(fs, (4, 5)):
            checks.append(_Check(
                "self-dual-cokernel-table[f=%d,%s]" % (f, field),
                "the Betti table of the differential cokernel reads the "
                "same forwards and backwards (beta_i,j = beta_(c-i),"
                "(sigma-j))",
                lambda f=f, char=char: _palindrome_check("N", f, char)))
            checks.append(_Check(
                "self-dual-quotient-table[f=%d,%s]" % (f, field),
                "the total-degree Betti table of the bigraded quotient "
                "is palindromic with last Betti number 1",
                lambda f=f, char=char: _palindrome_check("RJ", f, char)))
    return checks


# --------------------------------------------------------------------------
# localization suite


def _s2_membership_check(f, char):
    ring = ring_for(f, CoefficientField(char))
    gbJ = groebner_basis(build_ideal("J", ring), ring)
    _, s2 = s1_s2_sets(ring)
    missing = sum(1 for s in s2 if not gbJ.contains(s))
    if missing:
        raise CheckFailure("%d designated local generators lie outside "
                           "the ideal" % missing)
    return "all %d local generators are members" % len(s2)


def _s2_inversion_check(f, char):
    ring = ring_for(f, CoefficientField(char))
    _, s2 = s1_s2_sets(ring)
    gb2 = groebner_basis(s2, ring)
    x12 = ring.x(1, 2)
    sq = x12 * x12
    gens = build_ideal("J", ring)
    for g in gens:
        if not gb2.contains(sq * g):
            raise CheckFailure("x_(1,2)^2 times a generator is not in the "
                               "local generator ideal")
    return "x_(1,2)^2 carries all %d generators into the local ideal" \
        % len(gens)


def _saturation_check(char):
    ring = ring_for(4, CoefficientField(char))
    tx = tx_entries(ring)
    target = build_ideal("I", ring) + [tx[0], tx[1]]
    x12 = ring.x(1, 2)
    worst = 0
    for g in build_ideal("J", ring):
        ok, n = saturation_member(target, x12, g, 4)
        if not ok:
            raise CheckFailure("no exponent up to 4 clears a generator "
                               "into the two-entry ideal")
        worst = max(worst, n)
    return "every generator clears with exponent <= %d" % worst


def _colon_check(kind, f, char):
    ring = ring_for(f, CoefficientField(char))
    gens = build_ideal(kind, ring)
    x12, x13 = ring.x(1, 2), ring.x(1, 3)
    if not same_ideal(ideal_quotient(gens, x12), gens):
        raise CheckFailure("(ideal : x_(1,2)) is strictly larger")
    step = gens + [x12]
    if not same_ideal(ideal_quotient(step, x13), step):
        raise CheckFailure("((ideal + x_(1,2)) : x_(1,3)) is strictly "
                           "larger")
    return "x_(1,2) and then x_(1,3) are nonzerodivisors on the " \
        "successive quotients"


def _localization_checks(fs, chars, seed):
    checks = []
    for char in chars:
        field = CoefficientField(char)
        for f in _pick(fs, (4, 5)):
            checks.append(_Check(
                "local-generators-membership[f=%d,%s]" % (f, field),
                "the pivot-row Pfaffians and the two pivot entries of the "
                "row product all lie in the combined ideal",
                lambda f=f, char=char: _s2_membership_check(f, char)))
            checks.append(_Check(
                "pivot-square-inversion[f=%d,%s]" % (f, field),
                "after multiplying by the square of the pivot variable, "
                "every generator of the combined ideal lands in the ideal "
                "of designated local generators",
                lambda f=f, char=char: _s2_inversion_check(f, char)))
            checks.append(_Check(
                "pfaffian-colon-regularity[f=%d,%s]" % (f, field),
                "the pivot variable and then its row-mate are successive "
                "nonzerodivisors modulo the Pfaffian ideal",
                lambda f=f, char=char: _colon_check("I", f, char)))
            checks.append(_Check(
                "combined-colon-regularity[f=%d,%s]" % (f, field),
                "the pivot variable and then its row-mate are successive "
                "nonzerodivisors modulo the combined ideal",
                lambda f=f, char=char: _colon_check("J", f, char)))
        if 4 in fs:
            checks.append(_Check(
                "pivot-power-saturation[f=4,%s]" % field,
                "a power of the pivot variable, of exponent at most 4, "
                "carries every generator of the combined ideal into the "
                "Pfaffian ideal plus the first two row-product entries",
                lambda char=char: _saturation_check(char)))
    return checks


# --------------------------------------------------------------------------
# char-anomaly suite


def _char_anomaly_check():
    # the resolutions suite's projective-dimension checks at f = 5 ask for
    # the same two tables, so under --suite all no frame is built here
    rep = char2_anomaly_check(*(_resolve_both_routes(
        "N", ring_for(5, F, vars="x")) for F in (GF(2), QQ)))
    if not rep.ok:
        raise CheckFailure("anomaly report:\n" + "\n".join(rep.lines()))
    return "\n".join(rep.lines())


def _char_anomaly_checks(fs, chars, seed):
    if 5 not in fs:
        return []
    return [_Check(
        "presentation-depends-on-characteristic[f=5]",
        "the full Pfaffian is a cokernel relation in characteristic 2 "
        "but not a column of the differential, while in characteristic 0 "
        "an explicit half-integral preimage exists; the first Betti "
        "number jumps while the projective dimension stays 3",
        _char_anomaly_check)]


# --------------------------------------------------------------------------
# suite driver

_SUITE_BUILDERS = {
    "exterior-identities": (_exterior_checks, (4, 5, 6), (0, 32003)),
    "complex-closure": (_closure_checks, (3, 4, 5, 6), (0, 32003)),
    "grades": (_grades_checks, (2, 3, 4, 5, 6), (0, 32003)),
    "exactness": (_exactness_checks, (2, 3, 4, 5), (0, 2)),
    "resolutions": (_resolution_checks, (4, 5), (0, 2, 32003)),
    "gorenstein": (_gorenstein_checks, (4, 5), (0,)),
    "localization": (_localization_checks, (4, 5), (0, 32003)),
    "char-anomaly": (_char_anomaly_checks, (5,), (0, 2)),
}


def run_suite(suite, fs=None, chars=None, seed=0, budget_seconds=None):
    """Run one named suite (or 'all') over the given grid.  Raises
    ValueError, before any check runs, for an unknown suite, a grid that
    repeats a value (its checks would run twice under one name), or a
    grid that selects no check, whose report would read "pass" on
    nothing."""
    for what, values in (("f", fs), ("char", chars)):
        if values is not None and len(set(values)) != len(values):
            raise ValueError("the grid repeats a value of %s: %s"
                             % (what, ",".join(map(str, values))))
    if suite == "all":
        names = SUITE_NAMES
    elif suite in _SUITE_BUILDERS:
        names = (suite,)
    else:
        raise ValueError("unknown suite %r (expected one of %s or 'all')"
                         % (suite, ", ".join(SUITE_NAMES)))
    checks = []
    used_fs, used_chars = set(), set()
    for name in names:
        builder, dfs, dchars = _SUITE_BUILDERS[name]
        use_fs = list(dfs) if fs is None else list(fs)
        use_chars = list(dchars) if chars is None else list(chars)
        used_fs.update(use_fs)
        used_chars.update(use_chars)
        checks.extend(builder(use_fs, use_chars, seed))
    grid_fs = sorted(used_fs) if fs is None else list(fs)
    grid_chars = sorted(used_chars) if chars is None else list(chars)
    if not checks:
        raise ValueError("the grid f=%s char=%s selects no check of suite %s"
                         % (",".join(map(str, grid_fs)),
                            ",".join(map(str, grid_chars)), suite))

    start = time.monotonic()
    results = []
    _TABLES.clear()
    _PFAFFIANS.clear()
    for chk in checks:
        if budget_seconds is not None and \
                time.monotonic() - start > budget_seconds:
            results.append(CheckResult(chk.name, chk.claim, SKIPPED, "",
                                       None))
            continue
        t0 = time.monotonic()
        try:
            detail = chk.fn()
            verdict = PASS
        except CheckFailure as e:
            verdict = FAIL
            detail = str(e)
        except Exception as e:
            verdict = ERROR
            detail = "%s: %s" % (type(e).__name__, e)
        results.append(CheckResult(chk.name, chk.claim, verdict,
                                   detail or "", time.monotonic() - t0))
    _TABLES.clear()
    _PFAFFIANS.clear()
    return SuiteReport(suite, grid_fs, grid_chars, seed, results)
