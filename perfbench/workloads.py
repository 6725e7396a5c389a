"""The benchmark's workloads: seeded inputs, the ops, and their checks.

Building a workload's ops is its set-up: it imports pfaffcalc and makes
the rings, presentations and seeded inputs.  Each op is a callable that
runs one pfaffcalc call and checks the output, raising `WrongOutput`
when the output differs from the frozen one.  `run_ops` runs a list of
ops and counts an op that raises anything, a wrong output included, as
failed without stopping the rest.
"""

import hashlib
import io
import json
import os
import random
import sys
import traceback
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

GF_CHAR = 32003


class WrongOutput(Exception):
    """An op finished but its output is not the certified one."""


def load_expected(path=EXPECTED_PATH):
    """Frozen outputs: verify-report digests by seed, and bigraded Betti
    tables as {key: {(i, (a, b)): count}}.  Each table must sum to the
    totals frozen beside it."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    tables = {}
    for key, entry in raw["betti"].items():
        data = {(i, (a, b)): c for i, a, b, c in entry["bigraded"]}
        totals = [0] * len(entry["totals"])
        for (i, _), c in data.items():
            totals[i] += c
        if totals != entry["totals"]:
            raise ValueError("frozen table %s sums to %s, not %s"
                             % (key, totals, entry["totals"]))
        tables[key] = data
    return {"verify_sha256": raw["verify_sha256"], "betti": tables}


def permute_columns(pres, seed):
    """The presentation with its generator columns in a seeded order.
    Seed 0 keeps the order the command line uses."""
    from pfaffcalc.constructions import GradedMatrix
    cols = list(range(pres.ncols))
    if seed:
        random.Random(seed).shuffle(cols)
    return GradedMatrix(pres.ring, [[row[j] for j in cols]
                                    for row in pres.entries],
                        pres.row_degs, [pres.col_degs[j] for j in cols])


def presentation(module, f, char, seed):
    """Seeded presentation of `module` at size f; N lives over the
    x-variable ring, RJ over the full ring, as in `pfaffcalc resolve`."""
    from pfaffcalc.constructions import module_presentation
    from pfaffcalc.fields import CoefficientField
    from pfaffcalc.rings import ring_for
    field = CoefficientField(char)
    ring = ring_for(f, field) if module == "RJ" else \
        ring_for(f, field, vars="x")
    return permute_columns(module_presentation(module, ring), seed)


def _table_check(label, got, want):
    if got.data != want:
        raise WrongOutput("%s: Betti table %s differs from the frozen %s"
                          % (label, sorted(got.data.items()),
                             sorted(want.items())))


def verify_ops(seed, expected):
    """`pfaffcalc verify --format json --seed <seed>` on the default grid,
    through `cli.main`.  The report must pass, repeat byte for byte within
    the run, and match the frozen digest where one is frozen."""
    from pfaffcalc import cli
    argv = ["verify", "--format", "json", "--seed", str(seed)]
    want = expected["verify_sha256"].get(str(seed))
    seen = []

    def op():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(list(argv))
        text = buf.getvalue()
        if code != 0:
            raise WrongOutput("verify exited %r" % (code,))
        status = json.loads(text)["status"]
        if status != "pass":
            raise WrongOutput("verify status %r" % (status,))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if want is not None and digest != want:
            raise WrongOutput("verify report sha256 %s, frozen %s"
                              % (digest, want))
        if seen and text != seen[0]:
            raise WrongOutput("verify report differs between passes")
        seen.append(text)
    return [("verify", op)]


def _ladder_op(module, f, char, seed, want):
    from pfaffcalc.resolutions import ladder_betti
    pres = presentation(module, f, char, seed)
    label = "ladder_betti %s f=%d char=%d" % (module, f, char)

    def op():
        _table_check(label, ladder_betti(pres), want)
    return (label, op)


def ladder_ops(seed, expected, f=6):
    """The Schreyer-frame route: N over GF(p), then RJ over GF(p) and QQ.
    Both RJ ops are held to the one frozen RJ table, so they agree."""
    tables = expected["betti"]
    return [_ladder_op("N", f, GF_CHAR, seed, tables["N%d" % f]),
            _ladder_op("RJ", f, GF_CHAR, seed, tables["RJ%d" % f]),
            _ladder_op("RJ", f, 0, seed, tables["RJ%d" % f])]


def resolve_ops(seed, expected, f=6):
    """The dense route: minimal free resolution of RJ over GF(p), held to
    the same frozen table as the ladder route."""
    from pfaffcalc.resolutions import complex_betti, free_resolution
    pres = presentation("RJ", f, GF_CHAR, seed)
    want = expected["betti"]["RJ%d" % f]
    label = "free_resolution RJ f=%d char=%d" % (f, GF_CHAR)

    def op():
        C = free_resolution(pres, max_len=len(pres.ring.names))
        _table_check(label, complex_betti(C), want)
    return [(label, op)]


WORKLOADS = {
    "verify-default": verify_ops,
    "resolve-f6": resolve_ops,
    "ladder-f6": ladder_ops,
}


def run_ops(ops, log=sys.stderr):
    """Run every op once; returns (attempted, failed).  An op that raises,
    wrong outputs included, is logged and counted, and the rest still run."""
    failed = 0
    for label, op in ops:
        try:
            op()
        except Exception:  # any failure is one failed op, never an abort
            failed += 1
            log.write("op failed: %s\n%s" % (label, traceback.format_exc()))
    return len(ops), failed
