"""Command-line surface: gen, codim, resolve, verify, export.

Flags override config-file values (simple ``key = value`` lines); the
``PFAFFCALC_OUTDIR`` environment variable overrides the output
directory only (flags still win).  All inputs are validated before any
computation starts; usage problems exit with code 64.

Exit codes: 0 success (verify: all checks pass), 1 verify failure,
2 verify incomplete (budget ran out), 3 verify error (a check crashed),
64 usage error, 70 internal error (an exception raised outside any
check, reported as one stderr line).
"""

import argparse
import json
import os
import sys

from .constructions import build_ideal, module_presentation
from .fields import CoefficientField
from .groebner import dimension_codim, groebner_basis
from .resolutions import complex_betti, free_resolution
from .rings import ring_for
from .textio import emit_cas, render
from .verify import SUITE_NAMES, run_suite

USAGE_EXIT = 64
SOFTWARE_EXIT = 70

_CONFIG_KEYS = ("f", "char", "seed", "budget-seconds", "outdir", "format")


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code fixed at 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, "%s: error: %s\n" % (self.prog, message))


def _read_config(path, parser):
    """Parse a ``key = value`` config file into a dict."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        parser.error("cannot read config file: %s" % e)
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error("config line %d is not 'key = value'" % lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            parser.error("config line %d: unknown key %r (expected one "
                         "of %s)" % (lineno, key, ", ".join(_CONFIG_KEYS)))
        out[key] = value
    return out


def _int_list(text, parser, what):
    try:
        return [int(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        parser.error("%s must be a comma-separated list of integers, "
                     "got %r" % (what, text))


def _check_f(f, parser):
    if f < 2:
        parser.error("f must be at least 2, got %d" % f)
    return f


def _check_char(char, parser):
    try:
        CoefficientField(char)
    except ValueError as e:
        parser.error(str(e))
    return char


class Config:
    """Merged settings: flags override config-file values; the
    PFAFFCALC_OUTDIR environment variable overrides outdir only."""

    __slots__ = ("fs", "chars", "seed", "budget_seconds", "outdir",
                 "format")

    def __init__(self, args, parser):
        cfg = _read_config(args.config, parser) if args.config else {}

        def pick(flag, key, default=None):
            if flag is not None:
                return flag
            if key in cfg:
                return cfg[key]
            return default

        fs = pick(getattr(args, "f", None), "f")
        self.fs = None if fs is None else \
            [_check_f(v, parser) for v in _int_list(fs, parser, "--f")]
        chars = pick(getattr(args, "char", None), "char")
        self.chars = None if chars is None else \
            [_check_char(v, parser)
             for v in _int_list(chars, parser, "--char")]
        seed = pick(getattr(args, "seed", None), "seed", 0)
        try:
            self.seed = int(seed)
        except ValueError:
            parser.error("seed must be an integer, got %r" % (seed,))
        budget = pick(getattr(args, "budget_seconds", None),
                      "budget-seconds")
        try:
            self.budget_seconds = None if budget is None else float(budget)
        except ValueError:
            parser.error("budget-seconds must be a number, got %r"
                         % (budget,))
        # NaN would compare false against elapsed time and never stop a
        # run, and a negative budget would skip every check
        if self.budget_seconds is not None and \
                not self.budget_seconds >= 0:
            parser.error("budget-seconds must be a number >= 0, got %r"
                         % (budget,))
        outdir = getattr(args, "outdir", None)
        if outdir is None:
            outdir = os.environ.get("PFAFFCALC_OUTDIR") or \
                cfg.get("outdir") or "."
        self.outdir = outdir
        self.format = pick(getattr(args, "format", None), "format")

    def single_f(self, parser):
        if self.fs is None or len(self.fs) != 1:
            parser.error("this command needs exactly one --f value")
        return self.fs[0]

    def single_char(self, parser):
        """The one --char value, 0 (the rationals) when none is given."""
        if self.chars is None:
            return 0
        if len(self.chars) != 1:
            parser.error("this command needs exactly one --char value")
        return self.chars[0]


def _ring_and_gens(kind, f, char, lam, parser):
    ring = ring_for(f, CoefficientField(char))
    try:
        gens = build_ideal(kind, ring, lam=lam)
    except ValueError as e:
        parser.error(str(e))
    return ring, gens


def _normalized_gens(gens, ring):
    """Canonical presentation: flip generators with leading coefficient
    -1, then sort lines by their rendered text."""
    field = ring.field
    minus_one = field.neg(field.one())
    out = []
    for g in gens:
        if g.terms and g.terms[0][1] == minus_one:
            g = -g
        out.append(g)
    out.sort(key=render)
    return out


# --------------------------------------------------------------------------
# subcommands


def _cmd_gen(args, parser):
    cfg = Config(args, parser)
    f = cfg.single_f(parser)
    char = cfg.single_char(parser)
    ring, gens = _ring_and_gens(args.ideal, f, char, args.lam, parser)
    gens = _normalized_gens(gens, ring)
    fmt = cfg.format or "text"
    if fmt not in ("text", "cas"):
        parser.error("gen supports --format text or cas, got %r" % fmt)
    if fmt == "cas":
        sys.stdout.write(emit_cas(gens, ring))
    else:
        for g in gens:
            print(render(g))
    return 0


def _cmd_codim(args, parser):
    cfg = Config(args, parser)
    f = cfg.single_f(parser)
    char = cfg.single_char(parser)
    ring, gens = _ring_and_gens(args.ideal, f, char, args.lam, parser)
    hd = dimension_codim(groebner_basis(gens, ring))
    print(json.dumps({"dim": hd.dim, "codim": hd.codim,
                      "hilbert_numerator": list(hd.numerator)},
                     sort_keys=True))
    return 0


def _cmd_resolve(args, parser):
    cfg = Config(args, parser)
    f = cfg.single_f(parser)
    char = cfg.single_char(parser)
    field = CoefficientField(char)
    # modules over the x-variable ring unless the row ideal is involved
    ring = ring_for(f, field) if args.module == "RJ" else \
        ring_for(f, field, vars="x")
    try:
        pres = module_presentation(args.module, ring, lam=args.lam)
    except ValueError as e:
        parser.error(str(e))
    B = complex_betti(free_resolution(pres, max_len=len(ring.names)))
    fmt = cfg.format or "text"
    if fmt == "json":
        print(json.dumps({"betti": B.to_json_obj(bigraded=args.bigraded)},
                         sort_keys=True))
    elif fmt == "text":
        sys.stdout.write(B.pretty(bigraded=args.bigraded) + "\n")
    else:
        parser.error("resolve supports --format text or json, got %r"
                     % fmt)
    return 0


def _cmd_verify(args, parser):
    cfg = Config(args, parser)
    fmt = cfg.format or "text"
    if fmt not in ("text", "json"):
        parser.error("verify supports --format text or json, got %r" % fmt)
    try:
        report = run_suite(args.suite, fs=cfg.fs, chars=cfg.chars,
                           seed=cfg.seed, budget_seconds=cfg.budget_seconds)
    except ValueError as e:     # the grid, judged before any check runs
        parser.exit(USAGE_EXIT, "%s verify: error: %s\n" % (parser.prog, e))
    sys.stdout.write(report.to_json() if fmt == "json"
                     else report.to_text())
    return {"pass": 0, "fail": 1, "incomplete": 2,
            "error": 3}[report.status]


def _cmd_export(args, parser):
    cfg = Config(args, parser)
    fs = cfg.fs or [4, 5]
    chars = cfg.chars or [0]
    os.makedirs(cfg.outdir, exist_ok=True)
    written = []
    for char in chars:
        for f in fs:
            for kind in ("I", "K", "J"):
                ring, gens = _ring_and_gens(kind, f, char, None, parser)
                gens = _normalized_gens(gens, ring)
                tag = "QQ" if char == 0 else "GF%d" % char
                path = os.path.join(cfg.outdir,
                                    "%s_f%d_%s.cas" % (kind, f, tag))
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(emit_cas(gens, ring))
                written.append(path)
    for path in written:
        print(path)
    return 0


# --------------------------------------------------------------------------
# argument wiring


def _build_parser():
    top = _Parser(prog="pfaffcalc",
                  description="Exact constructions and machine "
                  "verification for the Pfaffian-plus-row-ideal family")
    sub = top.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    def common(p, multi_f=False):
        p.add_argument("--config", metavar="FILE",
                       help="key = value config file; flags override it")
        p.add_argument("--f", metavar="N" if not multi_f else "N,N",
                       help="alternating-matrix size%s"
                       % ("" if not multi_f else " list"))
        p.add_argument("--char", metavar="C" if not multi_f else "C,C",
                       help="coefficient characteristic%s: 0 for the "
                       "rationals or a prime"
                       % ("" if not multi_f else " list"))

    p = sub.add_parser("gen", help="print ideal generators",
                       description="Print the generators of an ideal in "
                       "native text or CAS-portable form.")
    common(p)
    p.add_argument("--ideal", required=True,
                   choices=("I", "K", "J", "Ilambda"))
    p.add_argument("--lambda", dest="lam", type=int, default=None,
                   help="index for Ilambda (1 <= lambda <= f-1)")
    p.add_argument("--format", choices=("text", "cas"), default=None)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("codim", help="dimension and codimension",
                       description="Krull dimension, codimension, and "
                       "Hilbert numerator of the quotient by an ideal, "
                       "as JSON.")
    common(p)
    p.add_argument("--ideal", required=True,
                   choices=("I", "K", "J", "Ilambda"))
    p.add_argument("--lambda", dest="lam", type=int, default=None)
    p.set_defaults(fn=_cmd_codim)

    p = sub.add_parser("resolve", help="minimal free resolution",
                       description="Betti table of the minimal graded "
                       "free resolution of a module, as aligned text or "
                       "JSON.")
    common(p)
    p.add_argument("--module", required=True,
                   choices=("A", "N", "RJ", "Ilambda"))
    p.add_argument("--lambda", dest="lam", type=int, default=None)
    p.add_argument("--bigraded", action="store_true",
                   help="report (x,t)-bidegrees instead of total degrees")
    p.add_argument("--format", choices=("text", "json"), default=None)
    p.set_defaults(fn=_cmd_resolve)

    p = sub.add_parser("verify", help="run a verification suite",
                       description="Run a named battery of checks; exit "
                       "0 if all pass, 1 on any failure, 2 if the "
                       "budget ran out first, 3 if a check crashed.")
    common(p, multi_f=True)
    p.add_argument("--suite", default="all",
                   choices=SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget-seconds", dest="budget_seconds", type=float,
                   default=None)
    p.add_argument("--format", choices=("text", "json"), default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("export", help="write CAS-portable ideal files",
                       description="Write the generator files of I, K, "
                       "and J for each requested size and characteristic "
                       "to the output directory.")
    common(p, multi_f=True)
    p.add_argument("--outdir", default=None)
    p.set_defaults(fn=_cmd_export)
    return top


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args, parser)
    except SystemExit as e:
        code = e.code
        if code is None:
            return 0
        return code if isinstance(code, int) else USAGE_EXIT
    except Exception as e:
        sys.stderr.write("pfaffcalc: internal error: %s: %s\n"
                         % (type(e).__name__, e))
        return SOFTWARE_EXIT


if __name__ == "__main__":
    sys.exit(main())
