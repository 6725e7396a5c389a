"""Command-line surface: gen, codim, resolve, verify, export.

argparse is the one reader of settings.  After the command line parses,
each config-file line ``key = value`` becomes the flag ``--key=value``,
and a non-empty ``PFAFFCALC_OUTDIR`` the flag ``--outdir=...``; these
go between the subcommand and the user's own flags and the line is
parsed again, so a value from either place is checked exactly as the
flag would be, and the last one seen wins: flag, then environment, then
config file, then default.  A key that the command does not take is
left over, unread.  All inputs are validated before any computation
starts; usage problems exit with code 64.

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


def _config_flags(path, parser):
    """The lines of a ``key = value`` config file as ``--key=value``
    flags, in file order."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        parser.error("cannot read config file: %s" % e)
    flags = []
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
        flags.append("--%s=%s" % (key, value))
    return flags


# --------------------------------------------------------------------------
# argparse types: each setting's one check


def _int_list(check):
    """The type of a comma-separated integer list, each value passed
    through check."""
    def parse(text):
        try:
            values = [int(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                "must be a comma-separated list of integers, got %r" % text)
        return [check(v) for v in values]
    return parse


def _check_f(f):
    if f < 2:
        raise argparse.ArgumentTypeError("f must be at least 2, got %d" % f)
    return f


def _check_char(char):
    try:
        CoefficientField(char)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    return char


def _budget(text):
    # NaN would compare false against elapsed time and never stop a run,
    # and a negative budget would skip every check
    try:
        if float(text) >= 0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        "budget-seconds must be a number >= 0, got %r" % text)


def _single(values, flag, parser):
    """The one value of a list flag, for a command that takes one."""
    if values is None or len(values) != 1:
        parser.error("this command needs exactly one %s value" % flag)
    return values[0]


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
    f = _single(args.f, "--f", parser)
    char = _single(args.char, "--char", parser)
    ring, gens = _ring_and_gens(args.ideal, f, char, args.lam, parser)
    gens = _normalized_gens(gens, ring)
    if args.format == "cas":
        sys.stdout.write(emit_cas(gens, ring))
    else:
        for g in gens:
            print(render(g))
    return 0


def _cmd_codim(args, parser):
    f = _single(args.f, "--f", parser)
    char = _single(args.char, "--char", parser)
    ring, gens = _ring_and_gens(args.ideal, f, char, args.lam, parser)
    hd = dimension_codim(groebner_basis(gens, ring))
    print(json.dumps({"dim": hd.dim, "codim": hd.codim,
                      "hilbert_numerator": list(hd.numerator)},
                     sort_keys=True))
    return 0


def _cmd_resolve(args, parser):
    f = _single(args.f, "--f", parser)
    field = CoefficientField(_single(args.char, "--char", parser))
    # modules over the x-variable ring unless the row ideal is involved
    ring = ring_for(f, field) if args.module == "RJ" else \
        ring_for(f, field, vars="x")
    try:
        pres = module_presentation(args.module, ring, lam=args.lam)
    except ValueError as e:
        parser.error(str(e))
    B = complex_betti(free_resolution(pres, max_len=len(ring.names)))
    if args.format == "json":
        print(json.dumps({"betti": B.to_json_obj(bigraded=args.bigraded)},
                         sort_keys=True))
    else:
        sys.stdout.write(B.pretty(bigraded=args.bigraded) + "\n")
    return 0


def _cmd_verify(args, parser):
    try:
        report = run_suite(args.suite, fs=args.f, chars=args.char,
                           seed=args.seed, budget_seconds=args.budget_seconds)
    except ValueError as e:     # the grid, judged before any check runs
        parser.exit(USAGE_EXIT, "%s verify: error: %s\n" % (parser.prog, e))
    sys.stdout.write(report.to_json() if args.format == "json"
                     else report.to_text())
    return {"pass": 0, "fail": 1, "incomplete": 2,
            "error": 3}[report.status]


def _cmd_export(args, parser):
    # judged as verify judges its grid: an empty or repeating list would
    # write nothing, or write and list one file twice
    for flag, values in (("--f", args.f), ("--char", args.char)):
        if not values or len(set(values)) != len(values):
            parser.exit(USAGE_EXIT, "%s export: error: %s must list one or "
                        "more distinct values, got %r\n"
                        % (parser.prog, flag, ",".join(map(str, values))))
    outdir = args.outdir or "."
    os.makedirs(outdir, exist_ok=True)
    written = []
    for char in args.char:
        for f in args.f:
            for kind in ("I", "K", "J"):
                ring, gens = _ring_and_gens(kind, f, char, None, parser)
                gens = _normalized_gens(gens, ring)
                tag = "QQ" if char == 0 else "GF%d" % char
                path = os.path.join(outdir, "%s_f%d_%s.cas" % (kind, f, tag))
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
                       type=_int_list(_check_f),
                       help="alternating-matrix size%s"
                       % ("" if not multi_f else " list"))
        p.add_argument("--char", metavar="C" if not multi_f else "C,C",
                       type=_int_list(_check_char),
                       default=None if multi_f else [0],
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
    p.add_argument("--format", choices=("text", "cas"), default="text")
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
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_resolve)

    p = sub.add_parser("verify", help="run a verification suite",
                       description="Run a named battery of checks; exit "
                       "0 if all pass, 1 on any failure, 2 if the "
                       "budget ran out first, 3 if a check crashed.")
    common(p, multi_f=True)
    p.add_argument("--suite", default="all",
                   choices=SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-seconds", type=_budget)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("export", help="write CAS-portable ideal files",
                       description="Write the generator files of I, K, "
                       "and J for each requested size and characteristic "
                       "to the output directory.")
    common(p, multi_f=True)
    p.add_argument("--outdir", default=".")
    p.set_defaults(fn=_cmd_export, f=[4, 5], char=[0])
    return top


def main(argv=None):
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        settings = _config_flags(args.config, parser) if args.config else []
        if os.environ.get("PFAFFCALC_OUTDIR"):
            settings.append("--outdir=" + os.environ["PFAFFCALC_OUTDIR"])
        if settings:
            # parsed again with the settings before the user's flags, so
            # the flags win; a setting the command does not take is left
            at = argv.index(args.command) + 1
            args, _ = parser.parse_known_args(argv[:at] + settings +
                                              argv[at:])
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
