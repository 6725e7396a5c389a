"""One measured interpreter: set up a workload, run it, report as JSON.

Run by `run.py` from the root of a pfaffcalc checkout, never directly:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--trace] [--setup-only] [--spans PATH]

It imports pfaffcalc from the checkout's `src`, builds the workload's
seeded inputs (the set-up), and notes the system-wide monotonic clock
when the first op starts, so the parent can time set-up from process
start.  Untraced, it runs whole passes over the workload's ops until
`--seconds` have elapsed, at least one.  Traced, it installs the spans
before set-up and runs exactly one pass, so its counts are per pass.
The last line of stdout is one JSON object.
"""

import argparse
import json
import os
import resource
import sys
import time


def _import_pfaffcalc(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import pfaffcalc.cli  # noqa: F401  (imports every layer)
    where = os.path.dirname(os.path.abspath(pfaffcalc.cli.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise SystemExit("pfaffcalc imported from %s, not from %s"
                         % (where, src))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    _import_pfaffcalc(os.getcwd())
    import workloads
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    ops = workloads.WORKLOADS[args.workload](args.seed,
                                             workloads.load_expected())
    first_op = time.monotonic()
    result = {"first_op": first_op}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    walls, cpus = [], []
    attempted = failed = 0
    deadline = first_op + args.seconds
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        if tracer is None:
            a, f = workloads.run_ops(ops)
        else:
            a, f = tracer.span("pass", workloads.run_ops, ops)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        attempted += a
        failed += f
        if tracer is not None or time.monotonic() >= deadline:
            break
    result.update(walls=walls, cpus=cpus, attempted=attempted, failed=failed,
                  peak_rss_kb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        tracer.restore()
        result["layers"] = spans.layer_metrics(tracer)
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
