"""The pfaffcalc benchmark: one workload, one run, one JSON result line.

Run from the root of a pfaffcalc checkout:

    python3 perfbench/run.py --workload verify-default --seed 0 \\
        --seconds 35 --trace 0

Workloads (see workloads.py and README.md):
  verify-default  `pfaffcalc verify --format json --seed N`, default grid
  resolve-f6      free_resolution of RJ over GF(32003) at f = 6
  ladder-f6       ladder_betti of N, RJ over GF(32003), RJ over QQ at f = 6;
                  run by hand, not listed in BENCHMARK.json (README.md
                  gives its measured run-to-run spread)

Every measured interpreter is a fresh child process, started one at a
time.  With `--trace 0` the run prints the end-to-end metrics: the median
wall and CPU time of one pass over the workload's ops, the child's peak
resident memory, and the median set-up time (process start to first op)
over SETUP_SAMPLES interpreters.  With `--trace 1` it runs one untraced
and one traced child and prints the per-layer metrics from the traced
one's spans, plus the tracing overhead (traced minus untraced pass wall
time); the spans are written to `.perfbench_out/`.

Every op's output is checked; a wrong output or an exception counts as a
failed op.  The last line of stdout is
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and the exit code is 0 whenever that line is printed.  Without a
pfaffcalc source tree under the current directory the run exits 2 and
prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import COUNT_METRICS, SPAN_METRICS, span_metric_unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 11  # set-up takes ~0.15 s; its median needs many samples
RUN_LIMIT_S = 170  # the whole run, all children included
OUT_DIR = ".perfbench_out"


class ChildFailed(Exception):
    pass


def _child(root, args, deadline):
    """Run worker.py in a fresh interpreter; return (spawn time, result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    # fixed hashing and no bytecode cache, so every child imports alike
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline -
                                                     time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed("worker exceeded the run's time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed("worker exited %d" % proc.returncode)
    return t_spawn, json.loads(lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _setup_time(root, base, deadline):
    t_spawn, res = _child(root, base + ["--setup-only"], deadline)
    return res["first_op"] - t_spawn


def _end_to_end(root, base, deadline, out):
    # set-up samples are split around the measured child, so that they
    # do not all fall into one slow or fast spell of a shared machine
    setups = [_setup_time(root, base, deadline)
              for _ in range(SETUP_SAMPLES // 2)]
    t_spawn, res = _child(root, base, deadline)
    setups.append(res["first_op"] - t_spawn)
    setups += [_setup_time(root, base, deadline)
               for _ in range(SETUP_SAMPLES - len(setups))]
    walls = res["walls"]
    out.write("wall_s: median %.4f s over %d pass(es); no tail percentile: "
              "it needs 11 or more passes\n"
              % (statistics.median(walls), len(walls)))
    metrics = {
        "wall_s": _metric(statistics.median(walls), "s"),
        "cpu_s": _metric(statistics.median(res["cpus"]), "s"),
        "peak_rss_mb": _metric(res["peak_rss_kb"] / 1024.0, "MB"),
        "setup_s": _metric(statistics.median(setups), "s"),
    }
    return res["attempted"], res["failed"], metrics


def _per_layer(root, base, deadline, spans_path, out):
    _, plain = _child(root, base, deadline)
    _, traced = _child(root, base + ["--trace", "--spans", spans_path],
                       deadline)
    overhead = traced["walls"][0] - statistics.median(plain["walls"])
    out.write("traced pass %.4f s, untraced median %.4f s, %d spans -> %s\n"
              % (traced["walls"][0], statistics.median(plain["walls"]),
                 traced["spans"], spans_path))
    layers = traced["layers"]
    metrics = {m: _metric(layers[m], span_metric_unit(m))
               for m in SPAN_METRICS}
    metrics.update({m: _metric(layers[m], unit) for m, unit in COUNT_METRICS})
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    return (plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"], metrics)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pfaffcalc",
                                       "__init__.py")):
        sys.stderr.write("no pfaffcalc source tree at %s/src; run from the "
                         "root of a checkout\n" % root)
        return 2

    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    out = sys.stdout
    try:
        if args.trace:
            os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
            spans_path = os.path.join(OUT_DIR, "spans-%s-seed%d.tsv.gz"
                                      % (args.workload, args.seed))
            attempted, failed, metrics = _per_layer(root, base, deadline,
                                                    spans_path, out)
        else:
            attempted, failed, metrics = _end_to_end(root, base, deadline,
                                                     out)
    except ChildFailed as e:
        sys.stderr.write("benchmark run failed: %s\n" % e)
        return 1
    out.write("fail_share: %g (%d failed of %d ops attempted)\n"
              % (failed / attempted, failed, attempted))
    for name, m in metrics.items():
        out.write("%s: %r %s\n" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
