#!/usr/bin/env python3
"""Perf-regression gate over the committed BENCH_*.json baselines.

Usage:
    perf_gate.py --baselines bench/baselines --current <dir> [--bench NAME ...]
    perf_gate.py --self-test

Compares the scalar metrics in each current `BENCH_<name>.json` against
the committed baseline of the same name and fails (exit 1) on any metric
outside its allowed band. Exit 2 means the gate itself could not run
(missing file, malformed JSON, bad flags) — CI treats both as red, but
the distinction keeps "the server got slower" apart from "the bench
never ran".

Gate policy — what is gated and why
-----------------------------------

Benchmarks run on whatever machine CI hands us, so raw throughput
numbers move with the runner's core count, frequency and neighbors.
The gate therefore prefers *machine-portable* metrics and applies a
documented noise band to everything else:

* ratios (`flat_vs_per_row_speedup`, `speedup_w8`) transfer across
  hosts and get the standard 40% band — wide enough for CPU jitter on
  shared runners, narrow enough to catch a real 2x regression;
* absolute throughputs (`rows_per_s_flat_batch`, `server_rows_per_s`,
  `saturation_goodput_qps`) get a wider 60% band — they are still worth
  gating because a 10x collapse (accidental O(n^2), lost batching, a
  serialization bug) sails through no band at all;
* behavioral invariants are exact or floored regardless of hardware:
  determinism (`bitwise_identical == 1`), low-rate goodput keeping up
  with offered load (open-loop 200/400 qps floors), and overload
  behavior (the saturated server MUST shed — `overload_shed429 >= 1` —
  while still serving — `overload_ok >= 1`).

Latency percentiles (`*_p50_ms`, `*_p99_ms`) and the adaptive sweep's
upper steps are deliberately NOT gated: the sweep's step list depends on
where the knee lands on the host, and tail latency on a shared runner is
noise first, signal second. They stay in the JSON for humans.

Refreshing baselines: rerun the three benches with the CI arguments
(see .github/workflows/ci.yml, perf-gate job) and copy the BENCH_*.json
files into bench/baselines/.
"""

import argparse
import json
import os
import sys
import tempfile

# direction: "higher" | "lower" -> relative band vs baseline;
#            "exact"            -> must equal baseline bit-for-bit;
#            "floor"            -> absolute minimum, baseline ignored.
# band: fraction for higher/lower (0.40 = allow 40% worse), the
#       absolute threshold for floor, unused for exact.
GATES = {
    "serve_throughput": {
        "flat_vs_per_row_speedup": ("higher", 0.40),
        "rows_per_s_flat_batch": ("higher", 0.60),
        "server_rows_per_s": ("higher", 0.60),
    },
    "parallel_scaling": {
        "bitwise_identical": ("exact", None),
        "speedup_w8": ("higher", 0.40),
    },
    "serve_http": {
        # The first two sweep steps always run (the load generator pins
        # them before adapting), so their keys exist on every host. At
        # these rates the open-loop server must keep up with offered
        # load; the floors are 90% of offered.
        "qps200_goodput": ("floor", 180.0),
        "qps400_goodput": ("floor", 360.0),
        "saturation_goodput_qps": ("higher", 0.60),
        # Overload contract: at 2x saturation the admission controller
        # sheds (429s flow) while the server keeps serving admitted work.
        "overload_shed429": ("floor", 1.0),
        "overload_ok": ("floor", 1.0),
    },
    "obs_overhead": {
        # Observability must stay nearly free. This is a throughput
        # ratio vs the obs-off serving baseline measured in the same
        # process (hardware-portable): the always-on flight ring, the one
        # span sink a FAB_TRACE export also reads, may cost at most half
        # the baseline's serving throughput.
        "serve_ratio_flight": ("floor", 0.5),
    },
    "sweep": {
        # The seed x regime property sweep (tools/sweep) is pass/fail
        # science, not timing: every metric is hardware-portable, so the
        # gates are behavioral floors / exact matches. The floors track
        # the CI grid in .github/workflows/ci.yml (sweep-smoke job:
        # 4 seeds x 6 regimes x 2 scenarios = 24 cells, 108 checks).
        "cells": ("floor", 24.0),
        "checks": ("floor", 100.0),
        "cell_errors": ("exact", None),
        "property_violations": ("exact", None),
        "pass_rate": ("floor", 1.0),
    },
}


def load_results(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise SystemExit(f"perf_gate: missing bench file: {path}")
    except json.JSONDecodeError as e:
        raise SystemExit(f"perf_gate: malformed JSON in {path}: {e}")
    results = doc.get("results")
    if not isinstance(results, dict):
        raise SystemExit(f"perf_gate: {path} has no 'results' object")
    return results


def check_metric(metric, direction, band, base, cur):
    """Returns (ok, allowed_description)."""
    if direction == "exact":
        return cur == base, f"== {base:g}"
    if direction == "floor":
        return cur >= band, f">= {band:g} (absolute floor)"
    if direction == "higher":
        allowed = base * (1.0 - band)
        return cur >= allowed, f">= {allowed:g} (baseline {base:g} - {band:.0%})"
    if direction == "lower":
        allowed = base * (1.0 + band)
        return cur <= allowed, f"<= {allowed:g} (baseline {base:g} + {band:.0%})"
    raise SystemExit(f"perf_gate: unknown direction {direction!r} for {metric}")


def gate_bench(name, baseline_dir, current_dir):
    """Returns a list of failure strings (empty = pass)."""
    spec = GATES[name]
    base = load_results(os.path.join(baseline_dir, f"BENCH_{name}.json"))
    cur = load_results(os.path.join(current_dir, f"BENCH_{name}.json"))

    failures = []
    for metric, (direction, band) in sorted(spec.items()):
        if metric not in cur:
            failures.append(f"{name}/{metric}: missing from current run")
            continue
        if direction != "floor" and metric not in base:
            failures.append(f"{name}/{metric}: missing from baseline")
            continue
        base_v = float(base.get(metric, 0.0))
        cur_v = float(cur[metric])
        ok, allowed = check_metric(metric, direction, band, base_v, cur_v)
        verdict = "ok" if ok else "REGRESSION"
        print(f"  {name}/{metric}: {cur_v:g} (allowed {allowed}) {verdict}")
        if not ok:
            failures.append(
                f"{name}/{metric}: {cur_v:g} outside allowed {allowed}")
    return failures


def self_test():
    """Exercises every direction and both failure modes on synthetic data."""
    cases_ran = 0

    def write(dirpath, name, results):
        with open(os.path.join(dirpath, f"BENCH_{name}.json"), "w") as f:
            json.dump({"name": name, "results": results}, f)

    def expect(ok_expected, base_results, cur_results, what):
        nonlocal cases_ran
        with tempfile.TemporaryDirectory() as tmp:
            base_dir = os.path.join(tmp, "base")
            cur_dir = os.path.join(tmp, "cur")
            os.mkdir(base_dir)
            os.mkdir(cur_dir)
            write(base_dir, "serve_http", base_results)
            write(cur_dir, "serve_http", cur_results)
            failures = gate_bench("serve_http", base_dir, cur_dir)
        ok = not failures
        if ok != ok_expected:
            raise SystemExit(
                f"perf_gate self-test FAILED: {what}: "
                f"expected {'pass' if ok_expected else 'fail'}, "
                f"got {failures or 'pass'}")
        cases_ran += 1

    healthy = {
        "qps200_goodput": 199.0,
        "qps400_goodput": 398.0,
        "saturation_goodput_qps": 3000.0,
        "overload_shed429": 80.0,
        "overload_ok": 4000.0,
    }
    expect(True, healthy, dict(healthy), "identical run passes")
    expect(True, healthy, {**healthy, "saturation_goodput_qps": 1300.0},
           "39% drop inside the 60% band passes")
    expect(False, healthy, {**healthy, "saturation_goodput_qps": 900.0},
           "70% throughput collapse fails")
    expect(False, healthy, {**healthy, "qps200_goodput": 100.0},
           "low-rate goodput under the absolute floor fails")
    expect(False, healthy, {**healthy, "overload_shed429": 0.0},
           "overload without shedding fails")
    missing = dict(healthy)
    del missing["overload_ok"]
    expect(False, healthy, missing, "metric missing from current run fails")

    # The exact direction (via parallel_scaling's bitwise_identical).
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = os.path.join(tmp, "base")
        cur_dir = os.path.join(tmp, "cur")
        os.mkdir(base_dir)
        os.mkdir(cur_dir)
        scaling = {"bitwise_identical": 1.0, "speedup_w8": 2.8}
        write(base_dir, "parallel_scaling", scaling)
        write(cur_dir, "parallel_scaling",
              {"bitwise_identical": 0.0, "speedup_w8": 2.8})
        if not gate_bench("parallel_scaling", base_dir, cur_dir):
            raise SystemExit(
                "perf_gate self-test FAILED: determinism break must fail")
        cases_ran += 1

    # The sweep gate: a single property violation or a shrunken grid
    # must fail even though every metric is "small".
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = os.path.join(tmp, "base")
        cur_dir = os.path.join(tmp, "cur")
        os.mkdir(base_dir)
        os.mkdir(cur_dir)
        clean = {"cells": 24.0, "checks": 108.0, "cell_errors": 0.0,
                 "property_violations": 0.0, "pass_rate": 1.0}
        write(base_dir, "sweep", clean)
        write(cur_dir, "sweep",
              {**clean, "property_violations": 1.0, "pass_rate": 0.990741})
        if not gate_bench("sweep", base_dir, cur_dir):
            raise SystemExit(
                "perf_gate self-test FAILED: property violation must fail")
        write(cur_dir, "sweep", {**clean, "cells": 12.0, "checks": 54.0})
        if not gate_bench("sweep", base_dir, cur_dir):
            raise SystemExit(
                "perf_gate self-test FAILED: shrunken grid must fail")
        write(cur_dir, "sweep", dict(clean))
        if gate_bench("sweep", base_dir, cur_dir):
            raise SystemExit(
                "perf_gate self-test FAILED: clean sweep must pass")
        cases_ran += 3

    print(f"perf_gate self-test: {cases_ran} cases passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baselines", help="directory of committed baselines")
    parser.add_argument("--current", help="directory of freshly-run benches")
    parser.add_argument("--bench", action="append", choices=sorted(GATES),
                        help="gate only these benches (default: all)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in unit checks and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.baselines or not args.current:
        parser.error("--baselines and --current are required (or --self-test)")

    failures = []
    for name in args.bench or sorted(GATES):
        print(f"gating {name}:")
        failures.extend(gate_bench(name, args.baselines, args.current))

    if failures:
        print(f"\nperf_gate: {len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nperf_gate: all metrics within bands")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
