#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library and the workload
program from source under .bench_build/perfbench (the first run
compiles; later runs only re-check), makes the serving fixture for the
seed once in its own process, then runs workload W in a fresh process.

Standard output ends with one JSON line: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json; with --trace 1 they are its per-layer metrics,
and the spans go to .bench_build/perfbench/traces/. The line before it,
"host {...}", records the host and build the numbers came from.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# A workload process runs at most two measured phases of --seconds (a
# traced run repeats the phase); its set-ups, timing loops and, on
# pipeline_cold, its passes fit in this margin. So does making a fixture.
CHILD_MARGIN_S = 110


def child_timeout(seconds):
    return 2 * seconds + CHILD_MARGIN_S


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    with open(HERE / "metrics.json") as f:
        doc = json.load(f)
    return spec, doc


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the build up to date. Output goes to
    stderr so that stdout stays the result."""
    jobs = str(os.cpu_count() or 1)
    env = child_env()
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)


def child_env():
    """The environment without the program's FAB_* knobs, so that nothing
    outside the benchmark changes what it measures, and with temporary
    files kept inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FAB_")}
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def fixture(seed, code):
    """The six trained serving snapshots for `seed`, made once per seed and
    version `code` of the sources."""
    out = BUILD / "fixtures" / f"{code}-seed{seed}"
    if not out.is_dir():
        subprocess.run([str(BUILD / "perfbench"), "fixture", "--seed", str(seed),
                        "--out", str(out)],
                       check=True, env=child_env(), stdout=sys.stderr,
                       timeout=CHILD_MARGIN_S)
    return out


def source_digest():
    """SHA-256 over the files the benchmark builds from, so a run can be
    tied to its code where there is no git metadata. Python's bytecode
    caches are left out: they appear once a test has imported run.py."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts and p.suffix != ".pyc":
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain",
                                                   "--untracked-files=no"))
    except (OSError, subprocess.CalledProcessError):
        return None, None


def check_result(result, spec, doc, workload, trace):
    """Validates the workload program's result line against BENCHMARK.json
    and fills per-layer metrics of layers the workload does not exercise
    with 0. Returns the result to print; raises ValueError on a schema
    error."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        raise ValueError(f"result keys {sorted(result) if isinstance(result, dict) else result}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1 or result["failed"] > result["attempted"]:
        raise ValueError("attempted must be >= 1 and >= failed")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = dict(result["metrics"])
    for name, m in metrics.items():
        if name not in wanted:
            raise ValueError(f"unexpected metric {name}")
        if set(m) != {"value", "unit"} or m["unit"] != wanted[name]:
            raise ValueError(f"metric {name} has {m}, want unit {wanted[name]}")
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            raise ValueError(f"metric {name} is not a number")
    for name, unit in wanted.items():
        if name in metrics:
            continue
        applies = (not trace) or workload in doc["per_layer"][name]["measured_on"]
        if applies:
            raise ValueError(f"metric {name} missing on {workload}")
        metrics[name] = {"value": 0.0, "unit": unit}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: metrics[name] for name in wanted}}


def main(argv):
    spec, doc = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    code = source_digest()
    work = BUILD / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [str(BUILD / "perfbench"), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work),
           "--digests", str(HERE / "pipeline_digests.txt")]
    if args.workload.startswith("predict"):
        try:
            cmd += ["--fixtures", str(fixture(args.seed, code))]
        except (OSError, subprocess.SubprocessError) as e:
            log(f"perfbench: fixture failed: {e}")
            return 2
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]

    started = time.time()
    timeout = child_timeout(args.seconds)
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} exceeded {timeout:g}s")
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stdout)
        log(f"perfbench: {args.workload} exited with {proc.returncode}")
        return 3

    host = {}
    for line in lines[:-1]:
        if line.startswith("info {"):
            host.update(json.loads(line[len("info "):]))
        else:
            print(line)
    sha, dirty = git_state()
    host.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "git_sha": sha, "git_dirty": dirty,
                 "source_digest": code,
                 "wall_s": round(time.time() - started, 3)})
    try:
        result = check_result(json.loads(lines[-1]), spec, doc, args.workload, args.trace)
    except ValueError as e:
        log(f"perfbench: bad result line: {e}\n{lines[-1]}")
        return 4
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
