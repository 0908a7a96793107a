"""Benchmark of the binomials engine: one workload per process.

    python3 perfbench/run.py --workload f5_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run imports the engine from `src/` of the checkout, builds the
workload's inputs from the seed, and runs whole passes of operations (a
closed loop: one operation at a time, in a single process, no threads)
until `--seconds` have passed.  Every answer is checked outside the timed
region.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` passes alternate between the plain
engine and the traced engine, and the object holds the per-layer metrics
(per traced pass) and the tracing overhead.  The lines before it are a
readable report.  See README.md for the metrics and workloads.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 9
ENGINE_MODULES = ("cli", "decompose", "ideals", "poly", "scalars", "errors")

import workloads  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_engine():
    """A fresh import of the engine from the checkout's src/."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "binomials" or n.startswith("binomials.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        m: importlib.import_module(f"binomials.{m}") for m in ENGINE_MODULES
    })


def setup(workload, seed, workdir):
    """Import plus input generation, repeated; returns (ops, median seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        t0 = perf_counter()
        engine = import_engine()
        ops = workloads.WORKLOADS[workload](seed, engine, workdir)
        times.append(perf_counter() - t0)
    return ops, statistics.median(times)


def run_op(op, tracer=None):
    """Time one operation, traced when a tracer is given; then check it."""
    label, run, check = op
    if tracer is not None:
        tracer.op = tracer.ops
        tracer.ops += 1
        tracer.on = True
    error = result = None
    t0 = perf_counter()
    try:
        result = run()
    except Exception:
        error = traceback.format_exc()
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.on = False
    if error is not None:
        print(f"# op raised: {label}\n{error}", file=sys.stderr)
        return dt, False
    try:
        ok = bool(check(result))
    except Exception:
        print(f"# check raised: {label}\n{traceback.format_exc()}", file=sys.stderr)
        ok = False
    if not ok:
        print(f"# wrong answer: {label}", file=sys.stderr)
    return dt, ok


def measure(ops, seconds, tracer=None):
    """Closed loop over whole passes until `seconds` have passed.

    Returns [(pass, op index, seconds, ok)].  With a tracer, passes
    alternate plain and traced, and each kind runs at least once.
    """
    samples = []
    start = perf_counter()
    npass = 0
    while True:
        traced = tracer is not None and npass % 2 == 1
        if traced:
            tracer.install()
            tracer.start_pass()
        for k, op in enumerate(ops):
            dt, ok = run_op(op, tracer if traced else None)
            samples.append((npass, k, dt, ok))
        if traced:
            tracer.uninstall()
        npass += 1
        if perf_counter() - start >= seconds and npass >= (2 if tracer else 1):
            return samples


def op_medians(samples, npasses):
    """Each operation's median duration over the given passes."""
    by_op = {}
    for p, k, dt, _ in samples:
        if p in npasses:
            by_op.setdefault(k, []).append(dt)
    return [statistics.median(v) for v in by_op.values()]


def end_to_end(samples, setup_s):
    durs = [dt for _, _, dt, _ in samples]
    ok = sum(1 for *_, good in samples if good)
    medians = op_medians(samples, {p for p, *_ in samples})
    return {
        "setup_s": setup_s,
        "wall_s": sum(medians),
        "ops_per_s": ok / sum(durs),
        "op_p50_ms": statistics.median(medians) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def tail(durs):
    """(percentile, ms) of the highest percentile with ten ops beyond it."""
    n = len(durs)
    if n < 11:
        return None
    return 100 * (n - 10) / n, sorted(durs)[n - 11] * 1000


def commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def run_one(args):
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "binomials", "__init__.py")):
        print(f"error: no engine sources under {src}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        ops, setup_s = setup(args.workload, args.seed, workdir)
        tracer = Tracer() if args.trace else None
        samples = measure(ops, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(samples)
    failed = sum(1 for *_, ok in samples if not ok)
    durs = [dt for _, _, dt, _ in samples]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# python {platform.python_version()} nproc {os.cpu_count()} "
          f"commit {commit()}")
    npasses = sorted({p for p, *_ in samples})
    print("# pass seconds " + " ".join(
        f"{sum(dt for p, _, dt, _ in samples if p == q):.4f}" for q in npasses))
    print(f"# ops {attempted} in {len(npasses)} passes of "
          f"{len(ops)}; failed {failed}; fail_ratio {failed / attempted}")
    if tracer is None:
        metrics = end_to_end(samples, setup_s)
        units = END_TO_END
        t = tail(durs)
        print("# op_tail_ms " + (f"{t[1]} ms (p{t[0]:.4g} of {attempted} ops)"
                                 if t else f"n/a ({attempted} ops)"))
    else:
        plain = sum(op_medians(samples, {p for p, *_ in samples if p % 2 == 0}))
        traced = sum(op_medians(samples, {p for p, *_ in samples if p % 2 == 1}))
        tracer.finish()
        metrics = tracer.metrics(traced / plain)
        units = PER_LAYER
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(path)
        print(f"# {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    for name, value in metrics.items():
        print(f"{args.workload:20s} {name:40s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own process, so peak RSS is its own."""
    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps(results))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
