"""Run one benchmark workload, or all of them, and print the result as JSON.

    python3 bench/run.py --workload catalogue --seed 1 --seconds 10 --trace 0

Each workload runs in a fresh interpreter with RELLAWS_CACHE removed from
its environment and native thread pools capped at the number of usable
CPUs, so its times and peak RSS belong to it alone. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` they are the per-layer ones, and the spans are written to
bench/out/. The exit code is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("catalogue", "witness")
# fresh processes timed from spawn to inputs ready, besides the workload's own
SETUP_SAMPLES = 6
RUN_TIMEOUT_S = 175
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "rel/s"
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_mb", "MiB"), ("_s", "s")):
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    raise ValueError(f"no unit for metric {name}")


# -- the workload process ------------------------------------------------------

def child(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    from workloads import WORKLOADS as classes
    workload = classes[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from spans import Tracer, span_cost_s
    tracer = Tracer(args.trace == 1)
    start = time.perf_counter()
    rounds = []
    # a traced run times one round; its per-layer figures come from layers.py
    while not rounds or (not args.trace and time.perf_counter() - start < args.seconds):
        rounds.append(workload.round(tracer))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = failed = 0
    for outputs, _ in rounds:
        for problems in workload.check(outputs):
            attempted += 1
            if problems:
                failed += 1
                print(f"{args.workload}: " + "; ".join(problems), file=sys.stderr)

    times = [t for _, t in rounds]
    wall_s = statistics.median(t["wall_s"] for t in times)
    if args.trace:
        from layers import measure_layers
        body_spans = len(tracer.spans)
        metrics, layer_tracer = measure_layers(args.seed, tracer)
        metrics["trace.wall_s"] = wall_s
        # what recording the round's spans cost
        metrics["trace.overhead_s"] = span_cost_s(body_spans)
        tracer.spans += [[n, s, e, None if p is None else p + body_spans]
                         for n, s, e, p in layer_tracer.spans]
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     workload=args.workload, seed=args.seed, rounds=len(rounds),
                     body_spans=body_spans, metrics=metrics)
    else:
        metrics = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
                   "rel_per_s": statistics.median(t["rel_per_s"] for t in times)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# -- the launcher --------------------------------------------------------------

def clean_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RELLAWS_CACHE", None)
    cpus = str(len(os.sched_getaffinity(0)))
    env.update({name: cpus for name in THREAD_VARIABLES})
    return env


def spawn(args, role: str, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--child", role,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=clean_env(), stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{args.workload} {role} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = [] if args.trace else [spawn(args, "setup", deadline)["setup_s"]
                                    for _ in range(SETUP_SAMPLES)]
    result = spawn(args, "run", deadline)
    if not args.trace:
        setups.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
    result["metrics"] = {name: {"value": value, "unit": unit_of(name)}
                         for name, value in result["metrics"].items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)
    if not (ROOT / "src" / "rellaws").is_dir():
        print(f"no rellaws sources under {ROOT}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name, result in results.items():
            print(name, json.dumps(result))
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{m}": v for name, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
