"""maghom benchmark: one command, three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py; expected answers in expected.json):
  normed-diag   S3 word norm, diag route, --max-degree 2, gradings {0, 1, 2}
  catgroup-tot  all 64 Cat-groups (G, N) with |G| <= 8, tot route, --max-degree 2
  metric-cycle  the 8-cycle as a digraph, --max-degree 4, all 21 gradings

Load model: closed loop, one caller, solves back to back in one fresh child
process, no threads. Every solve goes through ``maghom.cli.main(["homology",
"-", "--output", "json", ...])`` with its document on stdin, and its
homology table is compared with expected.json; a mismatch, a nonzero exit
or an exception is a failure, and any failure makes this command exit 1.

--trace 0 measures, with nothing patched:
  wall_s       one pass over the workload's solves: each solve's median over
               the passes that fit in --seconds, summed
  setup_s      child launch until the first solve can start (interpreter,
               ``import maghom``, input generation); median of seven launches
               spread over the run
  peak_rss_mb  the solving child's ru_maxrss
  solve_p50_s  median time of one CLI solve over every timed solve
and prints fail_frac and, where at least 11 solves ran, the tail latency.

The times are in reference seconds: each measured time is multiplied by the
host's speed at that moment, read from a fixed kernel in child.py that is
timed between solves once 2 s have passed since the last reading, after
every pass and after every setup; a solve takes the mean of the readings
just before and just after it. On the shared 2-vCPU host this benchmark was
written on, the same pass ran up to 1.7x slower from one minute to the
next: over two sets of ten runs twenty minutes apart, measured wall_s
medians moved 9-20% and scaled ones 3-7%. The measured times are printed
beside the scaled ones.

--trace 1 runs untraced and traced passes alternately on this seed and on a
second one, and reports per-layer self times in measured seconds (span time
minus child spans), the counts read at each wrapped boundary (which must
agree between the two seeds, see spans.ORDER_DEPENDENT), and
trace.overhead_frac = traced wall / untraced wall - 1. Spans are written to
perfbench/out/. Predictions and the baseline are in baseline.json.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end ones with --trace 0, the per-layer ones with 1).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 6  # setup-only launches, besides the solving child
CHILD_TIMEOUT = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "solve_p50_s": "s"}


def launch(args: list) -> tuple[float, dict]:
    """Run one child; return its launch time and its JSON line."""
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, CHILD, *args], cwd=ROOT, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark child {args[0]} exited {proc.returncode}")
    return launched, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples(workload: str, seed: int, count: int) -> list[tuple[float, float]]:
    """(seconds, host speed) of setup-only launches."""
    out = []
    for _ in range(count):
        launched, res = launch(["setup", workload, str(seed)])
        out.append((res["ready"] - launched, res["speed"]))
    return out


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_per_boundary")):
        return "ratio"
    return "count"


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, int, list]:
    # setup probes straddle the timed child, so they sample the host's
    # speed across the whole run rather than only at its start
    setups = setup_samples(workload, seed, SETUP_PROBES // 2)
    launched, res = launch(["run", workload, str(seed), str(seconds)])
    setups.append((res["ready"] - launched, res["setup_speed"]))
    setups += setup_samples(workload, seed, SETUP_PROBES - SETUP_PROBES // 2)
    raw = res["passes"]
    passes = [[t * v for t, v in zip(times, speed)]
              for times, speed in zip(raw, res["speeds"])]
    per_solve = [statistics.median(times) for times in zip(*passes)]
    every = sorted(t for times in passes for t in times)
    values = {
        "wall_s": sum(per_solve),
        "setup_s": statistics.median(t * v for t, v in setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "solve_p50_s": statistics.median(every),
    }
    speeds = [v for speed in res["speeds"] for v in speed] + [v for _, v in setups]
    print(f"{workload} seed {seed}: {len(passes)} passes x {len(per_solve)} solves; "
          f"measured pass times {', '.join(f'{sum(p):.3f}' for p in raw)} s; "
          f"host speed {min(speeds):.3f}..{max(speeds):.3f}")
    print(f"  wall_s      {values['wall_s']:.4f} s   (per-solve medians over "
          f"{len(passes)} passes, summed; measured "
          f"{sum(statistics.median(t) for t in zip(*raw)):.4f} s)")
    print(f"  setup_s     {values['setup_s']:.4f} s   (median of {len(setups)} launches; "
          f"measured {statistics.median(t for t, _ in setups):.4f} s)")
    print(f"  peak_rss_mb {values['peak_rss_mb']:.1f} MB  (1 child)")
    print(f"  solve_p50_s {values['solve_p50_s']:.4f} s   (n={len(every)}; measured "
          f"{statistics.median(t for times in raw for t in times):.4f} s)")
    if len(every) >= 11:
        k = len(every) - 11  # ten solves lie beyond this one
        pct = 100.0 * (k + 1) / len(every)
        print(f"  solve_tail_s {every[k]:.4f} s  (p{pct:.1f}, n={len(every)}, "
              f"10 beyond)")
    attempted = res["attempted"]
    failed = len(res["failures"])
    print(f"  fail_frac   {failed / attempted:.4f}   ({failed}/{attempted})")
    return {m: metric(values[m], u) for m, u in END_TO_END.items()}, attempted, res["failures"]


def traced(workload: str, seed: int) -> tuple[dict, int, list]:
    import spans

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    span_file = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
    _, res = launch(["trace", workload, str(seed), span_file])
    failures = list(res["failures"])
    first, second = res["counts"]
    for name in spans.COUNTERS:
        if name not in spans.ORDER_DEPENDENT and first.get(name) != second.get(name):
            failures.append(f"count {name} differs between seeds: "
                            f"{first.get(name)} vs {second.get(name)}")
    for name in spans.MUST_FIRE[workload]:
        if not res["calls"].get(name):
            failures.append(f"span {name} recorded no call on {workload}")
    npass = len(res["traced"])
    wall = sum(res["traced"])
    layer = res["layer"]
    if abs(sum(layer.values()) - res["covered"]) > 1e-6 * max(1.0, wall):
        failures.append("layer self times do not add up to the root spans")
    values = {name: layer.get(name, 0.0) / npass
              for name in {*spans.BOUNDARIES.values(), spans.COUNT_METRIC}}
    values["trace.uncovered_s"] = (wall - res["covered"]) / npass
    values["trace.wall_s"] = wall / npass
    values["trace.overhead_frac"] = wall / sum(res["plain"]) - 1.0
    for name in spans.COUNTERS:
        values[name] = first.get(name, 0)
    boundaries = values["complexes.boundaries"]
    values["exact_linalg.mul_per_boundary"] = (
        values["exact_linalg.mul_calls"] / boundaries if boundaries else 0.0
    )
    print(f"{workload} seed {seed} (+{seed + 1_000_003}): untraced passes "
          f"{', '.join(f'{t:.3f}' for t in res['plain'])} s, traced passes "
          f"{', '.join(f'{t:.3f}' for t in res['traced'])} s; "
          f"spans in {os.path.relpath(span_file, ROOT)}")
    metrics = {name: metric(v, layer_unit(name)) for name, v in values.items()}
    for name in sorted(metrics):
        share = ""
        if metrics[name]["unit"] == "s" and name != "trace.wall_s":
            share = f"  ({100.0 * values[name] / values['trace.wall_s']:.1f}% of traced wall)"
        print(f"  {name:34s} {values[name]:.6g} {metrics[name]['unit']}{share}")
    return metrics, res["attempted"], failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "maghom")):
        print(f"error: no maghom sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.trace:
        metrics, attempted, failures = traced(args.workload, args.seed)
    else:
        metrics, attempted, failures = end_to_end(args.workload, args.seed, args.seconds)
    for problem in failures:
        print(f"FAIL {problem}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
