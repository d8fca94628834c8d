"""One fresh benchmark process: set up, then solve and check.

Started by ``run.py``; it prints one JSON line on stdout and nothing else.

    child.py setup  WORKLOAD SEED            set up only (a setup_s sample)
    child.py run    WORKLOAD SEED SECONDS    timed passes, tracing off
    child.py trace  WORKLOAD SEED SPANFILE   untraced and traced passes

A pass runs every solve of the workload once, back to back, in this
process, through ``maghom.cli.main`` with the document on stdin. Every
timed solve is checked against the expected tables afterwards; the check
is outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_S = 0.02  # reference-kernel time that defines one reference second
SAMPLE_EVERY = 2.0  # seconds of solving between host-speed samples
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from maghom import cli  # noqa: E402

import workloads  # noqa: E402


def load_expected(workload: str) -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


def prepare(workload: str, seed: int) -> list[tuple[str, list, str]]:
    """[(instance, argv, document text)] for one pass."""
    return [
        (name, ["homology", "-", "--output", "json", *flags], json.dumps(doc))
        for name, flags, doc in workloads.solves(workload, seed)
    ]


def solve(argv: list, text: str) -> tuple[float, int | None, str, str]:
    """(seconds, exit code or None if it raised, stdout, error text)."""
    out = io.StringIO()
    err = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    code = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            finally:
                elapsed = time.perf_counter() - start
    except SystemExit as e:  # argparse rejects an argument vector
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a solve that raises is a failure, not a crash
        err.write(f"{type(e).__name__}: {e}")
    finally:
        sys.stdin = saved_stdin
    return elapsed, code, out.getvalue(), err.getvalue()


def check(name: str, expected: list, code, out: str, err: str) -> str | None:
    """None when the solve's homology table is the expected one."""
    if code != 0:
        return f"{name}: exit {code}: {err.strip()[:200]}"
    try:
        got = json.loads(out)["homology"]
    except (ValueError, KeyError, TypeError) as e:
        return f"{name}: unreadable output ({e})"
    if got != expected:
        return f"{name}: homology differs from the expected table"
    return None


def run_pass(solves, expected, failures: list, before=None) -> list[float]:
    """Solve and check each document once; before(i, name) runs ahead of
    each solve, outside its timing."""
    times = []
    for i, (name, argv, text) in enumerate(solves):
        if before is not None:
            before(i, name)
        elapsed, code, out, err = solve(argv, text)
        times.append(elapsed)
        problem = check(name, expected[name], code, out, err)
        if problem:
            failures.append(problem)
    return times


def cross_check(workload: str, solves, expected, failures: list) -> None:
    """normed-diag must also give the expected tables on the tot route."""
    if workload != "normed-diag":
        return
    for name, argv, text in solves:
        argv = [a if a != "diag" else "tot" for a in argv]
        _, code, out, err = solve(argv, text)
        problem = check(f"{name} (tot cross-check)", expected[name], code, out, err)
        if problem:
            failures.append(problem)


def _reference_kernel() -> int:
    table: dict = {}
    for i in range(60000):
        key = (i % 997, i % 13)
        table[key] = table.get(key, 0) + i
    return len(sorted(table.items()))


def host_speed() -> float:
    """REFERENCE_S over the median of five timings of a fixed kernel.

    The kernel does dict, tuple and int work like the solver's and shares
    no code with maghom, so no change to the program can move it. On a
    shared 2-vCPU host the same solve ran up to 1.7x slower from one minute
    to the next; multiplying measured times by this speed removes most of
    that drift."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - start)
    return REFERENCE_S / sorted(times)[2]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    solves = prepare(workload, seed)
    expected = load_expected(workload)
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready, "speed": host_speed()}))
        return 0

    failures: list = []
    if mode == "run":
        seconds = float(argv[3])
        samples = [host_speed()]
        sampled = start = time.monotonic()
        passes, marks = [], []

        def sample_speed(i, name):
            nonlocal sampled
            if time.monotonic() - sampled >= SAMPLE_EVERY:
                samples.append(host_speed())
                sampled = time.monotonic()
            # samples[m] is taken before this solve and samples[m + 1] after
            marks[-1].append(len(samples) - 1)

        while True:
            marks.append([])
            passes.append(run_pass(solves, expected, failures, sample_speed))
            samples.append(host_speed())
            sampled = time.monotonic()
            elapsed = sampled - start
            # stop once another pass would overrun by more than half a pass
            if elapsed + 0.5 * elapsed / len(passes) > seconds:
                break
        cross_check(workload, solves, expected, failures)
        speeds = [[(samples[m] + samples[m + 1]) / 2 for m in mark] for mark in marks]
        print(json.dumps({
            "ready": ready,
            "setup_speed": samples[0],
            "passes": passes,
            "speeds": speeds,
            "attempted": len(solves) * len(passes),
            "failures": failures,
            "peak_rss_mb": peak_rss_mb(),
        }))
        return 0

    # trace: untraced and traced passes alternate, on this seed and on a
    # second one, so counts can be compared across seeds in every run
    import spans

    span_file = argv[3]
    other = prepare(workload, seed + 1_000_003)
    tracer = spans.Tracer()
    plain, traced, counts = [], [], []
    for k, pass_solves in enumerate((solves, other)):
        plain.append(sum(run_pass(pass_solves, expected, failures)))
        tracer.counts.clear()
        uninstall = tracer.install()
        try:
            traced.append(sum(run_pass(
                pass_solves, expected, failures,
                lambda i, name: setattr(tracer, "solve", f"{k}:{i}:{name}"))))
        finally:
            uninstall()
        counts.append(dict(tracer.counts))
    layer, covered = tracer.layer_times()
    with open(span_file, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    print(json.dumps({
        "attempted": 2 * 2 * len(solves),
        "failures": failures,
        "plain": plain,
        "traced": traced,
        "layer": dict(layer),
        "covered": covered,
        "calls": dict(tracer.calls),
        "counts": counts,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
