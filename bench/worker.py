"""One fresh benchmark process: import nadops, build a workload, run passes.

Started by ``run.py`` and ``selftest.py``.  It prints one JSON line with the
monotonic time it became ready (just before its first timed call), the wall
time of every pass and of each of its units, the unit tallies, per-pass unit digests, its own peak
RSS and, when traced, the per-layer metrics of every traced pass.

    python3 bench/worker.py --workload W --seed N --seconds S [--setup-only] [--trace]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
SPAN_DIR = BENCH / "out"
# src/nadops as of commit 87e30d1, byte for byte, under another package name
REFERENCE = BENCH / "control" / "nadops_ref"

# a traced worker runs at least this many traced passes, so every traced
# metric is a mean of several and the overhead ratio a median over several
MIN_TRACED_PASSES = 2


def import_nadops() -> None:
    sys.path.insert(0, str(SRC))
    import nadops
    import nadops.cli  # noqa: F401  (units reach the CLI as ``lib.cli``)

    if not Path(nadops.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: nadops was imported from {nadops.__file__}, not {SRC}")


def import_reference():
    """The frozen reference package that untraced passes are paired with."""
    sys.path.insert(0, str(REFERENCE.parent))
    import nadops_ref
    import nadops_ref.cli  # noqa: F401  (units reach the CLI as ``lib.cli``)

    if not Path(nadops_ref.__file__).resolve().is_relative_to(REFERENCE.resolve()):
        raise SystemExit(f"error: nadops_ref was imported from {nadops_ref.__file__}")
    return nadops_ref


def run_pass(units, expected: dict[str, str] | None, deadline: float | None = None,
             control=None, swap: bool = False) -> dict:
    """Time each unit of one pass, then check every output outside the clock.

    With a ``deadline`` (a ``perf_counter`` time) the pass stops before the
    first unit that would start after it.  With ``control``, the same units
    built on the reference package, each unit is paired with its control
    twin: the two run back to back, in an order that alternates from pair
    to pair (``swap`` flips it for the whole pass), so both see the same
    host.  A unit fails when it raises, reports a failed check, or its
    output digest differs from the recorded one; a pass with no units
    fails.  Control outputs are not checked.
    """
    outputs, unit_s, control_s = [], [], []
    gc.collect()  # start every pass without the previous pass's garbage
    for i, unit in enumerate(units):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        control_first = bool(i % 2) != swap
        if control is not None and control_first:
            control_s.append(_timed(control[i].run))
        start = time.perf_counter()
        try:
            outputs.append(unit.run())
        except Exception as exc:  # a raising unit is a failed verdict, not a crash
            outputs.append((repr(exc).encode(), False))
        unit_s.append(time.perf_counter() - start)
        if control is not None and not control_first:
            control_s.append(_timed(control[i].run))
    ran = units[:len(outputs)]

    digests, errors = {}, []
    for unit, (data, ok) in zip(ran, outputs):
        digest = hashlib.sha256(data).hexdigest()
        digests[unit.name] = digest
        if not ok:
            errors.append(f"{unit.name}: check failed: {data[:200]!r}")
        elif expected is not None and expected.get(unit.name) != digest:
            errors.append(f"{unit.name}: digest {digest} differs from the recorded one")
    if not units:
        errors.append("pass ran zero units")
    stdout_bytes = sum(len(data) for unit, (data, _) in zip(ran, outputs)
                       if unit.name.startswith("nadops "))
    return {"wall_s": sum(unit_s), "complete": len(ran) == len(units),
            "unit_s": unit_s, "control_s": control_s,
            "attempted": len(ran) if units else 1, "failed": len(errors),
            "errors": errors, "digests": digests, "stdout_bytes": stdout_bytes}


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def run_passes(workload: str, seed: int, seconds: float, expected: dict[str, str] | None,
               tracer=None) -> dict:
    """Closed loop: each pass starts when the previous one has been checked.

    Every pass builds its inputs afresh, outside the clock.  Untraced, the
    first pass runs whole and alone, and the process's peak RSS is read
    after it; then the reference package is imported and paired passes
    (see ``run_pass``) run until ``seconds``, the last one stopping at the
    first unit that would start after it.  With a ``tracer``, whole
    untraced and traced passes alternate, so the tracing overhead is set
    against untraced passes run in the same process moments apart; passes
    stop once another would end past ``seconds`` by more than half a pass,
    and at least ``MIN_TRACED_PASSES`` traced passes run.
    """
    import workloads

    units = workloads.build_units(workload, seed)
    ready = time.monotonic()
    passes, peak_rss_kb, reference = [], 0, None
    began = time.perf_counter()
    deadline = began + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if tracer is not None:
            tracer.reset_pass()
            if traced:
                tracer.install()
        if reference is None:
            result = run_pass(units, expected)
        else:
            control = workloads.build_units(workload, seed, reference)
            result = run_pass(units, expected, deadline, control, swap=len(passes) % 2 == 0)
        result["traced"] = traced
        if traced:
            tracer.uninstall()
            result["layers"] = tracer.pass_metrics(result["wall_s"])
            result["layers"]["cli.stdout_bytes"] = result["stdout_bytes"]
        elif tracer is not None and (tracer.calls or tracer.counts):
            raise SystemExit("error: an untraced pass went through a tracer wrapper")
        passes.append(result)
        now = time.perf_counter()
        if tracer is None:
            if not peak_rss_kb:
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                reference = import_reference()
            if now >= deadline:
                break
        elif sum(p["traced"] for p in passes) >= MIN_TRACED_PASSES:
            if now + statistics.median(p["wall_s"] for p in passes) / 2 >= deadline:
                break
        units = workloads.build_units(workload, seed)
    if not peak_rss_kb:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"ready": ready, "passes": passes, "peak_rss_kb": peak_rss_kb}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if sys.flags.optimize:
        raise SystemExit("error: refusing to measure under -O; nadops keeps checks in asserts")

    import_nadops()
    import workloads

    with open(DIGESTS, encoding="utf-8") as handle:
        expected = workloads.digest_table(json.load(handle), args.workload, args.seed)
    if args.setup_only:
        workloads.build_units(args.workload, args.seed)
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    out = run_passes(args.workload, args.seed, args.seconds, expected, tracer)
    if tracer is not None:
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write_spans(SPAN_DIR / f"spans-{args.workload}.jsonl")
        out["entered"] = sorted(tracer.entered)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
