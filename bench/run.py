"""The nadops benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload {divergence,subdisc,algebra} --seed N \
        --seconds S --trace {0,1}

Every measurement runs in fresh ``worker.py`` processes, one caller in one
thread (a closed loop), with the interpreter's defaults (GC on, no ``-O``).

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``:

* ``wall_ratio``: median, over the run's unit pairs, of the time a unit
  took over the time its twin on the reference package took right before
  or after it in the same process.  The reference package
  (``bench/control/nadops_ref``) is nadops as of commit 87e30d1.  Both
  twins see the same host, so the ratio holds still while the shared
  host's speed drifts; 0.8 means a unit takes 20% less time than at
  87e30d1.  The pass times themselves are on the detail line.
* ``setup_s``: median over many fresh processes of the time from
  spawning the interpreter to its first timed call (start-up,
  ``import nadops`` and building the inputs).
* ``peak_rss_mb``: the peak RSS of a fresh process after one pass, before
  the reference package is imported.

A run starts ``SETUP_PROBES / 2`` processes that only set up, then one
process that runs passes for the rest of ``--seconds``, then the other half
of the probes.

``--trace 1`` runs one process that alternates untraced and traced passes,
and prints the per-layer metrics (means over traced passes) and
``trace.overhead_ratio`` (median traced over median untraced pass time).

A unit that raises, reports ``"pass": false`` or prints bytes whose sha256
differs from ``digests.json`` is counted in ``failed``; ``attempted`` counts
units.  The last stdout line is the result object; the line before it holds
the details and the machine the run was made on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("divergence", "subdisc", "algebra")

SETUP_PROBES = 8
# no worker, nor all workers of one run together, may run longer than this
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _worker(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run one worker; return its spawn time and its JSON line."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> list[float] | None:
    if not values:
        return None
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _tally(passes: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]][:5]
    return attempted, failed, errors


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict, tuple]:
    """Setup probes, one worker running passes, then more setup probes.

    The worker's time is what is left of ``seconds`` after the probes, so
    the run ends within about one unit pair of ``seconds``.  Setup probes
    are short, so half run before the worker and half after it: their
    median then sees the same host as the passes do.
    """
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    began = time.monotonic()
    deadline = began + WORKER_TIMEOUT_S

    def probe() -> None:
        spawned, out = _worker([*base, "--setup-only"], deadline - time.monotonic())
        setups.append(out["ready"] - spawned)

    for _ in range(SETUP_PROBES // 2):
        probe()
    left = began + seconds - time.monotonic()
    share = max(0.0, left - (SETUP_PROBES // 2 + 1) * statistics.median(setups))
    spawned, out = _worker([*base, "--seconds", str(share)], deadline - time.monotonic())
    setups.append(out["ready"] - spawned)
    for _ in range(SETUP_PROBES // 2):
        probe()

    passes = out["passes"]
    paired = [p for p in passes if p["control_s"]]
    if not paired:
        raise BenchError(f"no unit ran beside its reference twin; --seconds {seconds} is too short")
    walls = [p["wall_s"] for p in paired if p["complete"]]
    controls = [sum(p["control_s"]) for p in paired if p["complete"]]
    pairs = [(mine, ref) for p in paired for mine, ref in zip(p["unit_s"], p["control_s"])]
    metrics = {
        "wall_ratio": statistics.median(mine / ref for mine, ref in pairs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": out["peak_rss_kb"] / 1024,
    }
    detail = {"first_pass_s": passes[0]["wall_s"],
              "paired_passes": len(walls), "pass_s_quartiles": _quartiles(walls),
              "reference_pass_s_quartiles": _quartiles(controls),
              "unit_pairs": len(pairs),
              "time_ratio": sum(m for m, _ in pairs) / sum(r for _, r in pairs),
              "setup_s_samples": len(setups), "setup_s_quartiles": _quartiles(setups)}
    return metrics, detail, _tally(passes)


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict, tuple]:
    """One worker that alternates untraced and traced passes."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace"]
    _, out = _worker(args, WORKER_TIMEOUT_S)
    passes = out["passes"]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {name: statistics.fmean(p["layers"][name] for p in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_ratio"] = (statistics.median(p["wall_s"] for p in traced)
                                       / statistics.median(p["wall_s"] for p in plain))
    detail = {"traced_passes": len(traced), "untraced_passes": len(plain)}
    return metrics, detail, _tally(passes)


def _environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "machine": platform.machine(),
            "cpu": cpu, "nproc": len(os.sched_getaffinity(0))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if sys.flags.optimize:
        print("error: refusing to measure under -O or PYTHONOPTIMIZE: nadops keeps "
              "checks in asserts", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "nadops" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} lacks src/nadops or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    try:
        if args.trace:
            values, detail, tally = measure_traced(args.workload, args.seed, args.seconds)
            wanted = spec["per_layer"]
        else:
            values, detail, tally = measure(args.workload, args.seed, args.seconds)
            wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"run produced no value for {missing}")
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, errors = tally
    for line in errors:
        print(f"failed unit: {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail,
                      "environment": _environment()}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
