"""Self-tests of the benchmark itself (about four minutes on two cores).

    python3 bench/selftest.py

Checks that the output gate catches a corrupted digest, that the reference
package gives the recorded outputs, that ``-O`` and a
tree without nadops are refused, and, per workload, that tracing changes no
output, that per-layer counts repeat exactly across passes and across
processes, that every wrapped boundary is entered where its metric is
mapped, and that the traced shares match the profiles the workloads were
chosen from.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from run import BENCH, ROOT, WORKLOADS
from worker import DIGESTS, SPAN_DIR, import_nadops, import_reference, run_pass

# wrapped boundary -> workloads on which it must be entered
ENTERED_ON = {
    "scalars.valuation": ("divergence", "subdisc"),
    "scalars.arith": ("subdisc", "algebra"),
    "scalars.from_rational": ("divergence", "subdisc", "algebra"),
    "affinoid.poly_mul": ("subdisc", "algebra"),
    "affinoid.poly_add": ("subdisc", "algebra"),
    "affinoid.derivative": ("subdisc", "algebra"),
    "affinoid.substitute_affine": ("algebra",),
    "affinoid.gauss_valuation": ("divergence", "subdisc", "algebra"),
    "affinoid.sup_norm": ("algebra",),
    "affinoid.rescale_to_subdisc": ("algebra",),
    "operators.apply_operator": ("subdisc", "algebra"),
    "operators.compose": ("algebra",),
    "operators.symbol_coefficient": ("algebra",),
    "operators.norm_bracket": ("algebra",),
    "operators.classify": ("subdisc", "algebra"),
    "counterexample.member": ("divergence", "subdisc"),
    "counterexample.member_on_subdisc": ("subdisc",),
    "counterexample.verify": ("divergence", "subdisc", "algebra"),
    "cli.main": ("divergence", "subdisc", "algebra"),
}

# (workload, metric, lowest, highest) from the profiles behind the workloads
SHARES = [
    ("subdisc", "scalars.share", 0.5, 1.0),
    ("divergence", "counterexample.share", 0.4, 1.0),
    ("algebra", "counterexample.share", 0.0, 0.05),
]

COUNT_SUFFIXES = (".calls", ".terms", ".queries", ".members", ".hit_ratio",
                  ".coeffs_built", ".max_terms", ".input_bits", ".stdout_bytes")

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        failures.append(what)


def _worker(workload: str, *extra: str) -> dict:
    args = ["--workload", workload, "--seed", "0", "--seconds", "0", *extra]
    return run._worker(args, 600)[1]


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if k.endswith(COUNT_SUFFIXES)}


def check_gate() -> None:
    import workloads

    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    expected = dict(workloads.digest_table(table, "algebra", 0))
    victim = sorted(expected)[0]
    expected[victim] = "0" * 64
    result = run_pass(workloads.build_units("algebra", 0), expected)
    check(result["failed"] == 1 and victim in result["errors"][0],
          f"a corrupted digest for {victim!r} fails exactly that unit")

    reference = import_reference()
    units = workloads.build_units("algebra", 0, reference)
    result = run_pass(units, workloads.digest_table(table, "algebra", 0))
    check(reference.__name__ != workloads.nadops.__name__ and result["failed"] == 0,
          "the reference package is a separate copy whose outputs match the recorded digests")


def check_refusals() -> None:
    proc = subprocess.run([sys.executable, "-O", str(BENCH / "run.py"), "--workload",
                           "divergence", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    check(proc.returncode == 2 and not proc.stdout and len(proc.stderr.splitlines()) == 1,
          "-O is refused with a one-line error and no result")

    bare = SPAN_DIR / "bare-tree"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "divergence",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "a tree with only the benchmark exits non-zero without a result")


def check_traced(workload: str, spec_names: set[str], entered: set[str]) -> None:
    first = _worker(workload, "--trace")
    second = _worker(workload, "--trace")
    entered.update(first["entered"])
    passes = first["passes"] + second["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    check(bool(plain) and all(p["failed"] == 0 for p in passes),
          f"{workload}: every unit passes its checks and digests, traced and untraced")
    check(all(p["digests"] == plain[0]["digests"] for p in passes),
          f"{workload}: traced unit digests equal the untraced ones")
    first_counts = [_counts(p["layers"]) for p in first["passes"] if p["traced"]]
    second_counts = [_counts(p["layers"]) for p in second["passes"] if p["traced"]]
    check(len(first_counts) >= 2 and first_counts[0] == first_counts[-1],
          f"{workload}: per-layer counts of the first and last traced pass are identical")
    check(first_counts == second_counts,
          f"{workload}: two traced processes give identical counts")
    layers = traced[0]["layers"]
    check(set(layers) | {"trace.overhead_ratio"} == spec_names,
          f"{workload}: the traced run yields exactly the per-layer metrics of BENCHMARK.json")
    for name, where in ENTERED_ON.items():
        if workload in where:
            check(name in first["entered"], f"{workload}: {name} is entered")
    for target, metric, low, high in SHARES:
        if target == workload:
            share = layers[metric]
            check(low <= share < high, f"{workload}: {metric} = {share:.3f} in [{low}, {high})")


def main() -> int:
    import_nadops()
    import tracing

    check_gate()
    check_refusals()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec_names = {m["name"] for m in spec["per_layer"]}
    entered: set[str] = set()
    for workload in WORKLOADS:
        check_traced(workload, spec_names, entered)
    wrapped = {name for _, _, name in tracing.SPANS}
    wrapped |= {"scalars." + group for _, _, group in tracing.LEAVES}
    check(wrapped <= entered, f"every wrapped boundary is entered on some workload "
                              f"(never: {sorted(wrapped - entered)})")
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
