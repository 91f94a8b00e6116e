"""Self-test of the benchmark at a tiny size (about ten seconds).

    python3 bench/selftest.py

Checks that every workload prints exactly the metrics BENCHMARK.json
names, with their units, traced and untraced; that the identity check
counts a perturbed artifact as a failed run; and that the benchmark
fails without printing a result where the program's sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run

TINY_SYNTH = ("--classes", "6", "--dim", "8", "--n-max", "60", "--if", "10",
              "--pairs", "1", "--test-size", "20")
TINY_EPOCHS = 8
TINY_SECONDS = 1.0


def tiny(wl: run.Workload) -> run.Workload:
    return replace(wl, name=f"tiny_{wl.name}", synth_flags=TINY_SYNTH, epochs=TINY_EPOCHS)


def main() -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    out_dir = run.BENCH_DIR / "out" / "selftest"
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[section]}
        for wl in run.WORKLOADS.values():
            result = run.run_benchmark(tiny(wl), 0, TINY_SECONDS, trace, out_dir)["result"]
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{wl.name} trace={int(trace)}"
            check(result["correct"] and result["failed"] == 0, f"{label}: correct, no failed runs")
            check(printed == expected, f"{label}: metrics and units match BENCHMARK.json {section}")
            check(all(isinstance(v["value"], float) for v in result["metrics"].values()),
                  f"{label}: every metric value is a number")

    # A program whose artifacts change between repeats must be caught.
    from ltreflect import trainer

    original = trainer.write_metrics_csv
    writes = []

    def perturbed(path, history):
        original(path, history)
        writes.append(path)
        with open(path, "a") as fh:
            fh.write(f"# write {len(writes)}\n")

    trainer.write_metrics_csv = perturbed
    try:
        wl = tiny(run.WORKLOADS["stock_full"])
        result = run.run_benchmark(wl, 0, TINY_SECONDS, False, out_dir)["result"]
    finally:
        trainer.write_metrics_csv = original
    per_round = run.runs_per_round(wl)
    check(result["attempted"] > per_round, "perturbation run repeated its rounds")
    check(result["failed"] == result["attempted"] - per_round and not result["correct"],
          "every repeat with a perturbed artifact counts as failed")

    # Without the program's sources the benchmark must fail and print no result.
    bare = run.BENCH_DIR / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "stock_full",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without src/ the benchmark exits non-zero and prints no result")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
