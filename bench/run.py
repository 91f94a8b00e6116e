"""ltreflect benchmark: one workload per process, metrics as one JSON line.

    python3 bench/run.py --workload stock_full --seed 0 --seconds 30 --trace 0

`--seed` feeds `ltreflect synth`; the program only sees the generated
dataset files. A run sets the dataset pair up several times (setup_s is
the median), makes one short untimed warm-up run, then repeats rounds of
the workload until `--seconds` would be exceeded. Every round's
deterministic artifacts must hash to the first round's; a mismatch or an
exception counts the run as failed. With `--trace 1`, untraced and traced
rounds alternate and the per-layer metrics come from the traced ones.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
lines before it give the environment, the artifact digest and, when
traced, the per-layer table. Full records go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import TARGETS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 25
WARMUP_EPOCHS = 2
RUN_ARTIFACTS = ("metrics.csv", "conflicts.csv", "class_kl.csv", "similarity.csv", "summary.json")
REQUIRED_ARTIFACTS = ("metrics.csv", "summary.json")
GRID_ARTIFACTS = ("ablation.csv",)

# Self time is reported only for targets every workload calls, so that no
# reported time is a constant zero; the per-layer table in bench/out/ has
# calls and self time for every target.
SELF_TIMED = (
    "data.load_dataset",
    "data.augment",
    "nn.forward",
    "nn.backward",
    "nn.sgd_step",
    "losses.ce_loss",
    "reflect.cache_update",
    "reflect.FeatureStore.add",
    "reflect.class_centers_median",
    "reflect.build_soft_labels",
    "reflect.per_class_adjacent_kl",
    "reflect.write_class_kl_series",
    "reflect.write_matrix_csv",
    "trainer.assemble_batch_losses",
    "trainer.train_epoch",
    "trainer.evaluate",
    "trainer.write_metrics_csv",
    "trainer.write_conflicts_csv",
    "trainer.run_experiment",
    "cli.main",
)


@dataclass(frozen=True)
class Workload:
    name: str
    synth_flags: tuple[str, ...]
    train_flags: tuple[str, ...]
    epochs: int
    batch: int
    seeds: tuple[int, ...]  # training seeds of one round
    grid: bool = False  # one `ablate` call over all seeds instead of one `train` per seed


WORKLOADS = {
    # Stock set, full stack, serial runs: per-step call overhead in
    # losses, reflect, conflict and nn dominates.
    "stock_full": Workload(
        name="stock_full",
        synth_flags=(),
        train_flags=("--ltr", "ce", "--kr", "--ks", "--kc", "--alpha", "0.95", "--hidden", "32"),
        epochs=40,
        batch=16,
        seeds=(0, 1, 2),
    ),
    # The 2^3 grid: plain and full-stack runs mixed; the only workload
    # where sharing work between runs can show.
    "ablation_grid": Workload(
        name="ablation_grid",
        synth_flags=(),
        train_flags=("--ltr", "ce", "--alpha", "0.95", "--hidden", "32"),
        epochs=40,
        batch=16,
        seeds=(0,),
        grid=True,
    ),
    # Wide BSCE with KR/KS/KC off: bypasses the regularizers; time goes to
    # matmuls, class medians, the feature store and augmentation.
    "wide_bsce": Workload(
        name="wide_bsce",
        synth_flags=("--classes", "100", "--dim", "64", "--n-max", "1000", "--pairs", "10"),
        train_flags=("--ltr", "bsce", "--hidden", "128", "--sigma-aug", "0.3"),
        epochs=20,
        batch=256,
        seeds=(0,),
    ),
}


def load_program():
    """Import ltreflect from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ltreflect" / "__init__.py").is_file():
        raise SystemExit(f"error: no ltreflect sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import ltreflect
    from ltreflect import cli, data

    if Path(ltreflect.__file__).resolve().parent != (src / "ltreflect").resolve():
        raise SystemExit(f"error: imported ltreflect from {ltreflect.__file__}, not {src}")
    return cli, data


def quiet_cli(cli, argv) -> int:
    """ltreflect's CLI, with its stdout (echo and summary lines) discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


# ---------------------------------------------------------------- environment


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        1
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "src_nonblank_lines": src_lines,
    }


# ---------------------------------------------------------------- one round


@dataclass
class Unit:
    """One checked output of a round: a run directory, or the grid's table."""

    key: str
    digest: str | None = None
    error: str | None = None
    final: dict | None = None


def digest_dir(path: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        f = path / name
        if f.is_file():
            h.update(name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def _run_unit(key: str, run_dir: Path) -> Unit:
    missing = [n for n in REQUIRED_ARTIFACTS if not (run_dir / n).is_file()]
    if missing:
        return Unit(key, error=f"missing {', '.join(missing)}")
    final = json.loads((run_dir / "summary.json").read_text())["final"]
    return Unit(key, digest=digest_dir(run_dir, RUN_ARTIFACTS), final=final)


def run_round(cli, wl: Workload, data_path: Path, out: Path, epochs: int) -> list[Unit]:
    """Run the workload once into `out`; one Unit per run (plus the grid)."""
    shutil.rmtree(out, ignore_errors=True)
    common = ("--data", str(data_path), *wl.train_flags, "--epochs", str(epochs), "--batch", str(wl.batch))
    if wl.grid:
        keys = [
            f"kr{kr}_ks{ks}_kc{kc}/seed{s}"
            for kr in (0, 1) for ks in (0, 1) for kc in (0, 1) for s in wl.seeds
        ]
        argv = ("ablate", *common, "--out", str(out), "--seed", str(wl.seeds[0]), "--seeds", str(len(wl.seeds)))
        error = _call(cli, argv)
        if error:
            return [Unit(k, error=error) for k in keys + ["grid"]]
        units = [_run_unit(k, out / k) for k in keys]
        if not (out / "ablation.csv").is_file():
            return units + [Unit("grid", error="missing ablation.csv")]
        return units + [Unit("grid", digest=digest_dir(out, GRID_ARTIFACTS))]
    units = []
    for s in wl.seeds:
        run_dir = out / f"seed{s}"
        error = _call(cli, ("train", *common, "--out", str(run_dir), "--seed", str(s)))
        units.append(Unit(f"seed{s}", error=error) if error else _run_unit(f"seed{s}", run_dir))
    return units


def _call(cli, argv) -> str | None:
    """Error text of one CLI invocation, or None when it exits 0."""
    try:
        code = quiet_cli(cli, argv)
    except Exception:  # any crash of the program is a failed run, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
        return f"{argv[0]} raised"
    return None if code == 0 else f"{argv[0]} exited {code}"


def steps_per_run(num_samples: int, wl: Workload) -> int:
    return wl.epochs * math.ceil(num_samples / wl.batch)


def runs_per_round(wl: Workload) -> int:
    return len(wl.seeds) * (8 if wl.grid else 1)


def output_problems(wl: Workload, units: list[Unit], out: Path, num_classes: int) -> list[str]:
    """Checks on the first round's outputs beyond repeatability."""
    problems = []
    for u in units:
        if u.final is None:
            continue
        for key in ("acc_all", "acc_few"):
            if not 0.0 <= u.final[key] <= 1.0:
                problems.append(f"{u.key}: {key}={u.final[key]} outside [0, 1]")
        if not u.final["acc_all"] > 1.0 / num_classes:
            problems.append(f"{u.key}: acc_all={u.final['acc_all']} not above chance")
        if u.final["epoch"] != wl.epochs - 1:
            problems.append(f"{u.key}: final epoch {u.final['epoch']}, expected {wl.epochs - 1}")
    if wl.grid:
        # KC alone has no auxiliary gradient to project, so the cell must
        # reproduce the all-off baseline bit for bit.
        for s in wl.seeds:
            plain = out / "kr0_ks0_kc0" / f"seed{s}" / "metrics.csv"
            kc_only = out / "kr0_ks0_kc1" / f"seed{s}" / "metrics.csv"
            if plain.is_file() and kc_only.is_file() and plain.read_bytes() != kc_only.read_bytes():
                problems.append(f"seed{s}: kr0_ks0_kc1 differs from kr0_ks0_kc0")
    return problems


# ---------------------------------------------------------------- measurement


def setup(cli, data, wl: Workload, seed: int, data_dir: Path):
    """synth, save and first load of the dataset pair, SETUP_REPEATS times.
    Returns (median seconds, train path, train set)."""
    train_path = data_dir / "train.ltds"
    test_path = data_dir / "train.test.ltds"
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(data_dir, ignore_errors=True)
        start = time.perf_counter()
        code = quiet_cli(cli, ("synth", *wl.synth_flags, "--seed", str(seed), "--out", str(train_path)))
        if code != 0:
            raise SystemExit(f"error: synth exited {code}")
        train = data.load_dataset(train_path)
        data.load_dataset(test_path)
        times.append(time.perf_counter() - start)
    return statistics.median(times), train_path, train


def measure(cli, wl: Workload, data_path: Path, num_classes: int, work: Path, seconds: float,
            tracer=None) -> dict:
    """Repeat rounds for `seconds`; with a tracer, every second round is traced."""
    walls, cpus, traced_walls = [], [], []
    reference: dict[str, str] = {}
    first: list[Unit] = []
    problems: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with tracer.installed() if traced else contextlib.nullcontext():
            units = run_round(cli, wl, data_path, work / "round", wl.epochs)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if traced:
            traced_walls.append(wall)
        else:
            walls.append(wall)
            cpus.append(cpu)
        if not first:
            first = units
            problems = output_problems(wl, units, work / "round", num_classes)
            reference = {u.key: u.digest for u in units if u.digest is not None}
        for u in units:
            attempted += 1
            if u.error is None and reference.get(u.key) != u.digest:
                u.error = "artifacts differ from the first round"
            if u.error is not None:
                failed += 1
                print(f"FAILED {wl.name} {u.key}: {u.error}", file=sys.stderr)
        if tracer is not None and not traced_walls:
            continue
        next_traced = tracer is not None and len(walls) > len(traced_walls)
        expected = statistics.median(traced_walls if next_traced else walls)
        if time.perf_counter() - start + expected > seconds:
            break
    return {
        "walls": walls,
        "cpus": cpus,
        "traced_walls": traced_walls,
        "first": first,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
    }


def workload_digest(units: list[Unit]) -> str:
    h = hashlib.sha256()
    for u in units:
        h.update(f"{u.key}={u.digest}\n".encode())
    return h.hexdigest()


def mean_accuracy(m) -> dict[str, float]:
    """Mean final test accuracy over the first round's runs."""
    runs = [u.final for u in m["first"] if u.final is not None]
    return {k: statistics.fmean(r[k] for r in runs) if runs else 0.0
            for k in ("acc_all", "acc_many", "acc_medium", "acc_few")}


def end_to_end(m, setup_s, steps: int) -> dict:
    """End-to-end metrics; `steps` is the SGD steps of one round."""
    wall = statistics.median(m["walls"])
    values = {
        "steps_per_s": (steps / wall, "1/s"),
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(m["cpus"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
        "acc_all": (mean_accuracy(m)["acc_all"], "ratio"),
        "pass_share": (1.0 - m["failed"] / m["attempted"], "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(tracer, m, steps: int, runs: int) -> tuple[dict, dict]:
    """(metrics per traced round, full table) from the tracer's spans;
    `steps` and `runs` are the SGD steps and runs of one round."""
    rounds = len(m["traced_walls"])
    table = tracer.layer_table()
    values = {}
    for target in TARGETS:
        values[f"{target}.calls"] = (table[target]["calls"] / rounds, "count")
    for target in SELF_TIMED:
        values[f"{target}.self_ms"] = (table[target]["self_ms"] / rounds, "ms")
    c = tracer.counters
    projections = table["conflict.project_if_conflict"]["calls"]
    values["nn.backward.calls_per_step"] = (table["nn.backward"]["calls"] / rounds / steps, "calls/step")
    values["reflect.kr_batch_loss.kept_ratio"] = (
        c["reflect.kr_batch_loss.kept"] / c["reflect.kr_batch_loss.offered"]
        if c["reflect.kr_batch_loss.offered"] else 0.0, "ratio")
    values["conflict.project_if_conflict.projected_ratio"] = (
        c["conflict.project_if_conflict.projected"] / projections if projections else 0.0, "ratio")
    values["data.load_dataset.calls_per_run"] = (table["data.load_dataset"]["calls"] / rounds / runs, "calls/run")
    untraced = statistics.median(m["walls"])
    traced = statistics.median(m["traced_walls"])
    values["trace.untraced_round_s"] = (untraced, "s")
    values["trace.traced_round_s"] = (traced, "s")
    values["trace.overhead_ratio"] = (traced / untraced - 1.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, table


def format_table(table: dict, rounds: int) -> list[str]:
    lines = [f"{'function':40s} {'calls':>10s} {'self_ms':>12s} {'total_ms':>12s}  (per traced round)"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        lines.append(
            f"{name:40s} {row['calls'] / rounds:10.0f} {row['self_ms'] / rounds:12.3f} "
            f"{row['total_ms'] / rounds:12.3f}"
        )
    return lines


def run_benchmark(wl: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Set up, warm up and measure one workload; returns the result line
    and writes the full record (and spans when traced) under out_dir."""
    os.chdir(ROOT)  # artifacts record relative paths, so digests do not depend on the checkout's location
    cli, data = load_program()
    env = environment()
    work = BENCH_DIR.relative_to(ROOT) / "work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s, data_path, train = setup(cli, data, wl, seed, work / "data")
        run_round(cli, wl, data_path, work / "warmup", WARMUP_EPOCHS)
        tracer = Tracer() if trace else None
        m = measure(cli, wl, data_path, train.num_classes, work, seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    steps = steps_per_run(train.num_samples, wl) * runs_per_round(wl)
    digest = workload_digest(m["first"])
    accuracy = mean_accuracy(m)
    record = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env, "digest": digest, "accuracy": accuracy, "problems": m["problems"],
              "round_walls_s": m["walls"], "round_cpus_s": m["cpus"],
              "traced_round_walls_s": m["traced_walls"]}
    lines = [f"env {json.dumps(env, sort_keys=True)}", f"digest {wl.name} seed={seed} {digest}",
             f"accuracy {wl.name} " + " ".join(f"{k}={v!r}" for k, v in accuracy.items())]
    lines += [f"problem {p}" for p in m["problems"]]
    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        metrics, table = per_layer(tracer, m, steps, runs_per_round(wl))
        rounds = len(m["traced_walls"])
        lines += format_table(table, rounds)
        lines.append(f"tracing overhead {wl.name}: {metrics['trace.overhead_ratio']['value']:+.1%} "
                     f"per round ({len(tracer.spans)} spans, missing targets: {tracer.missing or 'none'})")
        tracer.write_spans(out_dir / f"{wl.name}.spans.csv")
        record["layer_table_per_round"] = {
            k: {f: v / rounds for f, v in row.items()} for k, row in table.items()}
        record["missing_targets"] = tracer.missing
    else:
        metrics = end_to_end(m, setup_s, steps)
    record["metrics"] = metrics
    (out_dir / f"{wl.name}.trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")
    return {
        "lines": lines,
        "result": {
            "correct": m["failed"] == 0 and not m["problems"],
            "attempted": m["attempted"],
            "failed": m["failed"],
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                        BENCH_DIR / "out")
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
