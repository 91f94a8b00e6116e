"""The run directory's file format: the CSV and JSON writers, the readers,
and the summaries that the CLI, the scripts and the tests share.

CSV: a header row, ints as decimals, floats by `repr` (so every float64
reads back exactly), CRLF rows. JSON: indent 2, sorted keys, a trailing
newline. A malformed file raises `FormatError` naming the file and, where
known, the line."""

import csv
import json
from pathlib import Path

import numpy as np

from .errors import FormatError, StateError

CONFLICT_COLUMNS = ["epoch", "layer_name", "conflicted", "fraction"]


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """(header, data rows) as strings; every row has the header's width."""
    with open(path, newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: {exc}") from None
    if not rows:
        raise FormatError(f"{path} is empty")
    header, rows = rows[0], rows[1:]
    for line, row in enumerate(rows, 2):
        if len(row) != len(header):
            raise FormatError(f"{path} line {line}: {len(row)} fields, header has {len(header)}")
    return header, rows


def _number(path, line: int, text: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise FormatError(f"{path} line {line}: cannot read {text!r} as {kind.__name__}") from None


def _finite(path, line: int, text: str) -> float:
    value = _number(path, line, text)
    if not np.isfinite(value):
        raise FormatError(f"{path} line {line}: {text!r} is not a finite number")
    return value


def class_kl_table(run_dir) -> np.ndarray:
    """class_kl.csv as [epochs, classes], every cell finite; a run shorter
    than two epochs has no rows."""
    path = Path(run_dir) / "class_kl.csv"
    header, rows = read_csv(path)
    if not rows:
        raise StateError(f"no divergence rows recorded in {path}")
    if len(header) < 2:
        raise FormatError(f"{path} line 1: no class columns")
    return np.array([[_finite(path, i, v) for v in row[1:]] for i, row in enumerate(rows, 2)])


def metric_column(run_dir, column: str) -> np.ndarray:
    """One column of metrics.csv, one value per epoch."""
    path = Path(run_dir) / "metrics.csv"
    header, rows = read_csv(path)
    j = header.index(column)
    return np.array([_number(path, line, row[j]) for line, row in enumerate(rows, 2)])


def final(run_dir) -> dict:
    """The last epoch's metrics, as recorded in summary.json."""
    return json.loads((Path(run_dir) / "summary.json").read_text())["final"]


def mean_finals(finals) -> dict[str, float]:
    """Mean of each accuracy over a list of final-metric records."""
    keys = ("acc_all", "acc_many", "acc_medium", "acc_few")
    return {key: float(np.mean([f[key] for f in finals])) for key in keys}


def kl_summary(tables) -> dict:
    """Per-class mean KL, pooled over runs (one table each), and its Spearman
    correlation with rarity. Classes are stored by decreasing count, so the
    class index is already the rarity rank."""
    from scipy import stats  # not at module level: it triples a run's resident memory

    per_class = np.mean(np.stack([t.mean(axis=0) for t in tables]), axis=0)
    rho, pvalue = stats.spearmanr(np.arange(per_class.size), per_class)
    return {
        "epochs": sum(len(t) for t in tables),
        "per_class_mean_kl": [float(v) for v in per_class],
        "mean_kl": float(per_class.mean()),
        "spearman_rarity": float(rho),
        "spearman_pvalue": float(pvalue),
    }


def conflict_summary(run_dir) -> dict:
    """Per-layer conflict rates and the epoch conflict-fraction profile. A run
    without an auxiliary gradient records no rows: nothing conflicted."""
    path = Path(run_dir) / "conflicts.csv"
    header, rows = read_csv(path)
    if header != CONFLICT_COLUMNS:
        raise FormatError(f"{path} line 1: header {header}, expected {CONFLICT_COLUMNS}")
    layers: dict[str, list[int]] = {}
    fractions: dict[int, float] = {}
    for line, (epoch, name, flag, fraction) in enumerate(rows, 2):
        layers.setdefault(name, []).append(_number(path, line, flag, int))
        fractions[_number(path, line, epoch, int)] = _number(path, line, fraction)
    series = [fractions[e] for e in sorted(fractions)]
    return {
        "epochs": len(series),
        "per_layer_conflict_rate": {k: float(np.mean(v)) for k, v in layers.items()},
        "fraction_mean": float(np.mean(series)) if series else 0.0,
        "fraction_nonzero_share": float(np.mean([f > 0 for f in series])) if series else 0.0,
    }
