"""Training orchestration: lockstep groups of runs, per-batch loss
assembly, one stacked backward, conflict-corrected updates, per-epoch
memory refresh, evaluation buckets, and `write_run`, which decides what
a run directory holds (`artifacts` decides how each file is formatted).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import shlex
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import artifacts, conflict, data, losses, nn, reflect
from .errors import DimensionError, NumericError, ParameterError, check

LTR_LOSSES = ("ce", "bsce")

@dataclass
class TrainConfig:
    ltr_loss: str = "ce"  # ce | bsce
    use_kr: bool = False
    use_ks: bool = False
    use_kc: bool = False
    tau: float = 2.0
    alpha: float = 0.9
    epochs: int = 40
    batch_size: int = 16
    lr: float = 0.05
    momentum: float = 0.9
    sigma_aug: float = 0.0
    seed: int = 0
    hidden_dim: int = 32

    def __post_init__(self):
        """A usage error names the `train` flag (TRAIN_FLAGS) and its value."""
        rules = [(name, "finite", np.isfinite(getattr(self, name)))
                 for _, name, kind, _ in TRAIN_FLAGS if kind is float]
        rules += [
            ("ltr_loss", "'ce' or 'bsce'", self.ltr_loss in LTR_LOSSES),
            ("alpha", "in [0, 1]", 0.0 <= self.alpha <= 1.0),
            ("tau", ">= 1", self.tau >= 1.0),
            ("epochs", ">= 1", self.epochs >= 1),
            ("batch_size", ">= 1", self.batch_size >= 1),
            # the last epoch's decayed rate, as train_epoch computes it: a
            # subnormal lr can round it to 0
            ("lr", "positive at every epoch", self.lr * (1.0 - (self.epochs - 1) / max(self.epochs, 1)) > 0),
            ("momentum", "in [0, 1)", 0.0 <= self.momentum < 1.0),
            ("sigma_aug", ">= 0", self.sigma_aug >= 0),
            ("seed", ">= 0", self.seed >= 0),
            ("hidden_dim", ">= 1", self.hidden_dim >= 1),
        ]
        flags = {name: flag for flag, name, _, _ in TRAIN_FLAGS}
        check((flags[name], rule, ok, getattr(self, name)) for name, rule, ok in rules)


# Every TrainConfig field as a `train` flag: (flag, field, type, help), in
# the order train_echo writes them. bool fields are on/off switches.
TRAIN_FLAGS = (
    ("--ltr", "ltr_loss", str, "ce or bsce"),
    ("--kr", "use_kr", bool, "enable review distillation"),
    ("--ks", "use_ks", bool, "enable similarity soft labels"),
    ("--kc", "use_kc", bool, "enable conflict projection"),
    ("--tau", "tau", float, None),
    ("--alpha", "alpha", float, None),
    ("--epochs", "epochs", int, None),
    ("--batch", "batch_size", int, None),
    ("--lr", "lr", float, None),
    ("--momentum", "momentum", float, None),
    ("--seed", "seed", int, None),
    ("--sigma-aug", "sigma_aug", float, None),
    ("--hidden", "hidden_dim", int, "hidden width"),
)


def train_echo(cfg: TrainConfig, data_path, out_dir, test_path=None) -> str:
    """The resolved `train` flag line; feeding it back reproduces the run."""
    parts = ["train", "--data", str(data_path), "--out", str(out_dir)]
    for flag, name, kind, _ in TRAIN_FLAGS:
        value = getattr(cfg, name)
        if kind is not bool:
            parts += [flag, str(value)]
        elif value:
            parts.append(flag)
    if test_path is not None:
        parts += ["--test-data", str(test_path)]
    return shlex.join(parts)


@dataclass
class EpochMetrics:
    epoch: int
    acc_all: float = float("nan")
    acc_many: float = float("nan")
    acc_medium: float = float("nan")
    acc_few: float = float("nan")
    loss_ltr: float = 0.0
    loss_kr: float = 0.0
    loss_ks: float = 0.0
    conflict_fraction: float = 0.0
    layer_conflict_rates: dict[str, float] = field(default_factory=dict)


# metrics.csv's columns and summary.json's "final" keys: every per-epoch scalar
METRIC_COLUMNS = [f.name for f in fields(EpochMetrics) if f.name != "layer_conflict_rates"]


@dataclass
class RunResult:
    """What one trained run sends back; `write_run` writes its directory from it."""

    history: list[EpochMetrics]  # one per epoch, with accuracies
    kl_rows: list[tuple[int, np.ndarray]]  # (epoch, per-class KL) from epoch 1 on
    similarity: np.ndarray  # the last epoch's [C, C] matrix


# Lockstep groups. The runs of a group differ only in LTR loss, components
# (KR, KS, KC) and seed (`group_key`); every other setting is the group's.
# They step together: one stacked forward, loss assembly (CE of the logits
# plus each BSCE run's log-prior), backward, conflict_stats and sgd_step
# serve them all. A component that is off in a run is a zero row (its
# auxiliary gradient) or left out by an index subset; a subset of every run
# is `slice(None)`, so it indexes nothing and copies nothing. A one-run
# group is a stack of one, `[1, ...]`, on the same path. Bitwise rules this
# relies on, each measured on numpy 2.4 with OpenBLAS at 1 and 2 threads,
# and held end to end by the serial oracle tests (tests/oracles.py::serial_run):
# - A stacked matmul ([S, B, D] @ [S, D, H], broadcast over a K axis too)
#   equals the per-slice `@`, bit for bit.
# - Last-axis row reductions (`.sum(axis=-1)`, `.max(axis=-1)`) and
#   `np.add.reduceat(p, starts, axis=1)` equal their per-run forms. So do
#   row dots `np.matmul(a[:, None, :], b[:, :, None])` and a stacked
#   `np.median(axis=1)`, which go unused: KC projects run by run, and medians
#   are taken run by run to bound the group's peak memory.
# - A masked KR loss value must be the `.sum()` of the run's
#   compacted rows: `np.add.reduceat` segments and zero-padded
#   `np.where(mask, x, 0).sum()` differ from `.sum()` in about 60% of random
#   cases, so `losses._batch_means` sums each run's rows on their own.
# - `ce_loss(logits + shift)` equals each run's own `bsce_loss` or `ce_loss`
#   call, also where a CE row's `+ 0.0` turns a -0.0 logit into +0.0.
# - Likewise a per-class mean is the `.sum()` of the class's rows in their
#   order, never `np.add.reduceat` or `np.bincount(weights=...)`: so
#   `reflect.per_class_adjacent_kl` takes every test row's KL in one pass
#   and each class's mean equals `kl_distill` on that class's rows alone.
# - The step adds the loss ledger's [S, 3] values into float64 sums: the
#   serial loop's own float add, and a 0.0 term leaves a 0.0 sum as it is.
# - Writing through `.reshape(-1, C)` of a strided `g[:, 0]` view silently
#   writes to a copy: the losses write only into arrays they allocated.
# - `nn.forward` adds its biases and applies `np.maximum(0.0, h, out=h)` in
#   place on the matmul outputs it allocated: the same ufuncs on the same
#   operands in the same order, so the bits match the out-of-place forward.


def group_key(cfg: TrainConfig) -> tuple:
    """Every field but the LTR loss, the components and the seed: a lockstep
    group's runs share it."""
    return astuple(replace(cfg, ltr_loss="ce", use_kr=False, use_ks=False, use_kc=False, seed=0))


def _subset(flags) -> slice | np.ndarray | None:
    """The runs whose flag is set: every run as slice(None), none as None."""
    flags = np.asarray(flags, dtype=bool)
    if flags.all():
        return slice(None)
    return np.flatnonzero(flags) if flags.any() else None


def _size(runs, num_runs: int) -> int:
    return num_runs if isinstance(runs, slice) else len(runs)


def _offsets(count: int, rows_per_run: int) -> np.ndarray | None:
    """Row offsets [count, 1] of that many runs' rows in a run-major buffer;
    None for a single run, whose rows need none."""
    return None if count == 1 else np.arange(count)[:, None] * rows_per_run


@dataclass(frozen=True)
class GroupLayout:
    """Which runs of a lockstep group use what, fixed for the group's life.
    Cache rows are run-major over the KR runs, store rows over the runs that
    take medians; an offset of a single run's rows is None."""

    shift: np.ndarray | None  # [S, 1, C] LTR logit shift: BSCE's log-prior, 0 for CE; None if all CE
    kr: slice | np.ndarray | None
    ks: slice | np.ndarray | None
    aux: slice | np.ndarray | None  # runs with an auxiliary gradient once epoch 0 is done
    kc: list[int]  # aux runs that project
    kr_rows: np.ndarray | None  # [S_kr, 1] cache row offset of each KR run
    ks_rows: np.ndarray | None  # [S_ks, 1] row offset of each KS run's soft targets

    @classmethod
    def of(cls, cfgs: list[TrainConfig], dataset: data.Dataset) -> GroupLayout:
        def flags(name):
            return np.array([getattr(cfg, name) for cfg in cfgs])

        bsce = flags("ltr_loss") == "bsce"
        prior = losses.log_prior_shift(dataset.class_counts, dataset.num_classes) if bsce.any() else None
        kr, ks = flags("use_kr"), flags("use_ks")
        aux = kr | ks
        return cls(
            shift=None if prior is None else np.where(bsce[:, None, None], prior, 0.0),
            kr=_subset(kr),
            ks=_subset(ks),
            aux=_subset(aux),
            kc=np.flatnonzero(flags("use_kc") & aux).tolist(),
            kr_rows=_offsets(kr.sum(), dataset.num_samples),
            ks_rows=_offsets(ks.sum(), dataset.num_classes),
        )


@dataclass
class TrainerState:
    """The runs of one lockstep group: one config up to the components and
    the seed. Row s of `params.flat` and `velocity` is run s's, and each run
    keeps its own shuffle and augmentation streams."""

    cfgs: list[TrainConfig]
    layout: GroupLayout
    params: nn.ModelParams  # [S, P]
    velocity: np.ndarray  # [S, P]
    shuffle_rngs: list[np.random.Generator]
    augment_rngs: list[np.random.Generator]
    soft_labels: list[reflect.SoftLabels | None]
    epoch: int = 0
    cache: reflect.EpochCache | None = None  # only with KR
    y_hat: np.ndarray | None = None  # [S_ks * C, C] soft targets of the KS runs, run-major


def rng_streams(seed: int) -> tuple[np.random.Generator, ...]:
    """Independent (init, shuffle, augment) streams so ablations that share
    a seed also share init, batch order, and augmentation noise."""
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.default_rng(c) for c in children)


def init_state(cfgs, dataset: data.Dataset) -> TrainerState:
    """A lockstep group of the given configs; each run is initialised from
    its own seed exactly as it would be alone."""
    cfgs = list(cfgs)
    if len({group_key(cfg) for cfg in cfgs}) != 1:
        raise ParameterError(
            "a lockstep group's runs differ only in ltr_loss, use_kr, use_ks, use_kc and seed"
        )
    streams = [rng_streams(cfg.seed) for cfg in cfgs]
    params = nn.stack_params(
        [nn.init_params(dataset.dim, dataset.num_classes, cfg.hidden_dim, init)
         for cfg, (init, _, _) in zip(cfgs, streams)]
    )
    return TrainerState(
        cfgs=cfgs,
        layout=GroupLayout.of(cfgs, dataset),
        params=params,
        velocity=np.zeros(params.flat.shape),
        shuffle_rngs=[shuffle for _, shuffle, _ in streams],
        augment_rngs=[augment for _, _, augment in streams],
        soft_labels=[None] * len(cfgs),
    )


def _add(target, runs, value) -> None:
    """target[runs] += value; for every run, in place with no write-back."""
    if isinstance(runs, slice):
        target += value
    else:
        target[runs] += value


def _rows(indices, runs, offsets):
    """The store or cache rows of a batch's indices for the given runs."""
    return indices[runs] if offsets is None else indices[runs] + offsets


LOSS_NAMES = ("ltr", "kr", "ks")


def assemble_batch_losses(
    state: TrainerState,
    logits: np.ndarray,
    indices: np.ndarray,
    labels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The loss ledger of one lockstep batch, (values, dlogits). `values` is
    [S, 3]: each run's losses in LOSS_NAMES order, 0.0 where it has no such
    term. `dlogits` is the task logit-gradients [S, B, C]; once epoch 0 is
    done in a group with KR or KS, the stack [S, 2, B, C] of task and
    auxiliary ones (KR, then KS, summed into zero rows). The warm-up epoch
    has neither a prediction cache nor soft labels, so no regularizer
    contributes anything. The LTR loss is CE on the logits plus the group's
    shift; with KS on and no shift, CE and soft_ce share one log-softmax."""
    lay, cfg = state.layout, state.cfgs[0]
    active = state.epoch > 0
    raw = losses.log_softmax(logits) if active and lay.ks is not None else None
    ltr = (losses.ce_loss(logits, labels, raw) if lay.shift is None
           else losses.ce_loss(logits + lay.shift, labels))
    values = np.zeros((len(state.cfgs), len(LOSS_NAMES)))
    values[:, 0] = ltr.value
    if not active or lay.aux is None:
        return values, ltr.dlogits
    dlogits = np.zeros((*ltr.dlogits.shape[:-2], 2, *ltr.dlogits.shape[-2:]))
    dlogits[:, 0] = ltr.dlogits
    if lay.kr is not None:
        kr = reflect.kr_batch_loss(state.cache, _rows(indices, lay.kr, lay.kr_rows), logits[lay.kr], cfg.tau)
        values[lay.kr, 1] = kr.value
        _add(dlogits[:, 1], lay.kr, kr.dlogits)
    if lay.ks is not None:
        targets = state.y_hat[_rows(labels, lay.ks, lay.ks_rows)]
        ks = losses.soft_ce(logits[lay.ks], targets, tuple(part[lay.ks] for part in raw))
        values[lay.ks, 2] = ks.value
        _add(dlogits[:, 1], lay.ks, ks.dlogits)
    return values, dlogits


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_epoch(state: TrainerState, dataset: data.Dataset) -> tuple[TrainerState, list[EpochMetrics]]:
    """One shuffled pass of every run of the group, in lockstep: each step
    makes one stacked forward, one loss assembly, one backward, one
    conflict_stats and one sgd_step for all runs. It builds only the memory
    something reads: the prediction cache with KR, the class medians and
    soft labels every epoch with KS and otherwise only in the final epoch
    (whose similarity matrix the run directory holds). The metrics, one per
    run, carry the losses and conflict rates; run_set adds the accuracies.
    Floating-point warnings are off: a non-finite loss raises instead,
    naming the first in (run, ltr/kr/ks) order, as does a non-finite
    gradient (`nn.sgd_step`)."""
    lay, cfg = state.layout, state.cfgs[0]
    num_runs, n = len(state.cfgs), dataset.num_samples
    lr = cfg.lr * (1.0 - state.epoch / cfg.epochs)
    orders = np.stack([rng.permutation(n) for rng in state.shuffle_rngs])
    aux = lay.aux if state.epoch > 0 else None
    last = state.epoch == cfg.epochs - 1
    if lay.kr is not None and state.cache is None:
        # one buffer: a row is read (review) before the same step rewrites it
        state.cache = reflect.empty_cache(_size(lay.kr, num_runs) * n, dataset.num_classes)
    writes_cache = lay.kr is not None and not last  # no epoch reads the last one's
    if lay.kr is not None and state.epoch > 0:
        reflect.temper(state.cache, cfg.tau)
    medians = slice(None) if last else lay.ks
    store = store_rows = None
    if medians is not None:
        held = _size(medians, num_runs)
        store = reflect.FeatureStore(held * n, cfg.hidden_dim)
        store_rows = _offsets(held, n)
    has_aux = np.zeros(num_runs, dtype=bool)
    if aux is not None:
        has_aux[aux] = True
    spans = state.params.layer_spans()
    starts = np.array([start for _, start, _ in spans])
    layer_hits = np.zeros((num_runs, len(spans)))
    sums = np.zeros((num_runs, len(LOSS_NAMES)))
    batches = 0

    for start in range(0, n, cfg.batch_size):
        idx = orders[:, start : start + cfg.batch_size]
        if cfg.sigma_aug > 0:
            x = np.stack([data.augment(dataset.features[i], cfg.sigma_aug, rng)
                          for i, rng in zip(idx, state.augment_rngs)])
        else:
            x = data.augment(dataset.features[idx], 0.0, None)
        y = dataset.labels[idx]
        rec = nn.forward(state.params, x)
        values, dlogits = assemble_batch_losses(state, rec.logits, idx, y)
        sums += values
        if not np.isfinite(values).all():
            run, which = np.argwhere(~np.isfinite(values))[0]
            raise NumericError(
                f"non-finite {LOSS_NAMES[which]} loss at epoch {state.epoch}, batch {batches}", run=int(run)
            )

        grads = nn.backward(state.params, rec, dlogits)
        if aux is None:
            g_update = grads
        else:
            g_ltr, g_aux = grads[..., 0, :], grads[..., 1, :]
            flags = conflict.conflict_stats(g_ltr[aux], g_aux[aux], starts)
            _add(layer_hits, aux, flags)
            g_update = g_ltr.copy()
            _add(g_update, aux, g_aux[aux])
            for s in lay.kc:
                # without a conflict the projection is g_aux + g_ltr: the row holds it
                projected, conflicted = conflict.project_if_conflict(grads[s, 0], grads[s, 1])
                if conflicted:
                    g_update[s] = projected

        nn.sgd_step(state.params, g_update, lr, cfg.momentum, state.velocity)
        if writes_cache:
            reflect.cache_update(
                state.cache, _rows(idx, lay.kr, lay.kr_rows), rec.logits[lay.kr], y[lay.kr]
            )
        if store is not None:
            store.add(_rows(idx, medians, store_rows), rec.features[medians])
        batches += 1

    if last:
        state.cache = None
    if store is not None:
        held = np.arange(num_runs)[medians]
        # run by run: a stacked median's copies of every run's class rows would
        # raise the group's peak memory by more than the medians save in calls
        for s, features in zip(held, store.features.reshape(len(held), n, -1)):
            centers = reflect.class_centers_median(features, dataset.labels, dataset.num_classes)
            state.soft_labels[s] = reflect.build_soft_labels(centers, cfg.alpha)
        if lay.ks is not None and not last:  # the next epoch's KS targets
            state.y_hat = np.concatenate(
                [state.soft_labels[s].y_hat for s in np.arange(num_runs)[lay.ks]]
            )

    metrics = [
        EpochMetrics(
            epoch=state.epoch,
            **{f"loss_{name}": float(sums[s, k]) / batches for k, name in enumerate(LOSS_NAMES)},
            conflict_fraction=float(layer_hits[s].sum() / len(spans) / batches) if has_aux[s] else 0.0,
            layer_conflict_rates=(
                {name: float(hits / batches) for (name, _, _), hits in zip(spans, layer_hits[s])}
                if has_aux[s]
                else {}
            ),
        )
        for s in range(num_runs)
    ]
    state.epoch += 1
    return state, metrics


def evaluate(
    params: nn.ModelParams, test_set: data.Dataset, split: dict[str, np.ndarray]
) -> tuple[dict[str, float], np.ndarray]:
    """Top-1 accuracy overall and per many/medium/few bucket, and the test
    logits they were taken from. Buckets come from the *training* class
    counts; acc_all averages over samples, not over buckets. Empty buckets
    report NaN."""
    logits = nn.forward(params, test_set.features.astype(np.float64)).logits
    correct = logits.argmax(axis=1) == test_set.labels
    out = {"acc_all": float(correct.mean())}
    for bucket in ("many", "medium", "few"):
        rows = np.isin(test_set.labels, split[bucket])
        out[f"acc_{bucket}"] = float(correct[rows].mean()) if rows.any() else float("nan")
    return out, logits


def default_test_path(dataset_path) -> Path:
    """data/foo.ltds -> data/foo.test.ltds (the synth command's convention)."""
    p = Path(dataset_path)
    if p.suffix:
        return p.with_suffix(".test" + p.suffix)
    return Path(str(p) + ".test")


def check_target(path, what: str, directory: bool = False) -> None:
    """Raises an OSError naming `path` if it lies under a file, or exists as
    a directory where a file goes (as a non-directory with `directory`)."""
    path = Path(path)
    found = next(p for p in (path, *path.parents) if p.exists())
    if found != path and not found.is_dir():
        raise NotADirectoryError(f"{what} {path} lies under {found}, which is not a directory")
    if found == path and path.is_dir() != directory:
        raise FileExistsError(f"{what} {path} exists and is {'not ' if directory else ''}a directory")


def write_metrics_csv(path, history: list[EpochMetrics]) -> None:
    rows = ([getattr(m, col) for col in METRIC_COLUMNS] for m in history)
    artifacts.write_csv(path, METRIC_COLUMNS, rows)


def write_conflicts_csv(path, history: list[EpochMetrics]) -> None:
    """One row per epoch and layer of a run with an auxiliary gradient:
    (epoch, layer_name, conflicted 0/1 at a rate >= 0.5, epoch conflict fraction)."""
    rows = ((m.epoch, name, 1 if rate >= 0.5 else 0, m.conflict_fraction)
            for m in history for name, rate in m.layer_conflict_rates.items())
    artifacts.write_csv(path, artifacts.CONFLICT_COLUMNS, rows)


# The files of a run directory, in the order write_run writes them.
RUN_FILES = ("metrics.csv", "conflicts.csv", "class_kl.csv", "similarity.csv", "config.echo", "summary.json")


def write_run(cfg: TrainConfig, out_dir, result: RunResult, dataset_path, test_path=None) -> dict:
    """Makes `out_dir`, writes the run's RUN_FILES and returns the
    summary.json record. Each writer is looked up by its module name when
    called, so a replaced `trainer.write_metrics_csv` is the one that writes.
    `test_path` is --test-data as given: the flag line records it only when
    given, summary.json the test file the run read."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics, conflicts, class_kl, similarity, echo_file, summary_file = (out / name for name in RUN_FILES)
    write_metrics_csv(metrics, result.history)
    write_conflicts_csv(conflicts, result.history)
    reflect.write_class_kl_series(class_kl, result.kl_rows)
    reflect.write_matrix_csv(similarity, result.similarity)
    echo = train_echo(cfg, dataset_path, out_dir, test_path)
    echo_file.write_text(echo + "\n")
    summary = {
        "config": asdict(cfg),
        "dataset": str(Path(dataset_path)),
        "test_dataset": str(default_test_path(dataset_path) if test_path is None else Path(test_path)),
        "epochs_run": len(result.history),
        "final": {col: getattr(result.history[-1], col) for col in METRIC_COLUMNS},
        "echo": echo,
    }
    artifacts.write_json(summary_file, summary, strict=False)
    return summary


# Byte budget of one lockstep group's stacked per-run float64 state, a run's
# estimated from the dataset's shape: 2*N*C for the review cache and its
# tempering, N*H for the feature store and N_test*C for the previous test
# logits. A group takes as many runs as fit: the stock set 48, the wide
# 100-class set one, whose run needs 61 MB.
GROUP_BYTES = 32 * 2**20


def lockstep_groups(cfgs, train: data.Dataset, test: data.Dataset) -> list[list[int]]:
    """Positions of `cfgs` by lockstep group: runs of one `group_key`, in
    first-appearance order, split to fit GROUP_BYTES."""
    by_key: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        by_key.setdefault(group_key(cfg), []).append(i)
    n, c = train.num_samples, train.num_classes
    groups = []
    for members in by_key.values():
        per_run = 8 * (2 * n * c + n * cfgs[members[0]].hidden_dim + test.num_samples * c)
        size = max(1, GROUP_BYTES // per_run)
        groups += [members[i : i + size] for i in range(0, len(members), size)]
    return groups


def train_group(cfgs, train: data.Dataset, test: data.Dataset, split) -> tuple[TrainerState, list[RunResult]]:
    """Trains one lockstep group to its last epoch, evaluating run by run
    after each epoch. Returns the final state and each run's RunResult."""
    state = init_state(cfgs, train)
    series = [([], []) for _ in cfgs]  # each run's history and KL rows
    prev_logits = [None] * len(cfgs)
    for _ in range(state.cfgs[0].epochs):
        state, metrics = train_epoch(state, train)
        for s, (m, (history, kl_rows)) in enumerate(zip(metrics, series)):
            accs, logits = evaluate(state.params.run(s), test, split)
            history.append(replace(m, **accs))
            if prev_logits[s] is not None:
                kl = reflect.per_class_adjacent_kl(
                    prev_logits[s], logits, test.labels, num_classes=train.num_classes
                )
                kl_rows.append((m.epoch, kl))
            prev_logits[s] = logits
    return state, [RunResult(history, kl_rows, labels.M)
                   for (history, kl_rows), labels in zip(series, state.soft_labels)]


@functools.cache
def _openblas():
    """The loaded OpenBLAS as a function-name lookup: `name` ->
    `<prefix>_<name><suffix>` of its library, or None when it lacks that
    symbol. Found once per process in /proc/self/maps by its thread-count
    get and set; None for a numpy on another BLAS, or without /proc."""
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
        for prefix, suffix in (
            ("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")
        ):
            if all(hasattr(lib, f"{prefix}_{op}_num_threads{suffix}") for op in ("get", "set")):
                return lambda name: getattr(lib, f"{prefix}_{name}{suffix}", None)
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Runs the block with OpenBLAS at one thread, then restores the
    caller's count on every exit. The thread count decides how a matmul
    splits its sums, so a pinned run writes the same bits on any machine;
    on a run's small matmuls a second thread mostly spins. Without an
    OpenBLAS setter the block runs unpinned."""
    symbol = _openblas()
    if symbol is None:
        yield
        return
    # int -> int, ctypes' default prototype
    get, put = symbol("get_num_threads"), symbol("set_num_threads")
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _cpus() -> int:
    """The CPUs this process may run on, one lane each; `taskset -c 0`
    makes it one. One without an affinity API."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _parts(groups, cpus: int) -> list[tuple[int, list[int]]]:
    """(group, runs) parts of the lockstep groups, in set order: one per
    group, then the largest part cut into contiguous halves while there are
    fewer parts than CPUs. A run's bits do not depend on its group's other
    runs, and contiguous halves of the ablation grid are its kr0 and kr1
    cells, which train faster alone than interleaved halves."""
    parts = list(enumerate(groups))
    while len(parts) < cpus:
        k = max(range(len(parts)), key=lambda k: len(parts[k][1]))
        g, members = parts[k]
        if len(members) < 2:
            break
        h = (len(members) + 1) // 2
        parts[k : k + 1] = [(g, members[:h]), (g, members[h:])]
    return parts


def _train_part(cfgs, train: data.Dataset, test: data.Dataset, split) -> list[RunResult]:
    """Trains the runs of one part as one lockstep group and returns each
    run's RunResult. Small enough to send back from a worker lane, which is
    forked inside `run_set`'s pinned block and so runs at its one BLAS thread."""
    return train_group(cfgs, train, test, split)[1]


def _named(exc: NumericError, runs, group) -> NumericError:
    """A group's divergence, naming its run's directory in a set of more than one."""
    if len(runs) == 1 or exc.run is None:
        return exc
    return NumericError(f"{exc} in run {runs[group[exc.run]][1]}")


def _trained_groups(runs, groups, train, test, split):
    """Yields each group's RunResults, in set order, its parts
    (`_parts`) trained on one lane per CPU: part k on lane k % lanes, lane 0
    here when its group comes up and the others on forked workers. One lane
    builds no pool and imports nothing. A diverging group raises what one
    lane raises: an uncut group its own error, a cut one by training again
    whole here once the pool is shut down. Closing the generator shuts the
    pool down, also on an error."""
    cpus = _cpus()
    parts = _parts(groups, cpus)
    lanes = min(cpus, len(parts))
    pool, broken = None, ()
    if lanes > 1:
        import multiprocessing  # only here: the one-lane path pays no import
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool as broken

        # fork: a worker starts with the program imported and OpenBLAS pinned
        pool = ProcessPoolExecutor(lanes - 1, mp_context=multiprocessing.get_context("fork"))
    cfgs = [[runs[i][0] for i in members] for _, members in parts]
    try:
        futures = {k: pool.submit(_train_part, cfgs[k], train, test, split)
                   for k in range(len(parts)) if k % lanes}
        for g, group in enumerate(groups):
            cut = [k for k, (part_group, _) in enumerate(parts) if part_group == g]
            try:
                try:
                    outs = [futures[k].result() if k in futures
                            else _train_part(cfgs[k], train, test, split) for k in cut]
                except NumericError:
                    if len(cut) == 1:
                        raise
                    pool.shutdown(cancel_futures=True)
                    outs = [_train_part([runs[i][0] for i in group], train, test, split)]
            except broken:
                raise ChildProcessError(
                    f"a worker process died while training the group of run {runs[group[0]][1]}"
                ) from None
            except NumericError as exc:
                raise _named(exc, runs, group) from None
            yield [result for out in outs for result in out]  # parts are contiguous, in order
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


@_one_blas_thread()
def run_set(runs, dataset_path, test_path=None) -> list[dict]:
    """Trains every `(cfg, out_dir)` of `runs` on one train/test pair, loaded
    and checked once, in lockstep groups (`lockstep_groups`); returns the
    summary records in run order. Each run's files (`write_run`) equal the
    ones it writes alone, byte for byte, and the flag line they record
    reproduces it at any BLAS thread count: the set runs with OpenBLAS at
    one thread (`_one_blas_thread`). The set trains on one lane per usable
    CPU (`_trained_groups`), and its files do not depend on the lane count.
    Groups are written in set order, each after all of its runs finished;
    the first group that diverges, or whose worker dies, writes none of its
    directories and stops the set. A run directory that is a file, or lies
    under one, is an OSError before the pair loads."""
    if not runs:
        raise ParameterError("a run set needs at least one run")
    dirs = [Path(out_dir).resolve() for _, out_dir in runs]
    if len(set(dirs)) != len(dirs):
        twice = next(runs[i][1] for i, d in enumerate(dirs) if d in dirs[:i])
        raise ParameterError(f"run directory {twice} appears twice in one run set")
    for _, out_dir in runs:  # a run's directory is made when it is written
        check_target(out_dir, "run directory", directory=True)
    train_path = Path(dataset_path)
    if not train_path.exists():
        raise FileNotFoundError(f"dataset file not found: {train_path}")
    tp = Path(test_path) if test_path is not None else default_test_path(train_path)
    if not tp.exists():
        raise FileNotFoundError(f"test dataset file not found: {tp}")
    train = data.load_dataset(train_path)
    test = data.load_dataset(tp)
    if (test.dim, test.num_classes) != (train.dim, train.num_classes):
        raise DimensionError(
            f"train set {train_path} has {train.dim} dims and {train.num_classes} classes, "
            f"test set {tp} has {test.dim} dims and {test.num_classes} classes"
        )
    split = data.split_classes(train.class_counts)

    summaries = [None] * len(runs)
    groups = lockstep_groups([cfg for cfg, _ in runs], train, test)
    with contextlib.closing(_trained_groups(runs, groups, train, test, split)) as trained:
        for group, results in zip(groups, trained):
            for i, result in zip(group, results):
                cfg, out_dir = runs[i]
                summaries[i] = write_run(cfg, out_dir, result, dataset_path, test_path)
    return summaries


def run_experiment(cfg: TrainConfig, dataset_path, out_dir, test_path=None) -> dict:
    """One training run: the one-run case of `run_set`."""
    return run_set([(cfg, out_dir)], dataset_path, test_path)[0]


GRID_CELLS = [
    (kr, ks, kc) for kr in (False, True) for ks in (False, True) for kc in (False, True)
]


def run_ablation_grid(
    base_cfg: TrainConfig, dataset_path, out_dir, seeds, test_path=None
) -> list[dict]:
    """All 2^3 component combinations, each over the given seeds, as one run
    set; one aggregated row per cell, also written to ablation.csv. Every
    cell's config and the table's target are checked before the first run starts."""
    out, table = Path(out_dir), Path(out_dir, "ablation.csv")
    if table.is_dir():  # a table under a file is run_set's run-directory error
        raise IsADirectoryError(f"ablation table {table} exists and is a directory")
    runs = [
        (replace(base_cfg, use_kr=kr, use_ks=ks, use_kc=kc, seed=seed),
         out / f"kr{int(kr)}_ks{int(ks)}_kc{int(kc)}" / f"seed{seed}")
        for kr, ks, kc in GRID_CELLS for seed in seeds
    ]
    summaries = iter(run_set(runs, dataset_path, test_path))
    rows = []
    for kr, ks, kc in GRID_CELLS:
        finals = [next(summaries)["final"] for _ in seeds]
        means = {f"mean_{k}": v for k, v in artifacts.mean_finals(finals).items()}
        rows.append({"kr": int(kr), "ks": int(ks), "kc": int(kc), "seeds": len(finals), **means})
    artifacts.write_csv(table, list(rows[0]), (row.values() for row in rows))
    return rows
