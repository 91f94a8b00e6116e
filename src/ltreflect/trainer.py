"""Training orchestration: per-batch loss assembly, one stacked backward,
conflict-corrected updates, per-epoch memory refresh, evaluation buckets,
and what a run directory holds (`artifacts` owns the file format).
"""

from __future__ import annotations

import math
import shlex
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import artifacts, conflict, data, losses, nn, reflect
from .errors import DimensionError, NumericError, ParameterError

LTR_LOSSES = ("ce", "bsce")

METRIC_COLUMNS = [
    "epoch",
    "acc_all",
    "acc_many",
    "acc_medium",
    "acc_few",
    "loss_ltr",
    "loss_kr",
    "loss_ks",
    "conflict_fraction",
]


@dataclass
class TrainConfig:
    ltr_loss: str = "ce"  # ce | bsce
    use_kr: bool = False
    use_ks: bool = False
    use_kc: bool = False
    use_mse_ablation: bool = False
    tau: float = 2.0
    alpha: float = 0.9
    epochs: int = 40
    batch_size: int = 16
    lr: float = 0.05
    momentum: float = 0.9
    sigma_aug: float = 0.0
    seed: int = 0
    hidden_dim: int = 32  # 0 = linear classifier

    def __post_init__(self):
        for _, name, kind, _ in TRAIN_FLAGS:
            if kind is float and not np.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.ltr_loss not in LTR_LOSSES:
            raise ParameterError(f"ltr_loss must be 'ce' or 'bsce', got {self.ltr_loss!r}")
        if self.use_mse_ablation and self.use_kr:
            raise ParameterError("use_mse_ablation excludes use_kr")
        if not (0.0 <= self.alpha <= 1.0):
            raise ParameterError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.tau < 1.0:
            raise ParameterError(f"tau must be >= 1, got {self.tau}")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ParameterError("epochs and batch_size must be positive")
        if self.lr <= 0:
            raise ParameterError(f"lr must be positive, got {self.lr}")
        if not (0.0 <= self.momentum < 1.0):
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.sigma_aug < 0:
            raise ParameterError(f"sigma_aug must be >= 0, got {self.sigma_aug}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.hidden_dim < 0:
            raise ParameterError(f"hidden_dim must be >= 0, got {self.hidden_dim}")
        if self.use_ks and self.hidden_dim == 0:
            # a linear model's features are its signed inputs: soft labels can go negative
            raise ParameterError("use_ks needs hidden_dim > 0")


# Every TrainConfig field as a `train` flag: (flag, field, type, help), in
# the order train_echo writes them. bool fields are on/off switches.
TRAIN_FLAGS = (
    ("--ltr", "ltr_loss", str, None),
    ("--kr", "use_kr", bool, "enable review distillation"),
    ("--ks", "use_ks", bool, "enable similarity soft labels"),
    ("--kc", "use_kc", bool, "enable conflict projection"),
    ("--mse-ablation", "use_mse_ablation", bool, "replace the review KL with direct logit MSE"),
    ("--tau", "tau", float, None),
    ("--alpha", "alpha", float, None),
    ("--epochs", "epochs", int, None),
    ("--batch", "batch_size", int, None),
    ("--lr", "lr", float, None),
    ("--momentum", "momentum", float, None),
    ("--seed", "seed", int, None),
    ("--sigma-aug", "sigma_aug", float, None),
    ("--hidden", "hidden_dim", int, "hidden width (0 = linear model)"),
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


@dataclass
class TrainerState:
    params: nn.ModelParams
    velocity: np.ndarray
    shuffle_rng: np.random.Generator
    augment_rng: np.random.Generator
    epoch: int = 0
    cache: reflect.EpochCache | None = None  # only with KR or the MSE ablation
    soft_labels: reflect.SoftLabels | None = None


def rng_streams(seed: int) -> tuple[np.random.Generator, ...]:
    """Independent (init, shuffle, augment) streams so ablations that share
    a seed also share init, batch order, and augmentation noise."""
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.default_rng(c) for c in children)


def init_state(cfg: TrainConfig, dataset: data.Dataset) -> TrainerState:
    init_rng, shuffle_rng, augment_rng = rng_streams(cfg.seed)
    params = nn.init_params(dataset.dim, dataset.num_classes, cfg.hidden_dim, init_rng)
    return TrainerState(
        params=params,
        velocity=np.zeros(params.num_params),
        shuffle_rng=shuffle_rng,
        augment_rng=augment_rng,
    )


def assemble_batch_losses(
    cfg: TrainConfig,
    logits: np.ndarray,
    indices: np.ndarray,
    labels: np.ndarray,
    class_counts: np.ndarray,
    cache: reflect.EpochCache | None,
    soft_labels: reflect.SoftLabels | None,
):
    """Returns (ltr, kr, ks). kr/ks are None while inactive: the warm-up
    epoch has neither a prediction cache nor soft labels, so neither
    regularizer contributes anything. With KS on, CE and soft_ce share one
    log-softmax of the logits; BSCE takes its own, of the shifted logits."""
    raw = losses.log_softmax(logits) if cfg.use_ks and soft_labels is not None else None
    if cfg.ltr_loss == "bsce":
        ltr = losses.bsce_loss(logits, labels, class_counts)
    else:
        ltr = losses.ce_loss(logits, labels, raw)
    kr = ks = None
    if cache is not None:
        if cfg.use_kr:
            kr = reflect.kr_batch_loss(cache, indices, logits, cfg.tau)
        elif cfg.use_mse_ablation:
            kr = reflect.mse_batch_loss(cache, indices, logits)
    if raw is not None:
        ks = losses.soft_ce(logits, soft_labels.y_hat[labels], raw)
    return ltr, kr, ks


def train_epoch(
    state: TrainerState,
    dataset: data.Dataset,
    cfg: TrainConfig,
    on_step=None,
) -> tuple[TrainerState, EpochMetrics]:
    """One shuffled pass. It builds only the memory something reads: the
    prediction cache with KR or the MSE ablation, the class medians and
    soft labels every epoch with KS and otherwise only in the final epoch
    (whose similarity matrix run_experiment writes). The metrics carry the
    losses and conflict rates; run_experiment adds the accuracies."""
    n = dataset.num_samples
    lr = cfg.lr * (1.0 - state.epoch / cfg.epochs)
    order = state.shuffle_rng.permutation(n)
    reads_cache = cfg.use_kr or cfg.use_mse_ablation
    takes_medians = cfg.use_ks or state.epoch == cfg.epochs - 1
    next_cache = reflect.empty_cache(n, dataset.num_classes) if reads_cache else None
    feature_dim = state.params.layers[-1][0].shape[1]
    store = reflect.FeatureStore(n, feature_dim) if takes_medians else None
    spans = state.params.layer_spans()
    starts = np.array([start for _, start, _ in spans])
    layer_hits = np.zeros(len(spans))
    sums = {"ltr": 0.0, "kr": 0.0, "ks": 0.0, "conflict": 0.0}
    batches = 0
    aux_batches = 0

    for start in range(0, n, cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        x = data.augment(dataset.features[idx], cfg.sigma_aug, state.augment_rng)
        y = dataset.labels[idx]
        rec = nn.forward(state.params, x)
        ltr, kr, ks = assemble_batch_losses(
            cfg, rec.logits, idx, y, dataset.class_counts, state.cache, state.soft_labels
        )
        for name, out in (("ltr", ltr), ("kr", kr), ("ks", ks)):
            if out is not None and not math.isfinite(out.value):
                raise NumericError(
                    f"non-finite {name} loss at epoch {state.epoch}, batch {batches}"
                )
            sums[name] += out.value if out is not None else 0.0

        g_aux = None
        if kr is not None or ks is not None:
            # backward is linear in dlogits: one stacked pass gives both gradients
            dlogits = np.zeros((2, *rec.logits.shape))
            dlogits[0] = ltr.dlogits
            if kr is not None:
                dlogits[1] += kr.dlogits
            if ks is not None:
                dlogits[1] += ks.dlogits
            g_ltr, g_aux = nn.backward(state.params, rec, dlogits)
            flags = conflict.conflict_stats(g_ltr, g_aux, starts)
            layer_hits += flags
            sums["conflict"] += float(flags.sum() / flags.size)
            aux_batches += 1
            if cfg.use_kc:
                g_update, _ = conflict.project_if_conflict(g_ltr, g_aux)
            else:
                g_update = g_ltr + g_aux
        else:
            g_ltr = g_update = nn.backward(state.params, rec, ltr.dlogits)

        nn.sgd_step(state.params, g_update, lr, cfg.momentum, state.velocity)
        if next_cache is not None:
            reflect.cache_update(next_cache, idx, rec.logits, y)
        if store is not None:
            store.add(idx, rec.features)
        if on_step is not None:
            on_step({"g_ltr": g_ltr, "g_aux": g_aux, "g_update": g_update})
        batches += 1

    state.cache = next_cache
    if store is not None:
        centers = reflect.class_centers_median(
            store.features, dataset.labels, dataset.num_classes
        )
        state.soft_labels = reflect.build_soft_labels(centers, cfg.alpha)

    metrics = EpochMetrics(
        epoch=state.epoch,
        loss_ltr=sums["ltr"] / batches,
        loss_kr=sums["kr"] / batches,
        loss_ks=sums["ks"] / batches,
        conflict_fraction=sums["conflict"] / aux_batches if aux_batches else 0.0,
        layer_conflict_rates=(
            {name: float(hits / aux_batches) for (name, _, _), hits in zip(spans, layer_hits)}
            if aux_batches
            else {}
        ),
    )
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


def write_metrics_csv(path, history: list[EpochMetrics]) -> None:
    rows = ([getattr(m, col) for col in METRIC_COLUMNS] for m in history)
    artifacts.write_csv(path, METRIC_COLUMNS, rows)


def write_conflicts_csv(path, rows) -> None:
    """rows = (epoch, layer_name, conflicted 0/1, epoch conflict fraction)."""
    artifacts.write_csv(path, artifacts.CONFLICT_COLUMNS, rows)


def run_set(runs, dataset_path, test_path=None) -> list[dict]:
    """Trains each `(cfg, out_dir)` of `runs` in order on one train/test pair,
    loaded and checked once; returns the summary records in run order. Each
    run writes metrics.csv, conflicts.csv, class_kl.csv, similarity.csv,
    summary.json and config.echo, the `train` flag line that reproduces it."""
    if not runs:
        raise ParameterError("a run set needs at least one run")
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

    summaries = []
    for cfg, out_dir in runs:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)

        state = init_state(cfg, train)
        history: list[EpochMetrics] = []
        kl_rows = []
        conflict_rows = []
        prev_logits = None
        for _ in range(cfg.epochs):
            state, metrics = train_epoch(state, train, cfg)
            accs, logits = evaluate(state.params, test, split)
            metrics = replace(metrics, **accs)
            history.append(metrics)
            if prev_logits is not None:
                kl = reflect.per_class_adjacent_kl(
                    prev_logits, logits, test.labels, num_classes=train.num_classes
                )
                kl_rows.append((metrics.epoch, kl))
            prev_logits = logits
            for name, rate in metrics.layer_conflict_rates.items():
                conflict_rows.append(
                    (metrics.epoch, name, 1 if rate >= 0.5 else 0, metrics.conflict_fraction)
                )

        write_metrics_csv(out / "metrics.csv", history)
        write_conflicts_csv(out / "conflicts.csv", conflict_rows)
        reflect.write_class_kl_series(out / "class_kl.csv", kl_rows)
        reflect.write_matrix_csv(out / "similarity.csv", state.soft_labels.M)
        echo = train_echo(cfg, dataset_path, out_dir, test_path)
        (out / "config.echo").write_text(echo + "\n")

        final = history[-1]
        summary = {
            "config": asdict(cfg),
            "dataset": str(train_path),
            "test_dataset": str(tp),
            "epochs_run": len(history),
            "final": {col: getattr(final, col) for col in METRIC_COLUMNS},
            "echo": echo,
        }
        artifacts.write_json(out / "summary.json", summary, strict=False)
        summaries.append(summary)
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
    cell's config is checked before the first run starts."""
    out = Path(out_dir)
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
    artifacts.write_csv(out / "ablation.csv", list(rows[0]), (row.values() for row in rows))
    return rows
