import json
import shlex
import shutil
from dataclasses import asdict, replace

import numpy as np
import pytest

from ltreflect import cli, data, nn, reflect, trainer
from ltreflect.errors import NumericError, ParameterError

from oracles import baseline_run, cos_angle, serial_run


def tiny_sets(seed=0, classes=5, dim=6):
    counts = data.longtail_counts(classes, 40, 10.0)
    pairs = [(0, classes - 1, 0.8)]
    train = data.synth_gaussians(classes, dim, counts, 3.0, 1.0, pairs, seed=seed)
    test = data.synth_gaussians(
        classes, dim, np.full(classes, 10), 3.0, 1.0, pairs, seed=seed, noise_seed=seed + 1
    )
    return train, test, data.split_classes(train.class_counts)


def tiny_cfg(**kw):
    base = dict(epochs=5, batch_size=16, lr=0.3, hidden_dim=8, sigma_aug=0.1, seed=3)
    base.update(kw)
    return trainer.TrainConfig(**base)


def same_float(a, b):
    return a == b or (isinstance(a, float) and np.isnan(a) and np.isnan(b))


def metrics_equal(a, b):
    for field in ("epoch", "acc_all", "acc_many", "acc_medium", "acc_few",
                  "loss_ltr", "loss_kr", "loss_ks", "conflict_fraction"):
        if not same_float(getattr(a, field), getattr(b, field)):
            return False
    return a.layer_conflict_rates == b.layer_conflict_rates


# --- config validation ----------------------------------------------------------


def test_config_rejects_kr_with_mse_ablation():
    with pytest.raises(ParameterError):
        trainer.TrainConfig(use_kr=True, use_mse_ablation=True)


@pytest.mark.parametrize(
    "kw",
    [
        {"ltr_loss": "focal"},
        {"alpha": 1.5},
        {"tau": 0.5},
        {"lr": 0.0},
        {"momentum": 1.0},
        {"sigma_aug": -0.1},
        {"epochs": 0},
        {"use_ks": True, "hidden_dim": 0},
        {"seed": -1},
    ],
)
def test_config_rejects_bad_values(kw):
    with pytest.raises(ParameterError):
        trainer.TrainConfig(**kw)


# --- reduction and warm-up --------------------------------------------------------


# KC alone corrects no auxiliary gradient, so it trains the plain baseline too.
@pytest.mark.parametrize("ltr, use_kc", [("ce", False), ("bsce", False), ("ce", True)],
                         ids=["ce", "bsce", "ce-kc"])
def test_all_components_off_matches_plain_baseline_bitwise(ltr, use_kc):
    train, test, split = tiny_sets()
    cfg = tiny_cfg(ltr_loss=ltr, use_kc=use_kc)
    expected = baseline_run(cfg, train, test, split)

    state = trainer.init_state(cfg, train)
    for epoch in range(cfg.epochs):
        state, metrics = trainer.train_epoch(state, train, cfg)
        metrics = replace(metrics, **trainer.evaluate(state.params, test, split)[0])
        ref_loss, ref_accs = expected[epoch]
        assert metrics.loss_ltr == ref_loss
        for key, value in ref_accs.items():
            assert same_float(getattr(metrics, key), value)
        assert metrics.loss_kr == 0.0 and metrics.loss_ks == 0.0


def test_warm_up_epoch_contributes_no_regularization():
    train, test, split = tiny_sets()
    off = tiny_cfg(epochs=2)
    state_off, _ = trainer.train_epoch(trainer.init_state(off, train), train, off)
    # the full stack, and KS alone: without KR there is no prediction cache,
    # so KS's warm-up gate is its own soft labels
    for on, switched_on in (
        (tiny_cfg(use_kr=True, use_ks=True, use_kc=True, epochs=2), ("loss_kr", "loss_ks")),
        (tiny_cfg(use_ks=True, epochs=2), ("loss_ks",)),
    ):
        state_on, m_on = trainer.train_epoch(trainer.init_state(on, train), train, on)
        assert m_on.loss_kr == 0.0 and m_on.loss_ks == 0.0
        assert np.array_equal(state_on.params.flat, state_off.params.flat)
        # second epoch: the cache (KR) and the soft labels (KS) exist, so
        # the regularizers switch on
        state_on, m_on2 = trainer.train_epoch(state_on, train, on)
        for name in switched_on:
            assert getattr(m_on2, name) > 0.0, (on, name)


def test_two_runs_identical_metrics_stream():
    train, test, split = tiny_sets()
    cfg = tiny_cfg(use_kr=True, use_ks=True, use_kc=True)

    def collect():
        state = trainer.init_state(cfg, train)
        out = []
        for _ in range(cfg.epochs):
            state, m = trainer.train_epoch(state, train, cfg)
            out.append(replace(m, **trainer.evaluate(state.params, test, split)[0]))
        return out

    for a, b in zip(collect(), collect()):
        assert metrics_equal(a, b)


def recording(monkeypatch, module, name):
    """Wrap module.name; the returned list gets each call's arguments."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_no_prediction_cache_without_kr_or_mse_ablation(monkeypatch):
    train, test, split = tiny_sets()
    calls = recording(monkeypatch, reflect, "cache_update")
    cfg = tiny_cfg(use_ks=True, use_kc=True, epochs=3)
    state = trainer.init_state(cfg, train)
    for _ in range(cfg.epochs):
        state, _ = trainer.train_epoch(state, train, cfg)
        assert state.cache is None
    assert calls == []


# --- the serial oracle ---------------------------------------------------------------


def stock_sets(seed=7):
    """The shapes of `synth`'s defaults: 20 classes, 32 dims, 4 similar pairs."""
    classes = 20
    counts = data.longtail_counts(classes, 200, 100.0)
    pairs = [(i, classes // 2 + i, 0.8) for i in range(4)]
    train = data.synth_gaussians(classes, 32, counts, 3.0, 1.0, pairs, seed=seed)
    test = data.synth_gaussians(
        classes, 32, np.full(classes, 50), 3.0, 1.0, pairs, seed=seed, noise_seed=seed + 1
    )
    return train, test, data.split_classes(train.class_counts)


FULL_STACK = dict(use_kr=True, use_ks=True, use_kc=True)


@pytest.mark.parametrize(
    "kw",
    [
        FULL_STACK,
        dict(FULL_STACK, ltr_loss="bsce"),
        dict(use_kr=True, use_ks=True),
        dict(use_mse_ablation=True, use_ks=True, use_kc=True, lr=0.01),
        dict(FULL_STACK, sigma_aug=0.3),
        dict(hidden_dim=0, use_kr=True, use_kc=True),
    ],
    ids=["ce", "bsce", "kr-ks", "mse-ks-kc", "sigma-aug", "linear-kr-kc"],
)
def test_train_epoch_matches_the_serial_oracle_bitwise(kw):
    train, test, split = stock_sets()
    cfg = trainer.TrainConfig(alpha=0.95, epochs=3, **kw)
    params, velocity, history, soft_labels = serial_run(cfg, train, test, split)
    state = trainer.init_state(cfg, train)
    for expected in history:
        state, metrics = trainer.train_epoch(state, train, cfg)
        metrics = replace(metrics, **trainer.evaluate(state.params, test, split)[0])
        assert repr(asdict(metrics)) == repr(asdict(expected))  # repr tells -0.0 and nan apart
    assert state.params.flat.tobytes() == params.flat.tobytes()
    assert state.velocity.tobytes() == velocity.tobytes()
    assert state.soft_labels.M.tobytes() == soft_labels.M.tobytes()


def test_full_stack_epoch_runs_one_backward_per_batch(monkeypatch):
    train, test, split = tiny_sets()
    cfg = tiny_cfg(**FULL_STACK, epochs=2)
    state, _ = trainer.train_epoch(trainer.init_state(cfg, train), train, cfg)
    calls = recording(monkeypatch, nn, "backward")
    steps = []
    trainer.train_epoch(state, train, cfg, on_step=steps.append)
    assert all(step["g_aux"] is not None for step in steps)
    assert len(calls) == len(steps)


# --- loss bookkeeping ----------------------------------------------------------------


def test_mse_ablation_replaces_the_review_divergence():
    train, test, split = tiny_sets()
    kr_cfg = tiny_cfg(use_kr=True, epochs=3)
    mse_cfg = tiny_cfg(use_mse_ablation=True, epochs=3)

    def second_epoch_aux(cfg):
        state = trainer.init_state(cfg, train)
        state, _ = trainer.train_epoch(state, train, cfg)
        state, m = trainer.train_epoch(state, train, cfg)
        return m.loss_kr

    kr_val = second_epoch_aux(kr_cfg)
    mse_val = second_epoch_aux(mse_cfg)
    assert kr_val > 0.0 and mse_val > 0.0
    assert kr_val != mse_val  # different matching functions, same filter


def test_non_finite_loss_aborts_with_diagnostic():
    train, test, split = tiny_sets()
    cfg = tiny_cfg(use_mse_ablation=True, lr=1e30, epochs=4)
    state = trainer.init_state(cfg, train)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            for _ in range(cfg.epochs):
                state, _ = trainer.train_epoch(state, train, cfg)


# --- conflict correction in the loop ---------------------------------------------------


def test_kc_update_never_opposes_task_gradient():
    train, test, split = tiny_sets()
    cfg = tiny_cfg(use_kr=True, use_ks=True, use_kc=True)
    state = trainer.init_state(cfg, train)
    seen_aux = 0

    def check(step):
        nonlocal seen_aux
        if step["g_aux"] is None:
            return
        seen_aux += 1
        assert cos_angle(step["g_update"] - step["g_ltr"], step["g_ltr"]) >= -1e-9

    for _ in range(cfg.epochs):
        state, _ = trainer.train_epoch(state, train, cfg, on_step=check)
    assert seen_aux > 0


def test_kr_rows_for_previously_wrong_samples_get_zero_gradient():
    train, test, split = tiny_sets()
    cfg = tiny_cfg(use_kr=True)
    state = trainer.init_state(cfg, train)
    state, _ = trainer.train_epoch(state, train, cfg)  # builds the cache
    cache = state.cache
    wrong = ~cache.correct_mask
    if not wrong.any():
        pytest.skip("previous epoch classified everything correctly")
    idx = np.flatnonzero(wrong)[:4]
    out = reflect.kr_batch_loss(cache, idx, np.zeros((len(idx), train.num_classes)), cfg.tau)
    assert np.array_equal(out.dlogits, np.zeros_like(out.dlogits))


# --- evaluation -----------------------------------------------------------------------


def test_evaluate_oracle_model_is_perfect():
    classes, dim = 4, 5
    counts = np.full(classes, 30)
    train = data.synth_gaussians(classes, dim, counts, 50.0, 1e-3, seed=1)
    test = data.synth_gaussians(
        classes, dim, np.full(classes, 20), 50.0, 1e-3, seed=1, noise_seed=2
    )
    split = data.split_classes(train.class_counts)
    centers = np.stack(
        [train.features[train.labels == c].mean(axis=0) for c in range(classes)]
    ).astype(np.float64)
    params = nn.ModelParams(layers=[(centers, -0.5 * (centers**2).sum(axis=1))])
    accs, _ = trainer.evaluate(params, test, split)
    assert accs["acc_all"] == 1.0


def test_evaluate_constant_model_hits_chance():
    classes = 5
    test = data.synth_gaussians(classes, 4, np.full(classes, 40), 1.0, 1.0, seed=2)
    split = data.split_classes(np.full(classes, 500))
    bias = np.zeros(classes)
    bias[0] = 1.0
    params = nn.ModelParams(layers=[(np.zeros((classes, 4)), bias)])
    accs, _ = trainer.evaluate(params, test, split)
    assert accs["acc_all"] == 1.0 / classes


def test_evaluate_random_model_two_classes_binomial():
    test = data.synth_gaussians(2, 4, np.array([5000, 5000]), 0.0, 1.0, seed=3)
    split = data.split_classes(np.array([5000, 5000]))
    params = nn.init_params(4, 2, 0, np.random.default_rng(4))
    accs, _ = trainer.evaluate(params, test, split)
    assert abs(accs["acc_all"] - 0.5) < 3 * np.sqrt(0.25 / 10_000)


# --- experiment artifacts --------------------------------------------------------------


def write_tiny_pair(tmp_path, seed=0):
    train, test, _ = tiny_sets(seed=seed)
    train_path = tmp_path / "tiny.ltds"
    data.save_dataset(train, train_path)
    data.save_dataset(test, trainer.default_test_path(train_path))
    return train_path


def test_run_experiment_writes_artifacts(tmp_path):
    train_path = write_tiny_pair(tmp_path)
    cfg = tiny_cfg(use_kr=True, use_ks=True, use_kc=True, epochs=3)
    summary = trainer.run_experiment(cfg, train_path, tmp_path / "run")
    for name in ("metrics.csv", "conflicts.csv", "class_kl.csv", "summary.json", "config.echo"):
        assert (tmp_path / "run" / name).exists()
    header = (tmp_path / "run" / "metrics.csv").read_text().splitlines()[0]
    assert header == ",".join(trainer.METRIC_COLUMNS)
    assert summary["final"]["epoch"] == 2
    loaded = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert loaded["config"]["use_kr"] is True
    echo = trainer.train_echo(cfg, train_path, tmp_path / "run")
    assert (tmp_path / "run" / "config.echo").read_text() == echo + "\n"
    assert loaded["echo"] == summary["echo"] == echo


def run_files(run_dir):
    return {path.name: path.read_bytes() for path in sorted(run_dir.iterdir())}


def test_run_experiment_is_deterministic_on_disk(tmp_path):
    train_path = write_tiny_pair(tmp_path)
    cfg = tiny_cfg(use_kr=True, use_ks=True, epochs=3)
    trainer.run_experiment(cfg, train_path, tmp_path / "run")
    first = run_files(tmp_path / "run")
    trainer.run_experiment(cfg, train_path, tmp_path / "run")
    assert run_files(tmp_path / "run") == first


def test_library_run_echo_rewrites_the_run(tmp_path):
    """A run made the way the scripts make it holds config.echo, and that
    line fed to the CLI rewrites every file of the run byte for byte."""
    train_path = write_tiny_pair(tmp_path)
    run_dir = tmp_path / "run"
    trainer.run_experiment(tiny_cfg(use_kr=True, use_ks=True, use_kc=True), train_path, run_dir)
    first = run_files(run_dir)
    assert {"config.echo", "summary.json", "metrics.csv", "class_kl.csv"} <= set(first)
    shutil.rmtree(run_dir)
    assert cli.main(shlex.split(first["config.echo"].decode())) == 0
    assert run_files(run_dir) == first


def test_run_experiment_takes_class_medians_once_without_ks(tmp_path, monkeypatch):
    train_path = write_tiny_pair(tmp_path)
    calls = recording(monkeypatch, reflect, "class_centers_median")
    cfg = tiny_cfg(use_kr=True, use_kc=True, epochs=3)
    trainer.run_experiment(cfg, train_path, tmp_path / "run")
    assert len(calls) == 1
    assert (tmp_path / "run" / "similarity.csv").exists()


def test_run_experiment_forwards_the_test_set_once_per_epoch(tmp_path, monkeypatch):
    train_path = write_tiny_pair(tmp_path)
    test_rows = data.load_dataset(trainer.default_test_path(train_path)).num_samples
    cfg = tiny_cfg(use_kr=True, use_ks=True, use_kc=True, epochs=3)
    assert test_rows > cfg.batch_size  # no training batch is counted
    calls = recording(monkeypatch, nn, "forward")
    trainer.run_experiment(cfg, train_path, tmp_path / "run")
    assert sum(len(x) == test_rows for _, x in calls) == cfg.epochs


def test_run_experiment_missing_dataset_names_path(tmp_path):
    cfg = tiny_cfg()
    with pytest.raises(FileNotFoundError, match="nowhere.ltds"):
        trainer.run_experiment(cfg, tmp_path / "nowhere.ltds", tmp_path / "run")


def test_ablation_grid_emits_eight_rows(tmp_path):
    train_path = write_tiny_pair(tmp_path)
    base = tiny_cfg(epochs=2)
    rows = trainer.run_ablation_grid(base, train_path, tmp_path / "grid", seeds=[0])
    assert len(rows) == 8
    assert {(r["kr"], r["ks"], r["kc"]) for r in rows} == {
        (kr, ks, kc) for kr in (0, 1) for ks in (0, 1) for kc in (0, 1)
    }
    assert (tmp_path / "grid" / "ablation.csv").exists()
