import concurrent.futures
import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltreflect import artifacts, cli, data, nn, reflect, trainer
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
    for field in trainer.METRIC_COLUMNS:
        if not same_float(getattr(a, field), getattr(b, field)):
            return False
    return a.layer_conflict_rates == b.layer_conflict_rates


# --- config validation ----------------------------------------------------------


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
        {"hidden_dim": 0},
        {"seed": -1},
        {"batch_size": 0},
        {"lr": 5e-324},  # positive, but the 40th epoch's decayed rate rounds to 0
    ],
)
def test_config_rejects_bad_values(kw):
    """The usage error names the field's `train` flag and its value."""
    ((name, value),) = kw.items()
    flag = {name: flag for flag, name, _, _ in trainer.TRAIN_FLAGS}[name]
    with pytest.raises(ParameterError, match=rf"^{re.escape(flag)} must be .+, got {re.escape(repr(value))}$"):
        trainer.TrainConfig(**kw)


# --- reduction and warm-up --------------------------------------------------------


# KC alone corrects no auxiliary gradient, so it trains the plain baseline too.
@pytest.mark.parametrize("ltr, use_kc", [("ce", False), ("bsce", False), ("ce", True)],
                         ids=["ce", "bsce", "ce-kc"])
def test_all_components_off_matches_plain_baseline_bitwise(ltr, use_kc):
    train, test, split = tiny_sets()
    cfg = tiny_cfg(ltr_loss=ltr, use_kc=use_kc)
    expected = baseline_run(cfg, train, test, split)

    state = trainer.init_state([cfg], train)
    for epoch in range(cfg.epochs):
        state, (metrics,) = trainer.train_epoch(state, train)
        metrics = replace(metrics, **trainer.evaluate(state.params.run(0), test, split)[0])
        ref_loss, ref_accs = expected[epoch]
        assert metrics.loss_ltr == ref_loss
        for key, value in ref_accs.items():
            assert same_float(getattr(metrics, key), value)
        assert metrics.loss_kr == 0.0 and metrics.loss_ks == 0.0


def test_warm_up_epoch_contributes_no_regularization():
    train, test, split = tiny_sets()
    off = tiny_cfg(epochs=2)
    state_off, _ = trainer.train_epoch(trainer.init_state([off], train), train)
    # the full stack, and KS alone: without KR there is no prediction cache,
    # so KS's warm-up gate is its own soft labels
    for on, switched_on in (
        (tiny_cfg(use_kr=True, use_ks=True, use_kc=True, epochs=2), ("loss_kr", "loss_ks")),
        (tiny_cfg(use_ks=True, epochs=2), ("loss_ks",)),
    ):
        state_on, (m_on,) = trainer.train_epoch(trainer.init_state([on], train), train)
        assert m_on.loss_kr == 0.0 and m_on.loss_ks == 0.0
        assert np.array_equal(state_on.params.flat, state_off.params.flat)
        # second epoch: the cache (KR) and the soft labels (KS) exist, so
        # the regularizers switch on
        state_on, (m_on2,) = trainer.train_epoch(state_on, train)
        for name in switched_on:
            assert getattr(m_on2, name) > 0.0, (on, name)


def test_two_runs_identical_metrics_stream():
    train, test, split = tiny_sets()
    cfg = tiny_cfg(use_kr=True, use_ks=True, use_kc=True)

    def collect():
        state = trainer.init_state([cfg], train)
        out = []
        for _ in range(cfg.epochs):
            state, (m,) = trainer.train_epoch(state, train)
            out.append(replace(m, **trainer.evaluate(state.params.run(0), test, split)[0]))
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


def test_no_prediction_cache_without_kr(monkeypatch):
    train, test, split = tiny_sets()
    calls = recording(monkeypatch, reflect, "cache_update")
    cfg = tiny_cfg(use_ks=True, use_kc=True, epochs=3)
    state = trainer.init_state([cfg], train)
    for _ in range(cfg.epochs):
        state, _ = trainer.train_epoch(state, train)
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
        dict(FULL_STACK, sigma_aug=0.3),
    ],
    ids=["ce", "bsce", "kr-ks", "sigma-aug"],
)
def test_train_epoch_matches_the_serial_oracle_bitwise(kw):
    train, test, split = stock_sets()
    cfg = trainer.TrainConfig(alpha=0.95, epochs=3, **kw)
    params, velocity, history, soft_labels, _ = serial_run(cfg, train, test, split)
    state = trainer.init_state([cfg], train)
    for expected in history:
        state, (metrics,) = trainer.train_epoch(state, train)
        metrics = replace(metrics, **trainer.evaluate(state.params.run(0), test, split)[0])
        assert repr(asdict(metrics)) == repr(asdict(expected))  # repr tells -0.0 and nan apart
    assert state.params.flat.tobytes() == params.flat.tobytes()
    assert state.velocity.tobytes() == velocity.tobytes()
    assert state.soft_labels[0].M.tobytes() == soft_labels.M.tobytes()


def test_run_set_matches_the_serial_oracle_per_run(tmp_path, monkeypatch):
    """One heterogeneous set, split into lockstep groups by everything but
    the LTR loss, the components and the seed, each variant beside a sibling
    that differs in those (CE and BSCE runs share the first group): every
    run ends where the serial oracle ends, bit for bit, its RunResult's KL
    rows equal the oracle's one kl_distill call per class, and its
    similarity matrix is the oracle's last one."""
    train, test, split = stock_sets()
    train_path = tmp_path / "stock.ltds"
    data.save_dataset(train, train_path)
    data.save_dataset(test, trainer.default_test_path(train_path))
    base = trainer.TrainConfig(alpha=0.95, epochs=3)
    bsce = replace(base, ltr_loss="bsce")
    aug = replace(base, sigma_aug=0.3)
    tuned = replace(base, alpha=0.8, lr=0.03, tau=3.0, momentum=0.5)
    narrow = replace(base, hidden_dim=8)
    short = replace(base, epochs=2)
    cfgs = [
        base, replace(base, **FULL_STACK), replace(base, use_kr=True, seed=2),
        bsce, replace(bsce, **FULL_STACK, seed=1),
        replace(aug, **FULL_STACK), replace(aug, seed=1),
        replace(tuned, **FULL_STACK, seed=5), replace(tuned, use_kr=True, seed=6),
        replace(narrow, use_kr=True, use_kc=True), replace(narrow, use_kc=True, seed=1, ltr_loss="bsce"),
        replace(short, **FULL_STACK), replace(short, use_ks=True, seed=3, ltr_loss="bsce"),
    ]
    monkeypatch.setattr(trainer, "_cpus", lambda: 1)  # train_group is recorded in this process
    groups = []
    train_group = trainer.train_group

    def recording_group(group_cfgs, *args):
        out = train_group(group_cfgs, *args)
        groups.append((group_cfgs, out))
        return out

    monkeypatch.setattr(trainer, "train_group", recording_group)
    trainer.run_set([(cfg, tmp_path / str(i)) for i, cfg in enumerate(cfgs)], train_path)
    assert [len(group_cfgs) for group_cfgs, _ in groups] == [5, 2, 2, 2, 2]
    for group_cfgs, (state, results) in groups:
        for s, cfg in enumerate(group_cfgs):
            params, velocity, history, soft_labels, kl_expected = serial_run(cfg, train, test, split)
            # repr tells -0.0 and nan apart
            assert [repr(asdict(m)) for m in results[s].history] == [repr(asdict(m)) for m in history]
            assert state.params.flat[s].tobytes() == params.flat.tobytes(), cfg
            assert state.velocity[s].tobytes() == velocity.tobytes(), cfg
            assert state.soft_labels[s].M.tobytes() == soft_labels.M.tobytes(), cfg
            assert state.soft_labels[s].y_hat.tobytes() == soft_labels.y_hat.tobytes(), cfg
            assert [(e, repr(kl.tolist()), kl.tobytes()) for e, kl in results[s].kl_rows] == [
                (e, repr(kl.tolist()), kl.tobytes()) for e, kl in kl_expected
            ], cfg
            assert results[s].similarity.tobytes() == soft_labels.M.tobytes(), cfg


def test_a_set_makes_one_backward_per_lockstep_step(monkeypatch):
    train, test, split = tiny_sets()
    cfgs = [tiny_cfg(**FULL_STACK, epochs=2, seed=seed) for seed in range(4)]
    state, _ = trainer.train_epoch(trainer.init_state(cfgs, train), train)
    calls = recording(monkeypatch, nn, "backward")
    steps = []
    trainer.train_epoch(state, train, on_step=steps.append)
    assert all(step["g_aux"] is not None for step in steps)
    assert len(calls) == math.ceil(train.num_samples / cfgs[0].batch_size)
    assert len(steps) == len(cfgs) * len(calls)


def test_full_stack_epoch_runs_one_backward_per_batch(monkeypatch):
    train, test, split = tiny_sets()
    cfg = tiny_cfg(**FULL_STACK, epochs=2)
    state, _ = trainer.train_epoch(trainer.init_state([cfg], train), train)
    calls = recording(monkeypatch, nn, "backward")
    steps = []
    trainer.train_epoch(state, train, on_step=steps.append)
    assert all(step["g_aux"] is not None for step in steps)
    assert len(calls) == len(steps)


# --- loss bookkeeping ----------------------------------------------------------------


def test_a_diverging_run_aborts_its_group_unwritten(tmp_path):
    """The first non-finite loss aborts the group; with more than one run
    the message names the run's directory, and no run of the group is
    written."""
    train_path = write_tiny_pair(tmp_path)
    ok = tiny_cfg(epochs=4, tau=1e300)  # tau reaches no loss without review
    diverging = replace(ok, use_kr=True)
    assert trainer.group_key(ok) == trainer.group_key(diverging)
    with pytest.raises(NumericError) as alone:
        trainer.run_experiment(diverging, train_path, tmp_path / "alone")
    runs = [(ok, tmp_path / "ok"), (diverging, tmp_path / "bad")]
    with pytest.raises(NumericError) as in_set:
        trainer.run_set(runs, train_path)
    assert re.fullmatch(r"non-finite (ltr|kr|ks) loss at epoch \d+, batch \d+", str(alone.value))
    assert str(in_set.value) == f"{alone.value} in run {tmp_path / 'bad'}"
    assert not any(path.exists() for path in (tmp_path / "alone", tmp_path / "ok", tmp_path / "bad"))
    trainer.run_experiment(ok, train_path, tmp_path / "ok")  # the plain run trains alone


ASSEMBLE = trainer.assemble_batch_losses


def nan_ledger(monkeypatch, cells, epoch=1, batch=2):
    """Wraps `trainer.assemble_batch_losses`: at that batch of that epoch,
    the ledger's `(run, loss name)` cells read NaN."""
    epochs = []

    def poisoned(state, *args):
        values, dlogits = ASSEMBLE(state, *args)
        epochs.append(state.epoch)
        if state.epoch == epoch and epochs.count(epoch) == batch + 1:
            for run, name in cells:
                values[run, trainer.LOSS_NAMES.index(name)] = np.nan
        return values, dlogits

    monkeypatch.setattr(trainer, "assemble_batch_losses", poisoned)


@pytest.mark.parametrize("cells, name", [
    ([(1, "ltr"), (0, "ks")], "ks"),  # the earlier run first
    ([(0, "ks"), (0, "kr")], "kr"),  # then ltr, kr, ks within a run
], ids=["by-run", "by-loss"])
def test_a_batchs_first_non_finite_loss_in_run_then_loss_order_is_reported(
    tmp_path, monkeypatch, cells, name
):
    """NaN ledger cells at one batch of a 2-run group: the error names the
    first in (run, ltr/kr/ks) order and its run; through run_set it names
    that run's directory, and no run of the group is written."""
    cfgs = [tiny_cfg(**FULL_STACK), tiny_cfg(seed=4)]
    message = f"non-finite {name} loss at epoch 1, batch 2"
    train, _, _ = tiny_sets()
    nan_ledger(monkeypatch, cells)
    state = trainer.init_state(cfgs, train)
    with pytest.raises(NumericError) as raised:
        for _ in range(cfgs[0].epochs):
            state, _ = trainer.train_epoch(state, train)
    assert (str(raised.value), raised.value.run) == (message, 0)

    nan_ledger(monkeypatch, cells)
    monkeypatch.setattr(trainer, "_cpus", lambda: 1)  # the group trains uncut
    runs = [(cfg, tmp_path / f"run{i}") for i, cfg in enumerate(cfgs)]
    with pytest.raises(NumericError) as raised:
        trainer.run_set(runs, write_tiny_pair(tmp_path))
    assert str(raised.value) == f"{message} in run {tmp_path / 'run0'}"
    assert not any(out.exists() for _, out in runs)


def test_runs_share_a_group_exactly_when_they_differ_only_in_loss_components_and_seed():
    train, test, _ = tiny_sets()
    base = trainer.TrainConfig()
    # another valid value of every field: (v + 1) / 2 keeps each float field in range
    other = {str: lambda v: next(loss for loss in trainer.LTR_LOSSES if loss != v),
             bool: lambda v: not v, int: lambda v: v + 1, float: lambda v: (v + 1.0) / 2.0}
    for _, name, kind, _ in trainer.TRAIN_FLAGS:
        pair = [base, replace(base, **{name: other[kind](getattr(base, name))})]
        assert pair[0] != pair[1], name
        if name in ("ltr_loss", "use_kr", "use_ks", "use_kc", "seed"):
            assert trainer.lockstep_groups(pair, train, test) == [[0, 1]], name
            assert trainer.init_state(pair, train).cfgs == pair
        else:
            assert trainer.lockstep_groups(pair, train, test) == [[0], [1]], name
            with pytest.raises(ParameterError):
                trainer.init_state(pair, train)


def test_run_set_rejects_a_repeated_run_directory(tmp_path, monkeypatch):
    """Two runs writing one directory would leave only the second's files."""
    train_path = write_tiny_pair(tmp_path)
    calls = recording(monkeypatch, data, "load_dataset")
    runs = [(tiny_cfg(), tmp_path / "run"), (tiny_cfg(seed=4), tmp_path / "other" / ".." / "run")]
    with pytest.raises(ParameterError, match="appears twice"):
        trainer.run_set(runs, train_path)
    assert calls == []
    assert not (tmp_path / "run").exists()


def test_a_set_split_by_the_memory_budget_writes_the_same_files(tmp_path, monkeypatch):
    train_path = write_tiny_pair(tmp_path)
    train = data.load_dataset(train_path)
    test = data.load_dataset(trainer.default_test_path(train_path))
    cells = ({}, FULL_STACK, dict(use_ks=True), dict(use_kr=True, use_kc=True))
    cfgs = [tiny_cfg(seed=seed, **kw) for seed in (0, 1) for kw in cells]
    monkeypatch.setattr(trainer, "_cpus", lambda: 1)  # train_group is recorded in this process
    groups = recording(monkeypatch, trainer, "train_group")
    trainer.run_set([(cfg, tmp_path / "whole" / str(i)) for i, cfg in enumerate(cfgs)], train_path)
    n, c = train.num_samples, train.num_classes
    per_run = 8 * (2 * n * c + n * cfgs[0].hidden_dim + test.num_samples * c)
    # a budget of three runs, then of one: each run alone is a stack of one
    for runs_per_group in (3, 1):
        monkeypatch.setattr(trainer, "GROUP_BYTES", runs_per_group * per_run)
        split = tmp_path / f"split{runs_per_group}"
        trainer.run_set([(cfg, split / str(i)) for i, cfg in enumerate(cfgs)], train_path)
        for i in range(len(cfgs)):
            for name in ("metrics.csv", "conflicts.csv", "class_kl.csv", "similarity.csv"):
                whole = (tmp_path / "whole" / str(i) / name).read_bytes()
                assert (split / str(i) / name).read_bytes() == whole, (runs_per_group, i, name)
    assert [len(args[0]) for args in groups] == [8, 3, 3, 2] + [1] * 8


def test_non_finite_loss_aborts_with_diagnostic():
    train, test, split = tiny_sets()
    cfg = tiny_cfg(use_kr=True, lr=1e30, epochs=4)
    state = trainer.init_state([cfg], train)
    with pytest.raises(NumericError):
        for _ in range(cfg.epochs):
            state, _ = trainer.train_epoch(state, train)


# --- conflict correction in the loop ---------------------------------------------------


def test_kc_update_never_opposes_task_gradient():
    train, test, split = tiny_sets()
    cfg = tiny_cfg(use_kr=True, use_ks=True, use_kc=True)
    state = trainer.init_state([cfg], train)
    seen_aux = 0

    def check(step):
        nonlocal seen_aux
        if step["g_aux"] is None:
            return
        seen_aux += 1
        assert cos_angle(step["g_update"] - step["g_ltr"], step["g_ltr"]) >= -1e-9

    for _ in range(cfg.epochs):
        state, _ = trainer.train_epoch(state, train, on_step=check)
    assert seen_aux > 0


def test_kr_rows_for_previously_wrong_samples_get_zero_gradient():
    train, test, split = tiny_sets()
    cfg = tiny_cfg(use_kr=True)
    state = trainer.init_state([cfg], train)
    state, _ = trainer.train_epoch(state, train)  # builds the cache
    cache = state.cache
    reflect.temper(cache, cfg.tau)
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
    # hidden units relu(x) and relu(-x), so the read-out sees x: nearest center wins
    eye = np.eye(dim)
    flat = np.concatenate([np.vstack([eye, -eye]).ravel(), np.zeros(2 * dim),
                           np.hstack([centers, -centers]).ravel(), -0.5 * (centers**2).sum(axis=1)])
    params = nn.ModelParams(flat, (dim, 2 * dim, classes))
    accs, _ = trainer.evaluate(params, test, split)
    assert accs["acc_all"] == 1.0


def test_evaluate_constant_model_hits_chance():
    classes = 5
    test = data.synth_gaussians(classes, 4, np.full(classes, 40), 1.0, 1.0, seed=2)
    split = data.split_classes(np.full(classes, 500))
    params = nn.ModelParams(np.zeros(3 * 4 + 3 + classes * 3 + classes), (4, 3, classes))
    params.layers[1][1][0] = 1.0  # the read-out bias of class 0
    accs, _ = trainer.evaluate(params, test, split)
    assert accs["acc_all"] == 1.0 / classes


def test_evaluate_random_model_two_classes_binomial():
    test = data.synth_gaussians(2, 4, np.array([5000, 5000]), 0.0, 1.0, seed=3)
    split = data.split_classes(np.array([5000, 5000]))
    params = nn.init_params(4, 2, 8, np.random.default_rng(4))
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
    rows = trainer.run_ablation_grid(base, train_path, tmp_path / "grid", seeds=[0, 1])
    assert len(rows) == 8
    assert {(r["kr"], r["ks"], r["kc"]) for r in rows} == {
        (kr, ks, kc) for kr in (0, 1) for ks in (0, 1) for kc in (0, 1)
    }
    assert (tmp_path / "grid" / "ablation.csv").exists()
    for row in rows:
        cell = tmp_path / "grid" / f"kr{row['kr']}_ks{row['ks']}_kc{row['kc']}"
        finals = [artifacts.final(cell / f"seed{s}")["acc_all"] for s in (0, 1)]
        assert row["seeds"] == 2 and row["mean_acc_all"] == np.mean(finals)


def test_run_set_loads_the_pair_once(tmp_path, monkeypatch):
    train_path = write_tiny_pair(tmp_path)
    calls = recording(monkeypatch, data, "load_dataset")
    trainer.run_ablation_grid(tiny_cfg(epochs=1), train_path, tmp_path / "grid", seeds=[0, 1])
    assert [Path(args[0]).name for args in calls] == ["tiny.ltds", "tiny.test.ltds"]


def test_runs_of_a_set_share_no_state(tmp_path):
    """Each run of a set writes what the same run writes alone."""
    train_path = write_tiny_pair(tmp_path)
    full = dict(use_kr=True, use_ks=True, use_kc=True)
    cfgs = [tiny_cfg(**full), tiny_cfg(), tiny_cfg(seed=4, **full)]
    trainer.run_set([(cfg, tmp_path / "set" / str(i)) for i, cfg in enumerate(cfgs)], train_path)
    for i, cfg in enumerate(cfgs):
        trainer.run_experiment(cfg, train_path, tmp_path / "alone" / str(i))
        for name in ("metrics.csv", "conflicts.csv", "class_kl.csv", "similarity.csv"):
            alone = (tmp_path / "alone" / str(i) / name).read_bytes()
            assert (tmp_path / "set" / str(i) / name).read_bytes() == alone, (i, name)


# --- the run's BLAS thread count ---------------------------------------------------

needs_openblas = pytest.mark.skipif(
    trainer._openblas_threads() is None,
    reason="this numpy has no OpenBLAS thread setter, so its runs go unpinned",
)


@pytest.fixture
def blas_threads():
    """The loaded OpenBLAS's (get, set), with the count set to 2 for the
    test and the process's own count restored after it."""
    get, put = trainer._openblas_threads()
    before = get()
    put(2)
    yield get, put
    put(before)


@needs_openblas
@pytest.mark.parametrize("lanes", [1, 2])
def test_run_set_trains_at_one_blas_thread_and_restores_the_callers_count(
    tmp_path, monkeypatch, blas_threads, lanes
):
    """Two groups; on two lanes the second trains on a forked worker. Each
    process writes the thread count of every evaluation to its own file."""
    get, _ = blas_threads
    train_path = write_tiny_pair(tmp_path)
    evaluate = trainer.evaluate

    def counting_evaluate(*args):
        with open(tmp_path / f"threads-{os.getpid()}", "a") as fh:
            fh.write(f"{get()}\n")
        return evaluate(*args)

    monkeypatch.setattr(trainer, "_cpus", lambda: lanes)
    monkeypatch.setattr(trainer, "evaluate", counting_evaluate)
    trainer.run_set([(tiny_cfg(epochs=2), tmp_path / "a"), (tiny_cfg(seed=4), tmp_path / "b")], train_path)
    counts = {path.name: set(path.read_text().split()) for path in tmp_path.glob("threads-*")}
    assert len(counts) == lanes and f"threads-{os.getpid()}" in counts
    assert all(seen == {"1"} for seen in counts.values()), counts
    assert get() == 2


@needs_openblas
def test_run_set_restores_the_callers_blas_count_when_a_run_diverges(tmp_path, blas_threads):
    get, _ = blas_threads
    train_path = write_tiny_pair(tmp_path)
    diverging = tiny_cfg(epochs=4, tau=1e300, use_kr=True)
    with pytest.raises(NumericError):
        trainer.run_set([(diverging, tmp_path / "bad")], train_path)
    assert get() == 2


def test_a_run_without_an_openblas_setter_goes_unpinned_and_writes_the_same_files(
    tmp_path, monkeypatch
):
    """The same run with the lookup finding no setter: same relative --out
    in two directories, every file the same."""
    train_path = write_tiny_pair(tmp_path)
    cfg = tiny_cfg(use_kr=True, use_ks=True, use_kc=True, epochs=3)
    for name in ("pinned", "unpinned"):
        if name == "unpinned":
            monkeypatch.setattr(trainer, "_openblas_threads", lambda: None)
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        trainer.run_experiment(cfg, train_path, "run")
    assert run_files(tmp_path / "unpinned" / "run") == run_files(tmp_path / "pinned" / "run")


@needs_openblas
def test_a_runs_files_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The same `train` in two processes, at 1 and 2 OpenBLAS threads, with
    the same relative --out in two directories: every file is the same. At
    2 threads an unpinned run splits `unit @ unit.T` on the [100, 64]
    features differently, and similarity.csv changes."""
    train_path = tmp_path / "d" / "x.ltds"
    synth = "synth --classes 100 --dim 8 --n-max 20 --if 10 --pairs 0 --test-size 2 --seed 3"
    assert cli.main([*shlex.split(synth), "--out", str(train_path)]) == 0
    src = Path(trainer.__file__).resolve().parents[1]
    files = {}
    for threads in (1, 2):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "ltreflect.cli", "train", "--data", str(train_path), "--out", "run",
             "--hidden", "64", "--epochs", "1"],
            cwd=cwd, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        files[threads] = run_files(cwd / "run")
    assert set(files[1]) >= {"metrics.csv", "conflicts.csv", "class_kl.csv", "similarity.csv",
                             "summary.json", "config.echo"}
    assert files[1] == files[2]


# --- worker lanes ----------------------------------------------------------------------


def test_parts_cut_the_largest_part_in_contiguous_halves_while_cpus_are_left():
    grid = list(range(8))
    assert trainer._parts([grid], 1) == [(0, grid)]
    assert trainer._parts([grid], 2) == [(0, [0, 1, 2, 3]), (0, [4, 5, 6, 7])]
    assert trainer._parts([[0, 1, 2], [3]], 3) == [(0, [0, 1]), (0, [2]), (1, [3])]
    assert trainer._parts([[0], [1, 2], [3]], 2) == [(0, [0]), (1, [1, 2]), (2, [3])]
    assert trainer._parts([[0], [1]], 4) == [(0, [0]), (1, [1])]


def tree(root):
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*"))
            if path.is_file()}


def run_on_lanes(tmp_path, monkeypatch, cpus, cfgs, train_path):
    """`run_set` of `cfgs` into relative run directories of a fresh
    directory, as on `cpus` CPUs; returns (the error it raised or None,
    that directory's files, the worker count of each pool it built)."""
    pools = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def recording_pool(workers, **kw):
        pools.append(workers)
        return real_pool(workers, **kw)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr(trainer, "_cpus", lambda: cpus)
    cwd = tmp_path / f"cpus{cpus}"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    error = None
    try:
        trainer.run_set([(cfg, f"run{i}") for i, cfg in enumerate(cfgs)], train_path)
    except NumericError as exc:
        error = str(exc)
    assert multiprocessing.active_children() == []
    return error, tree(cwd), pools


LANE_SETS = {
    # one group of 8, cut into its four-run halves
    "cut": ([tiny_cfg(seed=seed, **kw) for seed in (0, 1)
             for kw in ({}, FULL_STACK, dict(use_ks=True), dict(use_kr=True, use_kc=True))], 2, [1]),
    # three uncut groups, two of them on lane 0
    "groups": ([tiny_cfg(**FULL_STACK), tiny_cfg(lr=0.2), tiny_cfg(lr=0.2, seed=4, use_ks=True),
                tiny_cfg(epochs=3, use_kr=True)], 2, [1]),
    # one group cut, the other whole, on three lanes
    "cut-and-whole": ([tiny_cfg(**FULL_STACK), tiny_cfg(lr=0.2), tiny_cfg(use_ks=True),
                       tiny_cfg(seed=4, use_kr=True), tiny_cfg(seed=5)], 3, [2]),
}


@pytest.mark.parametrize("name", LANE_SETS)
def test_a_sets_files_do_not_depend_on_the_lane_count(tmp_path, monkeypatch, name):
    cfgs, cpus, workers = LANE_SETS[name]
    train_path = write_tiny_pair(tmp_path).resolve()
    error, one_lane, pools = run_on_lanes(tmp_path, monkeypatch, 1, cfgs, train_path)
    assert error is None and pools == []
    assert set(one_lane) == {f"run{i}/{file}" for i in range(len(cfgs)) for file in (
        "metrics.csv", "conflicts.csv", "class_kl.csv", "similarity.csv", "summary.json", "config.echo")}
    error, lanes, pools = run_on_lanes(tmp_path, monkeypatch, cpus, cfgs, train_path)
    assert error is None and pools == workers
    assert lanes == one_lane


OK = tiny_cfg(epochs=4, tau=1e300)  # tau reaches no loss without review
BAD = replace(OK, use_kr=True)
OTHER = replace(OK, lr=0.2)  # a group of its own
DIVERGING_SETS = {
    "in-lane-0": [BAD, OK],  # one group, cut: lane 0's half diverges
    "in-a-worker": [OK, BAD],  # one group, cut: the worker's half diverges
    "after-a-good-group": [OTHER, OK, BAD],  # the diverging group whole on a worker
    "before-a-good-group": [OK, BAD, OTHER],  # the diverging group whole on lane 0
}


@pytest.mark.parametrize("name", DIVERGING_SETS)
def test_a_diverging_set_raises_and_writes_the_same_on_any_lane_count(tmp_path, monkeypatch, name):
    cfgs = DIVERGING_SETS[name]
    train_path = write_tiny_pair(tmp_path).resolve()
    one_lane = run_on_lanes(tmp_path, monkeypatch, 1, cfgs, train_path)
    lanes = run_on_lanes(tmp_path, monkeypatch, 2, cfgs, train_path)
    assert one_lane[0].endswith(f"in run run{cfgs.index(BAD)}")
    assert lanes[:2] == one_lane[:2]
    assert lanes[2] == [1]
    written = {"after-a-good-group": {"run0/summary.json"}}.get(name, set())
    assert {path for path in one_lane[1] if path.endswith("summary.json")} == written


PARENT = os.getpid()
TRAIN_PART = trainer._train_part


def train_part_or_die_in_a_worker(*args):
    """`trainer._train_part` in the test process; a killed worker elsewhere."""
    if os.getpid() != PARENT:
        os._exit(3)
    return TRAIN_PART(*args)


def test_a_dead_worker_is_one_error_line_and_writes_nothing_of_its_group(
    tmp_path, monkeypatch, capsys
):
    train_path = write_tiny_pair(tmp_path)
    monkeypatch.setattr(trainer, "_cpus", lambda: 2)
    monkeypatch.setattr(trainer, "_train_part", train_part_or_die_in_a_worker)
    out = tmp_path / "grid"
    code = cli.main(["ablate", "--data", str(train_path), "--out", str(out), "--epochs", "2"])
    first = out / "kr0_ks0_kc0" / "seed0"
    assert (code, capsys.readouterr().err) == (
        1, f"error: a worker process died while training the group of run {first}\n")
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_a_one_run_set_builds_no_pool(tmp_path, monkeypatch):
    def no_pool(*args, **kw):
        raise AssertionError("a one-run set built a worker pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(trainer, "_cpus", lambda: 2)
    trainer.run_experiment(tiny_cfg(epochs=2), write_tiny_pair(tmp_path), tmp_path / "run")
    assert (tmp_path / "run" / "summary.json").exists()


def test_a_one_lane_set_imports_neither_multiprocessing_nor_concurrent_futures(tmp_path):
    """This module imports both, so a fresh process trains the set."""
    train_path = write_tiny_pair(tmp_path)
    src = Path(trainer.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    argv = ["train", "--data", str(train_path), "--out", str(tmp_path / "run"), "--epochs", "2"]
    code = (f"import sys; from ltreflect import cli; assert cli.main({argv!r}) == 0; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_mixed_loss_group_matches_the_serial_oracle_on_any_lane_count(tmp_path, monkeypatch, cpus):
    """CE and BSCE runs of one config train as one lockstep group, whole on
    one lane or cut across two, and each run's files are the serial
    oracle's, byte for byte."""
    train_path = write_tiny_pair(tmp_path).resolve()
    train, test, split = tiny_sets()
    cfgs = [tiny_cfg(ltr_loss=loss, seed=seed, **kw) for loss, seed, kw in (
        ("ce", 0, {}), ("bsce", 1, FULL_STACK), ("ce", 2, FULL_STACK),
        ("bsce", 3, dict(use_kr=True)), ("bsce", 4, {}), ("ce", 5, dict(use_ks=True, use_kc=True)))]
    assert trainer.lockstep_groups(cfgs, train, test) == [list(range(len(cfgs)))]
    error, files, pools = run_on_lanes(tmp_path, monkeypatch, cpus, cfgs, train_path)
    assert error is None and pools == [1] * (cpus - 1)
    for i, cfg in enumerate(cfgs):
        _, _, history, soft_labels, kl_rows = serial_run(cfg, train, test, split)
        oracle = tmp_path / "oracle" / str(i)
        oracle.mkdir(parents=True)
        trainer.write_metrics_csv(oracle / "metrics.csv", history)
        trainer.write_conflicts_csv(oracle / "conflicts.csv", history)
        reflect.write_class_kl_series(oracle / "class_kl.csv", kl_rows)
        reflect.write_matrix_csv(oracle / "similarity.csv", soft_labels.M)
        for name in ("metrics.csv", "conflicts.csv", "class_kl.csv", "similarity.csv"):
            assert files[f"run{i}/{name}"] == (oracle / name).read_bytes(), (i, name)


# --- generated run sets ----------------------------------------------------------------

# The values a TrainConfig field is drawn from. A bool field missing here is
# drawn on or off, any other keeps its default: a new field is drawn with no
# edit. tau 1e300 makes a KR run diverge.
FIELD_VALUES = {
    "ltr_loss": trainer.LTR_LOSSES,
    "tau": (2.0, 5.0, 1e300),
    "alpha": (0.0, 0.9, 1.0),
    "epochs": (1, 2, 3),
    "batch_size": (1, 3, 7, 16, 200),
    "lr": (0.05, 0.3),
    "momentum": (0.0, 0.9),
    "sigma_aug": (0.0, 0.3),
    "seed": (0, 1, 2, 3),
    "hidden_dim": (2, 4),
}
FIELDS = {f.name: FIELD_VALUES.get(f.name, (False, True) if isinstance(f.default, bool) else (f.default,))
          for f in dataclasses.fields(trainer.TrainConfig)}
# The fields that may differ inside a lockstep group, drawn per run; the others once per set.
PER_RUN = [name for name, values in FIELDS.items()
           if len({trainer.group_key(replace(trainer.TrainConfig(), **{name: v})) for v in values}) == 1]


@st.composite
def run_sets(draw):
    """(tiny synth pair arguments, configs, CPUs, GROUP_BYTES) of one set."""
    shared = {name: draw(st.sampled_from(values)) for name, values in FIELDS.items() if name not in PER_RUN}
    per_run = st.fixed_dictionaries({name: st.sampled_from(FIELDS[name]) for name in PER_RUN})
    runs = draw(st.lists(per_run.map(lambda kw: {**shared, **kw}), min_size=2, max_size=6))
    pair = dict(classes=draw(st.integers(2, 5)), n_max=draw(st.integers(4, 30)), dim=draw(st.integers(2, 6)),
                imbalance=draw(st.sampled_from([1.0, 2.0, 4.0])), test_size=draw(st.integers(1, 5)),
                seed=draw(st.integers(0, 3)))
    budget = draw(st.sampled_from([trainer.GROUP_BYTES, 1, 4000]))
    return pair, [trainer.TrainConfig(**kw) for kw in runs], draw(st.integers(1, 3)), budget


def test_generated_run_sets_write_what_each_run_writes_alone(tmp_path, monkeypatch):
    """Random sets of runs on random tiny pairs, on 1-3 lanes and three group
    budgets: each run's files equal the same run's alone at one lane, under
    the same relative --out in another directory (so config.echo and
    summary.json compare too). A set that diverges raises what one lane
    raises and writes what one lane writes, and no set leaves a child."""
    serial = itertools.count()
    default_budget = trainer.GROUP_BYTES

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(run_sets())
    def check(drawn):
        pair, cfgs, cpus, budget = drawn
        root = tmp_path / f"e{next(serial)}"
        counts = data.longtail_counts(pair["classes"], pair["n_max"], pair["imbalance"])
        train = data.synth_gaussians(pair["classes"], pair["dim"], counts, 3.0, 1.0, seed=pair["seed"])
        test = data.synth_gaussians(pair["classes"], pair["dim"], np.full(pair["classes"], pair["test_size"]),
                                    3.0, 1.0, seed=pair["seed"], noise_seed=pair["seed"] + 1)
        train_path = root / "pair" / "d.ltds"
        train_path.parent.mkdir(parents=True)
        data.save_dataset(train, train_path)
        data.save_dataset(test, trainer.default_test_path(train_path))
        monkeypatch.setattr(trainer, "GROUP_BYTES", budget)
        error, files, _ = run_on_lanes(root, monkeypatch, cpus, cfgs, train_path)
        if error is not None:
            if cpus > 1:
                assert run_on_lanes(root, monkeypatch, 1, cfgs, train_path)[:2] == (error, files)
            return
        monkeypatch.setattr(trainer, "GROUP_BYTES", default_budget)
        monkeypatch.setattr(trainer, "_cpus", lambda: 1)
        alone = root / "alone"
        alone.mkdir()
        monkeypatch.chdir(alone)
        for i, cfg in enumerate(cfgs):
            trainer.run_experiment(cfg, train_path, f"run{i}")
        assert tree(alone) == files

    check()
