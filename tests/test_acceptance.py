"""Acceptance suite. Each numbered criterion runs at its stated tolerance
and prints one PASS/FAIL line (criterion 12, the wall-time budget, is
enforced by the session-finish hook in conftest.py).

The runs here use the stock synthesized dataset (written by `synth` with
default flags) and the calibrated trainer defaults, with alpha=0.95 for
the trend/grid runs; see notes in the repo README for the calibration.
"""

import shlex
import time
from dataclasses import replace

import numpy as np
import pytest

from ltreflect import artifacts, cli, conflict, data, losses, nn, reflect, trainer
from ltreflect.conflict import project_if_conflict

from oracles import baseline_run, cos_angle, fd_grad_params, max_rel_err, mse_logits

SEEDS = range(5)


@pytest.fixture
def report(pytestconfig):
    """One PASS/FAIL line per criterion, written past pytest's capture."""
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def _report(tag, ok, detail):
        line = f"ACCEPTANCE {tag} {'PASS' if ok else 'FAIL'}: {detail}"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print("\n" + line, flush=True)
        else:
            print(line, flush=True)
        assert ok, f"criterion {tag}: {detail}"

    return _report


# --- shared fixtures --------------------------------------------------------------


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def default_dataset(workdir):
    path = workdir / "default.ltds"
    assert cli.main(["synth", "--seed", "0", "--out", str(path)]) == 0
    return path


def trend_config(**kw):
    # trainer defaults carry the calibrated values; alpha is the swept knob
    return trainer.TrainConfig(alpha=0.95, **kw)


@pytest.fixture(scope="session")
def grid(default_dataset, workdir):
    t0 = time.monotonic()
    rows = trainer.run_ablation_grid(
        trend_config(), default_dataset, workdir / "grid", seeds=SEEDS
    )
    per_run = (time.monotonic() - t0) / (8 * len(SEEDS))
    assert per_run < 120.0, f"{per_run:.1f}s per run exceeds the 2-minute bound"
    return rows


@pytest.fixture(scope="session")
def bsce_pair(default_dataset, workdir):
    arms = {"bsce": {}, "bsce_rl": {"use_kr": True, "use_ks": True, "use_kc": True}}
    runs = [(trend_config(ltr_loss="bsce", seed=s, **kw), workdir / name / f"seed{s}")
            for name, kw in arms.items() for s in SEEDS]
    summaries = iter(trainer.run_set(runs, default_dataset))
    return {name: [next(summaries)["final"] for _ in SEEDS] for name in arms}


@pytest.fixture(scope="session")
def divergence_runs(default_dataset, workdir):
    """CE vs CE+KR under view augmentation (sigma_aug 0.3), where the
    adjacent-epoch churn the diagnostic measures actually exists."""
    def run_dir(name, seed):
        return workdir / "diag" / name / f"seed{seed}"

    arms = {"ce": {}, "kr": {"use_kr": True}}
    trainer.run_set([(trend_config(sigma_aug=0.3, seed=s, **kw), run_dir(name, s))
                     for name, kw in arms.items() for s in SEEDS], default_dataset)
    return {name: [artifacts.class_kl_table(run_dir(name, s)) for s in SEEDS] for name in arms}


def grid_cell(rows, kr, ks, kc):
    for row in rows:
        if (row["kr"], row["ks"], row["kc"]) == (kr, ks, kc):
            return row
    raise KeyError((kr, ks, kc))


# --- 1: gradient oracle ----------------------------------------------------------


def test_criterion_01_gradient_oracle(report):
    rng = np.random.default_rng(17)
    params = nn.init_params(4, 3, 5, rng)
    worst = 0.0
    t0 = time.monotonic()
    for case in range(100):
        batch = rng.normal(size=(4, 4))
        labels = rng.integers(0, 3, size=4)
        counts = rng.integers(1, 200, size=3)
        targets = np.abs(rng.normal(size=(4, 3)))
        prev = rng.normal(size=(4, 3))
        params.flat[:] = rng.normal(scale=0.6, size=params.num_params)

        def batch_loss(logits, which):
            if which == "ce":
                return losses.ce_loss(logits, labels)
            if which == "bsce":
                return losses.bsce_loss(logits, labels, counts)
            if which == "soft_ce":
                return losses.soft_ce(logits, targets)
            if which == "kl_distill":
                return losses.kl_distill(prev, logits, tau=2.0)
            return mse_logits(prev, logits)

        which = ("ce", "bsce", "soft_ce", "kl_distill", "mse_logits")[case % 5]
        rec = nn.forward(params, batch)
        analytic = nn.backward(params, rec, batch_loss(rec.logits, which).dlogits)
        numeric = fd_grad_params(
            params, lambda p: batch_loss(nn.forward(p, batch).logits, which).value
        )
        worst = max(worst, max_rel_err(analytic, numeric))
    elapsed = time.monotonic() - t0
    report(
        1,
        worst < 1e-4 and elapsed < 10.0,
        f"gradient oracle max rel err {worst:.2e} over 100 cases in {elapsed:.1f}s",
    )


# --- 2: projection suite ----------------------------------------------------------


def test_criterion_02_projection_suite(report):
    rng = np.random.default_rng(23)
    worst_orth = 0.0
    worst_idem = 0.0
    ok = True
    for _ in range(1000):
        a = rng.normal(size=40)
        b = rng.normal(size=40)
        if a @ b >= 0:
            b = b - 2.0 * (a @ b) / (a @ a) * a
        g_rl, conflicted = project_if_conflict(a, b)
        ok &= conflicted
        corrected = g_rl - a
        denom = max(np.linalg.norm(corrected) * np.linalg.norm(a), 1e-30)
        worst_orth = max(worst_orth, abs(corrected @ a) / denom)
        ok &= np.linalg.norm(corrected) <= np.linalg.norm(b) * (1 + 1e-12)
        again, _ = project_if_conflict(a, corrected)
        worst_idem = max(
            worst_idem,
            np.linalg.norm((again - a) - corrected) / max(np.linalg.norm(corrected), 1e-30),
        )
    for _ in range(200):  # aligned pairs pass through bit-exactly
        a = rng.normal(size=40)
        b = rng.normal(size=40)
        if a @ b < 0:
            b = b - 2.0 * (a @ b) / (a @ a) * a
        g_rl, conflicted = project_if_conflict(a, b)
        ok &= not conflicted and np.array_equal(g_rl, b + a)
    ok &= worst_orth <= 1e-9 and worst_idem <= 1e-9
    report(
        2,
        ok,
        f"projection: orthogonality {worst_orth:.2e}, idempotence {worst_idem:.2e}, "
        "pass pass-through bit-exact over 1000+200 pairs",
    )


# --- 3: high-temperature equivalence ------------------------------------------------


def test_criterion_03_high_temperature_equivalence(report):
    rng = np.random.default_rng(31)
    worst = 1.0
    for _ in range(100):
        prev = rng.normal(size=(8, 10))
        cur = rng.normal(size=(8, 10))
        prev -= prev.mean(axis=1, keepdims=True)
        cur -= cur.mean(axis=1, keepdims=True)
        g_kl = losses.kl_distill(prev, cur, tau=100.0).dlogits.ravel()
        g_mse = mse_logits(prev, cur).dlogits.ravel()
        cos = g_kl @ g_mse / (np.linalg.norm(g_kl) * np.linalg.norm(g_mse))
        worst = min(worst, cos)
    report(3, worst > 0.999, f"tau=100 KL vs MSE gradient cosine >= {worst:.6f} over 100 trials")


# --- 4: CCI end-to-end ---------------------------------------------------------------


def test_criterion_04_cci_zero_rows_full_epoch(report):
    rng = np.random.default_rng(37)
    n, c = 64, 4
    labels = rng.integers(0, c, size=n)
    cache = reflect.empty_cache(n, c)
    logits = rng.normal(size=(n, c))
    # force exactly half the cached rows wrong: even rows right, odd rows wrong
    for i in range(n):
        logits[i, labels[i]] = logits[i].max() + (1.0 if i % 2 == 0 else -10.0)
    reflect.cache_update(cache, np.arange(n), logits, labels)
    assert cache.correct_mask.sum() == n // 2

    cfg = trend_config(use_kr=True)
    reflect.temper(cache, cfg.tau)
    order = rng.permutation(n)
    all_zero = True
    for start in range(0, n, cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        cur = rng.normal(size=(len(idx), c))
        out = reflect.kr_batch_loss(cache, idx[None], cur[None], cfg.tau)
        wrong_rows = ~cache.correct_mask[idx]
        all_zero &= bool((out.dlogits[0][wrong_rows] == 0.0).all())
        all_zero &= bool((out.dlogits[0][~wrong_rows] != 0.0).any())
    report(4, all_zero, "filtered rows carry exactly-zero review gradient across one epoch")


# --- 5: similarity / soft-label suite --------------------------------------------------


def test_criterion_05_similarity_suite(report):
    rng = np.random.default_rng(41)
    ok = True
    for _ in range(50):
        m = reflect.similarity_matrix(rng.normal(size=(8, 6)))
        ok &= np.array_equal(m, m.T)
        ok &= np.allclose(np.diag(m), 1.0)
        ok &= m.min() >= -1.0 and m.max() <= 1.0
    params = nn.init_params(6, 5, 12, rng)
    feats = nn.forward(params, rng.normal(size=(60, 6))).features
    labels = rng.integers(0, 5, size=60)
    store = reflect.FeatureStore(60, 12)
    store.add(np.arange(60), feats)
    m = reflect.similarity_matrix(reflect.class_centers_median(store.features, labels, 5))
    ok &= m.min() >= 0.0  # rectifier features
    for alpha in (0.0, 0.5, 1.0):
        y_hat = reflect.reconstruct_labels(m, alpha)
        ok &= np.allclose(y_hat, alpha * np.eye(5) + (1 - alpha) * m, atol=1e-15)
    report(5, ok, "similarity matrix and soft-label reconstruction invariants hold")


# --- 6: reduction ------------------------------------------------------------------------


def test_criterion_06_reduction_bit_for_bit(default_dataset, report):
    train = data.load_dataset(default_dataset)
    test = data.load_dataset(trainer.default_test_path(default_dataset))
    split = data.split_classes(train.class_counts)
    cfg = trend_config(epochs=8)
    expected = baseline_run(cfg, train, test, split)

    state = trainer.init_state([cfg], train)
    ok = True
    for epoch in range(cfg.epochs):
        state, (m,) = trainer.train_epoch(state, train)
        m = replace(m, **trainer.evaluate(state.params.run(0), test, split)[0])
        ref_loss, ref_accs = expected[epoch]
        ok &= m.loss_ltr == ref_loss
        for key, value in ref_accs.items():
            got = getattr(m, key)
            ok &= got == value or (np.isnan(got) and np.isnan(value))
    report(6, ok, "components-off trainer reproduces the plain baseline bit-for-bit")


# --- 7: trend reproduction ----------------------------------------------------------------


def _trend_deltas(plain_finals, rl_finals):
    plain, rl = artifacts.mean_finals(plain_finals), artifacts.mean_finals(rl_finals)
    return plain["acc_all"], rl["acc_all"], plain["acc_few"], rl["acc_few"]


def test_criterion_07a_trend_ce(grid, workdir, report):
    plain = [artifacts.final(workdir / "grid" / "kr0_ks0_kc0" / f"seed{s}") for s in SEEDS]
    full = [artifacts.final(workdir / "grid" / "kr1_ks1_kc1" / f"seed{s}") for s in SEEDS]
    all0, all1, few0, few1 = _trend_deltas(plain, full)
    ok = all1 >= all0 and (few1 - few0) >= 0.010
    report(
        "7a",
        ok,
        f"CE+RL vs CE: acc_all {all0:.4f}->{all1:.4f}, acc_few {few0:.4f}->{few1:.4f} "
        f"(need all >= and few +0.010)",
    )


def test_criterion_07b_trend_bsce(bsce_pair, report):
    all0, all1, few0, few1 = _trend_deltas(bsce_pair["bsce"], bsce_pair["bsce_rl"])
    ok = all1 >= all0 and (few1 - few0) >= 0.010
    report(
        "7b",
        ok,
        f"BSCE+RL vs BSCE: acc_all {all0:.4f}->{all1:.4f}, acc_few {few0:.4f}->{few1:.4f} "
        f"(need all >= and few +0.010; known red, see ROADMAP item 2: KR alone passes "
        f"both clauses on synth seeds 1 and 2, and KS costs acc_all in every variant "
        f"tried, mostly in the medium bucket)",
    )


# --- 8: divergence diagnostic ----------------------------------------------------------------


def test_criterion_08_divergence_diagnostic(divergence_runs, report):
    ce, kr = (artifacts.kl_summary(divergence_runs[name]) for name in ("ce", "kr"))
    rho, ce_mean, kr_mean = ce["spearman_rarity"], ce["mean_kl"], kr["mean_kl"]
    ok = rho > 0.3 and kr_mean < ce_mean
    report(
        8,
        ok,
        f"per-class divergence vs rarity spearman {rho:.3f} (> 0.3); "
        f"review distillation lowers mean KL {ce_mean:.4f} -> {kr_mean:.4f}",
    )


# --- 9: conflict diagnostic ---------------------------------------------------------------------


def test_criterion_09_conflict_diagnostic(grid, workdir, default_dataset, report, monkeypatch):
    shares = []
    for s in SEEDS:
        run_dir = workdir / "grid" / "kr1_ks1_kc0" / f"seed{s}"
        cf = artifacts.metric_column(run_dir, "conflict_fraction")
        shares.append(float((cf > 0).mean()))
    nonzero_ok = all(share >= 0.5 for share in shares)

    train = data.load_dataset(default_dataset)
    cfg = trend_config(use_kr=True, use_ks=True, use_kc=True, epochs=10)
    state = trainer.init_state([cfg], train)
    worst, calls = [0.0], [0]

    def check(g_ltr, g_aux):
        # every KC update: without a conflict the trainer's row g_ltr + g_aux
        # is this call's g_aux + g_ltr, bit for bit
        update, conflicted = project_if_conflict(g_ltr, g_aux)
        worst[0] = min(worst[0], cos_angle(update - g_ltr, g_ltr))
        calls[0] += 1
        return update, conflicted

    monkeypatch.setattr(conflict, "project_if_conflict", check)
    for _ in range(cfg.epochs):
        state, _ = trainer.train_epoch(state, train)
    assert calls[0] > 0
    opposition_ok = worst[0] >= -1e-9
    report(
        9,
        nonzero_ok and opposition_ok,
        f"conflict fraction nonzero in {min(shares):.0%}+ of epochs per seed; "
        f"corrected update min cosine vs task gradient {worst[0]:.2e}",
    )


# --- 10: ablation grid guard -----------------------------------------------------------------------


def test_criterion_10_ablation_grid(grid, report):
    full = grid_cell(grid, 1, 1, 1)["mean_acc_all"]
    singles = {name: grid_cell(grid, *cell)["mean_acc_all"]
               for name, cell in (("kr", (1, 0, 0)), ("ks", (0, 1, 0)), ("kc", (0, 0, 1)))}
    ok = len(grid) == 8 and all(full >= v - 0.003 for v in singles.values())
    report(
        10,
        ok,
        f"8-cell grid complete; full-stack acc_all {full:.4f} vs singles "
        + ", ".join(f"{k}={v:.4f}" for k, v in singles.items())
        + " (guard -0.3pt)",
    )


# --- 11: determinism ------------------------------------------------------------------------------


def test_criterion_11_determinism(workdir, report):
    synth = "synth --classes 6 --dim 8 --n-max 60 --if 10 --pairs 1 --seed 9 --test-size 10"
    train_flags = "--ltr bsce --kr --ks --kc --epochs 3 --seed 9"
    ok = True
    for rep in ("a", "b"):
        d = workdir / f"det_{rep}"
        assert cli.main(shlex.split(synth) + ["--out", str(d / "ds.ltds")]) == 0
        assert (
            cli.main(
                ["train", "--data", str(d / "ds.ltds"), "--out", str(d / "run")]
                + shlex.split(train_flags)
            )
            == 0
        )
    for name in ("ds.ltds", "ds.test.ltds"):
        ok &= (workdir / "det_a" / name).read_bytes() == (workdir / "det_b" / name).read_bytes()
    for name in ("metrics.csv", "conflicts.csv", "class_kl.csv"):
        ok &= (
            (workdir / "det_a" / "run" / name).read_bytes()
            == (workdir / "det_b" / "run" / name).read_bytes()
        )
    report(11, ok, "repeated synth+train commands produce byte-identical artifacts")
