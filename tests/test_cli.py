import dataclasses
import json
import shlex
import struct

import numpy as np
import pytest

from ltreflect import cli, data, trainer


def run(argv):
    return cli.main(argv)


SYNTH = (
    "synth --classes 5 --dim 6 --n-max 40 --if 10 --class-sep 3 --noise 1 "
    "--pairs 1 --overlap 0.8 --seed 3 --test-size 8 --out {out}"
)
TRAIN = (
    "train --data {data} --out {out} --ltr ce --kr --ks --kc --tau 2.0 --alpha 0.9 "
    "--epochs 3 --batch 16 --lr 0.3 --momentum 0.9 --seed 3 --sigma-aug 0.1 --hidden 8"
)


def synth_tiny(tmp_path):
    out = tmp_path / "tiny.ltds"
    assert run(shlex.split(SYNTH.format(out=out))) == 0
    return out


# --- exit codes and flag validation ------------------------------------------------


def test_no_args_is_usage_error(capsys):
    assert run([]) == 2


def test_unknown_flag_rejected():
    assert run(["train", "--data", "x", "--out", "y", "--frobnicate"]) == 2


def test_kr_conflicts_with_mse_ablation(tmp_path):
    path = synth_tiny(tmp_path)
    code = run(
        ["train", "--data", str(path), "--out", str(tmp_path / "o"), "--kr", "--mse-ablation"]
    )
    assert code == 2


def test_bad_imbalance_factor_is_usage_error(tmp_path):
    assert run(["synth", "--if", "0.5", "--out", str(tmp_path / "x.ltds")]) == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", [flag for flag, _, kind, _ in trainer.TRAIN_FLAGS if kind is float])
def test_non_finite_float_flag_is_usage_error(tmp_path, capsys, flag, value):
    path = synth_tiny(tmp_path)
    capsys.readouterr()
    out = tmp_path / "o"
    assert run(["train", "--data", str(path), "--out", str(out), "--epochs", "2", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be finite" in captured.err
    assert not out.exists()


def test_ks_on_a_linear_model_is_usage_error(tmp_path, capsys):
    path = synth_tiny(tmp_path)
    capsys.readouterr()
    run_dir, grid = tmp_path / "run", tmp_path / "grid"
    assert run(["train", "--data", str(path), "--out", str(run_dir), "--ks", "--hidden", "0"]) == 2
    assert run(["ablate", "--data", str(path), "--out", str(grid), "--hidden", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("usage error: use_ks needs hidden_dim > 0") == 2
    assert not run_dir.exists() and not grid.exists()


def test_ablate_without_seeds_is_usage_error(tmp_path):
    path = synth_tiny(tmp_path)
    grid = tmp_path / "grid"
    assert run(["ablate", "--data", str(path), "--out", str(grid), "--seeds", "0"]) == 2
    assert not grid.exists()


@pytest.mark.parametrize("cmd", ["train", "ablate", "synth"])
def test_negative_seed_is_usage_error(tmp_path, capsys, cmd):
    path = synth_tiny(tmp_path)
    capsys.readouterr()
    out = tmp_path / "o"
    argv = [cmd, "--out", str(out), "--seed", "-1"]
    if cmd != "synth":
        argv += ["--data", str(path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["usage error: " + (
        "--seed must be >= 0, got -1" if cmd == "synth" else "seed must be >= 0, got -1")]
    assert not out.exists() and not trainer.default_test_path(out).exists()


def test_missing_dataset_is_runtime_error(tmp_path):
    code = run(["train", "--data", str(tmp_path / "nope.ltds"), "--out", str(tmp_path / "o"),
                "--epochs", "1"])
    assert code == 1


# --- synth ---------------------------------------------------------------------------


def test_synth_balanced_when_if_is_one(tmp_path):
    out = tmp_path / "flat.ltds"
    code = run(["synth", "--classes", "4", "--dim", "4", "--n-max", "30", "--if", "1",
                "--pairs", "0", "--seed", "1", "--out", str(out)])
    assert code == 0
    ds = data.load_dataset(out)
    assert np.array_equal(ds.class_counts, np.full(4, 30))
    assert trainer.default_test_path(out).exists()


def test_synth_echo_reproduces_the_files(tmp_path, capsys):
    first, second = tmp_path / "a" / "s.ltds", tmp_path / "b" / "s.ltds"
    flags = ["--classes", "6", "--dim", "5", "--n-max", "30", "--if", "7.5",
             "--class-sep", "2.5", "--noise", "0.75", "--pairs", "2", "--overlap", "0.6",
             "--seed", "4", "--test-size", "9"]
    assert run(["synth", *flags, "--out", str(first)]) == 0
    echo = shlex.split(capsys.readouterr().out.splitlines()[0])
    parser = cli.build_parser()
    defaults = vars(parser.parse_args(["synth", "--out", str(first)]))
    echoed = vars(parser.parse_args(echo))
    assert [k for k in defaults if echoed[k] == defaults[k]] == ["cmd", "out", "func"]
    echo[echo.index("--out") + 1] = str(second)
    assert run(echo) == 0
    for a, b in ((first, second), (trainer.default_test_path(first),
                                   trainer.default_test_path(second))):
        assert a.read_bytes() == b.read_bytes()


def test_synth_writes_long_tail_pair(tmp_path):
    out = synth_tiny(tmp_path)
    train_ds = data.load_dataset(out)
    test_ds = data.load_dataset(trainer.default_test_path(out))
    assert train_ds.class_counts[0] == 40 and train_ds.class_counts[-1] == 4
    assert np.array_equal(test_ds.class_counts, np.full(5, 8))


# --- train ------------------------------------------------------------------------------


def test_train_writes_artifacts_and_echo(tmp_path, capsys):
    path = synth_tiny(tmp_path)
    out = tmp_path / "run"
    assert run(shlex.split(TRAIN.format(data=path, out=out))) == 0
    echoed = capsys.readouterr().out.splitlines()
    assert echoed[-2].startswith("final: acc_all=") or echoed[-1].startswith("final:")
    for name in ("metrics.csv", "summary.json", "conflicts.csv", "class_kl.csv", "config.echo"):
        assert (out / name).exists()


def test_echo_round_trips_to_the_same_config(tmp_path):
    path = synth_tiny(tmp_path)
    out = tmp_path / "run"
    assert run(shlex.split(TRAIN.format(data=path, out=out))) == 0
    echo = (out / "config.echo").read_text().strip()
    parser = cli.build_parser()
    args = parser.parse_args(shlex.split(echo))
    cfg = cli._config_from_args(args)
    reparsed_echo = trainer.train_echo(cfg, args.data, args.out, args.test_data)
    assert reparsed_echo == echo


# One valid non-default value per TrainConfig field; a field missing here
# (or from TRAIN_FLAGS) fails the round trip below.
NON_DEFAULT = {
    "ltr_loss": "bsce",
    "use_kr": True,
    "use_ks": True,
    "use_kc": True,
    "use_mse_ablation": True,
    "tau": 3.5,
    "alpha": 0.25,
    "epochs": 7,
    "batch_size": 9,
    "lr": 0.125,
    "momentum": 0.5,
    "sigma_aug": 0.3,
    "seed": 11,
    "hidden_dim": 0,
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(trainer.TrainConfig)])
def test_echo_round_trips_every_config_field(name):
    assert getattr(trainer.TrainConfig(), name) != NON_DEFAULT[name]
    cfg = trainer.TrainConfig(**{name: NON_DEFAULT[name]})
    echo = trainer.train_echo(cfg, "d.ltds", "out", "t.ltds")
    args = cli.build_parser().parse_args(shlex.split(echo))
    assert cli._config_from_args(args) == cfg


def test_train_with_mse_ablation_flag(tmp_path):
    path = synth_tiny(tmp_path)
    code = run(["train", "--data", str(path), "--out", str(tmp_path / "mse"),
                "--mse-ablation", "--epochs", "2", "--batch", "16", "--hidden", "8"])
    assert code == 0
    echo = (tmp_path / "mse" / "config.echo").read_text()
    assert "--mse-ablation" in echo


def test_train_twice_identical_outputs(tmp_path):
    path = synth_tiny(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(shlex.split(TRAIN.format(data=path, out=a))) == 0
    assert run(shlex.split(TRAIN.format(data=path, out=b))) == 0
    for name in ("metrics.csv", "conflicts.csv", "class_kl.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    sa = json.loads((a / "summary.json").read_text())
    sb = json.loads((b / "summary.json").read_text())
    sa["echo"] = sb["echo"] = None  # echo embeds the out dir
    assert sa["final"] == sb["final"] and sa["config"] == sb["config"]


# --- ablate -------------------------------------------------------------------------------


def test_ablate_runs_grid(tmp_path, capsys):
    path = synth_tiny(tmp_path)
    code = run(["ablate", "--data", str(path), "--out", str(tmp_path / "grid"),
                "--epochs", "2", "--batch", "16", "--hidden", "8", "--seeds", "1"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("kr=")]
    assert len(lines) == 8
    assert (tmp_path / "grid" / "ablation.csv").exists()


def test_ablate_cell_echo_reproduces_the_cell(tmp_path):
    path = synth_tiny(tmp_path)
    grid = tmp_path / "grid"
    assert run(["ablate", "--data", str(path), "--out", str(grid), "--epochs", "3",
                "--batch", "16", "--hidden", "8", "--seed", "2", "--sigma-aug", "0.1"]) == 0
    cell = grid / "kr1_ks1_kc1" / "seed2"
    echo = (cell / "config.echo").read_text().strip()
    assert json.loads((cell / "summary.json").read_text())["echo"] == echo
    names = ("metrics.csv", "conflicts.csv", "class_kl.csv")
    before = {name: (cell / name).read_bytes() for name in names}
    argv = shlex.split(echo)
    replay = tmp_path / "replay"
    argv[argv.index("--out") + 1] = str(replay)
    assert run(argv) == 0
    for name in names:
        assert (replay / name).read_bytes() == before[name], name


# --- bad datasets ------------------------------------------------------------------------


def write_zero_count_pair(tmp_path):
    """A train set whose last class has no samples, and its test set."""
    rng = np.random.default_rng(0)
    counts = np.array([12, 6, 0])
    train_feats = rng.normal(size=(18, 4))
    test_counts = np.array([4, 4, 4])
    test_ds = data.Dataset(rng.normal(size=(12, 4)), np.repeat(np.arange(3), test_counts),
                           test_counts)
    path = tmp_path / "zero.ltds"
    path.write_bytes(
        struct.pack("<4sIIII", b"LTDS", 1, 18, 4, 3)
        + train_feats.astype("<f4").tobytes()
        + np.repeat(np.arange(3), counts).astype("<u4").tobytes()
        + counts.astype("<u4").tobytes()
    )
    data.save_dataset(test_ds, trainer.default_test_path(path))
    return path


@pytest.mark.parametrize("flags", [["--ks"], ["--ltr", "bsce"]])
def test_zero_count_class_is_runtime_error(tmp_path, capsys, flags):
    path = write_zero_count_pair(tmp_path)
    code = run(["train", "--data", str(path), "--out", str(tmp_path / "o"), "--epochs", "2",
                *flags])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: class 2 has count 0")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "header, where",
    [((30, 0, 2), "offset 12"), ((0, 0, 0), "offset 12"), ((0, 4, 0), "offset 16")],
)
def test_zero_dim_or_zero_class_file_is_runtime_error(tmp_path, capsys, header, where):
    n, d, c = header
    counts = [20, 10][:c]
    blob = (
        struct.pack("<4sIIII", b"LTDS", 1, n, d, c)
        + np.repeat(np.arange(c), counts).astype("<u4").tobytes()
        + np.asarray(counts, dtype="<u4").tobytes()
    )
    path = tmp_path / "empty.ltds"
    path.write_bytes(blob)
    trainer.default_test_path(path).write_bytes(blob)
    code = run(["train", "--data", str(path), "--out", str(tmp_path / "o"), "--kr"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and where in err[0]
    assert not (tmp_path / "o").exists()


def test_synth_rejects_empty_test_classes(tmp_path):
    assert run(["synth", "--test-size", "0", "--out", str(tmp_path / "x.ltds")]) == 2
    assert not (tmp_path / "x.ltds").exists()


def test_synth_rejects_negative_noise(tmp_path):
    assert run(["synth", "--noise", "-1", "--out", str(tmp_path / "x.ltds")]) == 2
    assert not (tmp_path / "x.ltds").exists()


@pytest.mark.parametrize(
    "flags",
    [["--class-sep", "nan"], ["--class-sep", "inf"], ["--noise", "inf"],
     ["--if", "nan"], ["--if", "inf"], ["--overlap", "nan"],
     # with no pairs the overlap is never applied, and is still checked
     ["--pairs", "0", "--overlap", "nan"], ["--pairs", "0", "--overlap", "-1"],
     ["--pairs", "0", "--overlap", "2"]],
    ids="-".join,
)
def test_synth_non_finite_geometry_is_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "d" / "x.ltds"
    assert run(["synth", *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error: ")
    assert not out.parent.exists()


@pytest.mark.parametrize("flag", ["--n-max", "--test-size"])
def test_synth_size_beyond_the_file_header_is_usage_error(tmp_path, capsys, flag):
    out = tmp_path / "d" / "x.ltds"
    assert run(["synth", flag, "5000000000", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"usage error: {flag} must be <= 4294967295, got 5000000000"]
    assert not out.parent.exists()


def test_synth_out_of_memory_is_runtime_error(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 172. GiB")

    monkeypatch.setattr(data, "synth_gaussians", no_memory)
    out = tmp_path / "d" / "x.ltds"
    assert run(["synth", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: out of memory: Unable to allocate 172. GiB"]
    assert not out.parent.exists()


def test_mismatched_train_test_pair_is_runtime_error(tmp_path, capsys):
    path = synth_tiny(tmp_path)
    other = tmp_path / "wide.ltds"
    assert run(shlex.split(SYNTH.format(out=other).replace("--dim 6", "--dim 7"))) == 0
    capsys.readouterr()
    test_path = trainer.default_test_path(other)
    code = run(["train", "--data", str(path), "--test-data", str(test_path),
                "--out", str(tmp_path / "o"), "--epochs", "1"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(path) in err[0] and str(test_path) in err[0]
    assert "6 dims and 5 classes" in err[0] and "7 dims and 5 classes" in err[0]
    assert not (tmp_path / "o").exists()


# --- analyze ------------------------------------------------------------------------------


def test_analyze_commands_summarize_a_run(tmp_path, capsys):
    path = synth_tiny(tmp_path)
    out = tmp_path / "run"
    assert run(shlex.split(TRAIN.format(data=path, out=out))) == 0
    assert run(["analyze-kl", "--run", str(out)]) == 0
    assert run(["analyze-conflicts", "--run", str(out)]) == 0
    kl = json.loads((out / "kl_analysis.json").read_text())
    assert "spearman_rarity" in kl and len(kl["per_class_mean_kl"]) == 5
    conf = json.loads((out / "conflict_analysis.json").read_text())
    assert set(conf) >= {"fraction_mean", "fraction_nonzero_share", "per_layer_conflict_rate"}


def test_analyze_missing_run_is_runtime_error(tmp_path):
    assert run(["analyze-kl", "--run", str(tmp_path / "ghost")]) == 1


def test_analyze_conflicts_on_a_plain_run_reports_zero(tmp_path, capsys):
    path = synth_tiny(tmp_path)
    out = tmp_path / "run"
    assert run(["train", "--data", str(path), "--out", str(out), "--epochs", "1", "--hidden", "8"]) == 0
    assert run(["analyze-conflicts", "--run", str(out)]) == 0
    assert json.loads((out / "conflict_analysis.json").read_text()) == {
        "epochs": 0,
        "per_layer_conflict_rate": {},
        "fraction_mean": 0.0,
        "fraction_nonzero_share": 0.0,
    }
    # one epoch leaves no adjacent pair, so there is no divergence to summarize
    capsys.readouterr()
    assert run(["analyze-kl", "--run", str(out)]) == 1
    assert "no divergence rows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, name, text, where",
    [
        ("analyze-kl", "class_kl.csv", b"", "is empty"),
        ("analyze-conflicts", "conflicts.csv", b"", "is empty"),
        ("analyze-kl", "class_kl.csv", b"epoch,0,1\r\n1,0.5,0.25\r\n2,0.5,x\r\n", "line 3"),
        ("analyze-conflicts", "conflicts.csv",
         b"epoch,layer_name,conflicted,fraction\r\n0,layer0,1\r\n", "line 2"),
        ("analyze-kl", "class_kl.csv", b"epoch,0\r\n1,\xff\xfe\r\n", ""),
        ("analyze-kl", "class_kl.csv", b"epoch,0,1\r\n1,0.5,0.25\r\n2,nan,0.5\r\n", "line 3"),
        ("analyze-kl", "class_kl.csv", b"epoch,0,1\r\n1,0.5,inf\r\n", "line 2"),
        ("analyze-kl", "class_kl.csv", b"epoch\r\n1\r\n", "line 1"),
    ],
    ids=["empty-class-kl", "empty-conflicts", "non-numeric-kl", "short-conflict-row", "binary-kl",
         "nan-kl", "inf-kl", "no-class-kl"],
)
def test_analyze_malformed_run_file_is_runtime_error(tmp_path, capsys, command, name, text, where):
    (tmp_path / name).write_bytes(text)
    assert run([command, "--run", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(tmp_path / name) in err and where in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]  # no analysis written
