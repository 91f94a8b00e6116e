import argparse
import ast
import dataclasses
import hashlib
import json
import shlex
import struct
import warnings
from pathlib import Path

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


# argvs that fail before anything is written: (argv, exit code, a word the one
# stderr line names). Refusals keep argparse's wording after `usage error: `.
REFUSED = {
    "no-command": ([], 2, "cmd"),
    "no-flags": (["train"], 2, "--data, --out"),
    "no-value": (["train", "--data", "p", "--out", "z", "--ltr"], 2, "--ltr"),
    "unparsed-value": (["synth", "--out", "y", "--pairs", "1.5"], 2, "'1.5'"),
    "unparsed-epochs": (["train", "--data", "p", "--out", "z", "--epochs", "abc"], 2, "'abc'"),
    "unknown-flag": (["train", "--data", "x", "--out", "y", "--frobnicate"], 2, "--frobnicate"),
    "unknown-flag-value": (["train", "--data", "p", "--out", "z", "--bogus", "1"], 2, "--bogus 1"),
    "unknown-command": (["frobnicate"], 2, "'frobnicate'"),
    "newline-path": (["train", "--data", "no\nsuch", "--out", "z"], 1, "no\\nsuch"),
}


@pytest.mark.parametrize("argv, code, word", REFUSED.values(), ids=REFUSED)
def test_a_refused_argv_is_one_stderr_line_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                              argv, code, word):
    """No usage block: one `usage error:` (exit 2) or `error:` (exit 1) line,
    with a line break in the message written as `\\n`."""
    monkeypatch.chdir(tmp_path)
    assert run(argv) == code
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert captured.out == "" and line.startswith("usage error: " if code == 2 else "error: ")
    assert word in line and not any(tmp_path.iterdir())


def test_only_cli_parser_names_argparse_argument_parser():
    """Every entry point parses with `cli.Parser`, whose refusals leave through
    `cli.exit_code`; only its class statement may name ArgumentParser."""
    root = Path(__file__).resolve().parents[1]
    named = []
    for path in [*sorted(root.glob("src/ltreflect/*.py")), *sorted(root.glob("scripts/*.py"))]:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {id(n) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   and (path.name, node.name) == ("cli.py", "Parser")
                   for base in node.bases for n in ast.walk(base)}
        named += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if id(n) not in allowed
                  and "ArgumentParser" in (getattr(n, "attr", None), getattr(n, "id", None),
                                           getattr(n, "name", None))]
    assert named == [] and cli.Parser.__bases__ == (argparse.ArgumentParser,)


def test_bad_imbalance_factor_is_usage_error(tmp_path, capsys):
    """Each count-profile error names the flags and values that break it."""
    for flags, line in (
        ("--if 0.5", "--if must be >= 1, got 0.5"),
        ("--classes 1", "--classes must be >= 2, got 1"),
        ("--classes 5 --dim 4 --n-max 40",
         "--n-max must be >= --if (100.0) so the smallest class keeps a sample, got 40"),
    ):
        assert run(["synth", *flags.split(), "--out", str(tmp_path / "x.ltds")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"usage error: {line}"]
        assert not any(tmp_path.iterdir())


# One case per `synth` rule, in the order they are checked: the flags and the
# one usage-error line they give.
SYNTH_RULES = [
    ("--seed -1", "--seed must be >= 0, got -1"),
    ("--class-sep nan", "--class-sep must be finite, got nan"),
    ("--classes 4294967296", "--classes must be <= 4294967295, got 4294967296"),
    ("--dim 4294967296", "--dim must be <= 4294967295, got 4294967296"),
    ("--n-max 4294967296", "--n-max must be <= 4294967295, got 4294967296"),
    ("--test-size 4294967296", "--test-size must be <= 4294967295, got 4294967296"),
    ("--classes 1", "--classes must be >= 2, got 1"),
    ("--if 0.5", "--if must be >= 1, got 0.5"),
    ("--n-max 40", "--n-max must be >= --if (100.0) so the smallest class keeps a sample, got 40"),
    ("--test-size 0", "--test-size must be >= 1, got 0"),
    ("--noise -1", "--noise must be finite and >= 0, got -1.0"),
    ("--pairs 11", "--pairs must be in [0, 10], got 11"),
    ("--pairs -1", "--pairs must be in [0, 10], got -1"),
    ("--overlap 2", "--overlap must be in [0, 1], got 2.0"),
    ("--dim 1", "--dim must be >= 2, got 1"),
]


@pytest.mark.parametrize("flags, line", SYNTH_RULES, ids=[flags for flags, _ in SYNTH_RULES])
def test_every_synth_rule_is_one_usage_line_before_the_targets(tmp_path, capsys, flags, line):
    """Each rule is checked before the targets are: an --out that is an
    existing directory (a target error, exit 1) still reads as the usage error."""
    out = tmp_path / "taken"
    out.mkdir()
    assert run(["synth", *flags.split(), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err.splitlines()) == ("", [f"usage error: {line}"])
    assert list(tmp_path.iterdir()) == [out] and not any(out.iterdir())


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_an_unknown_ltr_loss_is_one_usage_line(tmp_path, capsys, command):
    path = synth_tiny(tmp_path)
    capsys.readouterr()
    out = tmp_path / "o"
    assert run([command, "--data", str(path), "--out", str(out), "--ltr", "foo"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err.splitlines()) == (
        "", ["usage error: --ltr must be 'ce' or 'bsce', got 'foo'"])
    assert not out.exists()


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


def test_a_model_without_hidden_units_is_usage_error(tmp_path, capsys):
    path = synth_tiny(tmp_path)
    capsys.readouterr()
    for command in ("train", "ablate"):
        out = tmp_path / command
        assert run([command, "--data", str(path), "--out", str(out), "--hidden", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["usage error: --hidden must be >= 1, got 0"]
        assert not out.exists()


@pytest.mark.parametrize("seeds", [0, -1])
def test_ablate_without_seeds_is_usage_error(tmp_path, capsys, seeds):
    path = synth_tiny(tmp_path)
    capsys.readouterr()
    grid = tmp_path / "grid"
    assert run(["ablate", "--data", str(path), "--out", str(grid), f"--seeds={seeds}"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"usage error: --seeds must be >= 1, got {seeds}"]
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
    assert captured.err.splitlines() == ["usage error: --seed must be >= 0, got -1"]
    assert not out.exists() and not trainer.default_test_path(out).exists()


def test_missing_dataset_is_runtime_error(tmp_path):
    code = run(["train", "--data", str(tmp_path / "nope.ltds"), "--out", str(tmp_path / "o"),
                "--epochs", "1"])
    assert code == 1


def test_train_prints_its_flag_line_only_after_the_pair_loads(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["train", "--data", str(tmp_path / "missing.ltds"), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: dataset file not found")
    assert not out.exists()


def test_an_out_path_that_is_or_lies_under_a_file_fails_before_the_pair_loads(
    tmp_path, capsys, monkeypatch
):
    path = synth_tiny(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("")
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()

    def no_load(*args):
        raise AssertionError("the dataset pair was loaded")

    monkeypatch.setattr(data, "load_dataset", no_load)
    assert run(["train", "--data", str(path), "--out", str(afile), "--kr", "--ks", "--kc"]) == 1
    assert run(["ablate", "--data", str(path), "--out", str(afile / "grid"), "--epochs", "20"]) == 1
    captured = capsys.readouterr()
    first = afile / "grid" / "kr0_ks0_kc0" / "seed0"
    assert (captured.out, captured.err.splitlines()) == ("", [
        f"error: run directory {afile} exists and is not a directory",
        f"error: run directory {first} lies under {afile}, which is not a directory",
    ])
    assert sorted(tmp_path.rglob("*")) == before and afile.read_text() == ""


def test_ablate_refuses_a_directory_at_its_table_before_the_pair_loads(tmp_path, capsys, monkeypatch):
    path = synth_tiny(tmp_path)
    table = tmp_path / "grid" / "ablation.csv"
    table.mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()

    def no_load(*args):
        raise AssertionError("the dataset pair was loaded")

    monkeypatch.setattr(data, "load_dataset", no_load)
    assert run(["ablate", "--data", str(path), "--out", str(tmp_path / "grid"), "--epochs", "2"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: ablation table {table} exists and is a directory\n")
    assert sorted(tmp_path.rglob("*")) == before


# --- synth ---------------------------------------------------------------------------


@pytest.mark.parametrize("where", ["under-a-file", "test-set-is-a-directory"])
def test_synth_checks_both_targets_before_it_synthesizes(tmp_path, capsys, monkeypatch, where):
    afile = tmp_path / "afile"
    afile.write_text("")
    (tmp_path / "x.test.ltds").mkdir()
    if where == "under-a-file":
        out = afile / "w.ltds"
        error = f"dataset file {out} lies under {afile}, which is not a directory"
    else:
        out = tmp_path / "x.ltds"
        error = f"test dataset file {tmp_path / 'x.test.ltds'} exists and is a directory"
    before = sorted(tmp_path.rglob("*"))

    def no_synth(*args, **kwargs):
        raise AssertionError("a set was synthesized")

    monkeypatch.setattr(data, "synth_gaussians", no_synth)
    assert run(["synth", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err.splitlines()) == ("", [f"error: {error}"])
    assert sorted(tmp_path.rglob("*")) == before and afile.read_text() == ""


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


# sha256 of each set's train and test files, so that how synth draws and writes
# a set cannot change its bytes; the wide set spans six data.SYNTH_BLOCK_ROWS blocks
SYNTH_PINS = [
    ("--seed 0",
     "a1e16b91d2a7bfe83c6b35b4181d0574bb09d3ba5966d583ae9754f882136903",
     "86b58488f9ccdde9cb27c656f362ba5d20e2682537ddb1931de8b5014de6db47"),
    ("--classes 100 --dim 64 --n-max 1000 --pairs 10 --seed 1",
     "9681b5c6a24c4389028ebf8562dc350b00fa7e70f6b8cb9465a231466947b28b",
     "a7ca9b160c85b92c9771085c9457d950fc411b1af12577331af720b9b31c0697"),
    ("--noise 0 --seed 3",
     "b2f64024a51fe408a952d7b254dc5855d18e57c4a44b1ed924cc67340e2b3104",
     "4f62bdf3eb70be8863f80274a92692c23de5dc91d22682c8681325a26d62ba24"),
]


def test_synth_files_keep_their_bytes(tmp_path):
    for i, (flags, train_sha, test_sha) in enumerate(SYNTH_PINS):
        out = tmp_path / str(i) / "train.ltds"
        assert run(["synth", *flags.split(), "--out", str(out)]) == 0
        assert [hashlib.sha256(p.read_bytes()).hexdigest()
                for p in (out, trainer.default_test_path(out))] == [train_sha, test_sha], flags


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
    "tau": 3.5,
    "alpha": 0.25,
    "epochs": 7,
    "batch_size": 9,
    "lr": 0.125,
    "momentum": 0.5,
    "sigma_aug": 0.3,
    "seed": 11,
    "hidden_dim": 16,
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(trainer.TrainConfig)])
def test_echo_round_trips_every_config_field(name):
    assert getattr(trainer.TrainConfig(), name) != NON_DEFAULT[name]
    cfg = trainer.TrainConfig(**{name: NON_DEFAULT[name]})
    echo = trainer.train_echo(cfg, "d.ltds", "out", "t.ltds")
    args = cli.build_parser().parse_args(shlex.split(echo))
    assert cli._config_from_args(args) == cfg


def test_train_with_mse_ablation_flag(tmp_path, capsys):
    """The logit-MSE review ablation is gone: its flag is unknown."""
    path = synth_tiny(tmp_path)
    capsys.readouterr()
    code = run(["train", "--data", str(path), "--out", str(tmp_path / "mse"),
                "--mse-ablation", "--epochs", "2", "--batch", "16", "--hidden", "8"])
    assert code == 2
    assert "unrecognized arguments: --mse-ablation" in capsys.readouterr().err
    assert not (tmp_path / "mse").exists()


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


@pytest.mark.parametrize("flag", ["--noise", "--class-sep"])
def test_synth_features_beyond_float32_are_a_usage_error(tmp_path, capsys, flag):
    """1e308 is finite as a flag, but not as a float32 feature: synth
    refuses before it writes anything, and without a numpy warning."""
    out = tmp_path / "d" / "x.ltds"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["synth", flag, "1e308", "--pairs", "0", "--seed", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: ") and "beyond float32" in err[0]
    assert not out.parent.exists()


def test_train_on_a_non_finite_feature_file_is_runtime_error(tmp_path, capsys):
    path = synth_tiny(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[20:24] = np.array(np.inf, dtype="<f4").tobytes()  # row 0, feature 0
    path.write_bytes(blob)
    capsys.readouterr()
    assert run(shlex.split(TRAIN.format(data=path, out=tmp_path / "o"))) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: feature 0 of row 0 is not finite (byte offset 20)"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "flags",
    [
        "--tau 1e308 --kr --ks",  # the review KL overflows
        "--sigma-aug 1e200",  # the forward pass overflows
    ],
)
def test_a_diverging_train_reports_one_error_line_and_no_warning(tmp_path, capsys, flags):
    """Each run overflows in numpy before its loss goes non-finite; the only
    report is the trainer's error line, and nothing is written."""
    path = tmp_path / "stock.ltds"
    assert run(["synth", "--seed", "7", "--out", str(path)]) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["train", "--data", str(path), "--out", str(out), *flags.split()]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite ")
    assert not out.exists()


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


def test_analyze_missing_run_is_runtime_error(tmp_path, capsys):
    """A missing run directory, or one without the command's file: one line
    that names the directory as typed, exit 1, nothing written."""
    (tmp_path / "empty").mkdir()
    for command, name in (("analyze-kl", "class_kl.csv"), ("analyze-conflicts", "conflicts.csv")):
        for run_dir, line in ((tmp_path / "ghost", f"run directory {tmp_path / 'ghost'} does not exist"),
                              (tmp_path / "empty", f"{tmp_path / 'empty'} holds no {name}")):
            assert run([command, "--run", str(run_dir)]) == 1
            assert capsys.readouterr().err.splitlines() == [f"error: {line}"]
    assert [p.name for p in tmp_path.iterdir()] == ["empty"] and not any((tmp_path / "empty").iterdir())


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


def test_analyze_kl_on_constant_class_means_is_null(tmp_path, capsys):
    (tmp_path / "class_kl.csv").write_text("epoch,0,1\n1,0.5,0.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["analyze-kl", "--run", str(tmp_path)]) == 0

    def refuse(token):  # strict JSON has no NaN or Infinity token
        raise ValueError(f"bare {token}")

    payload = json.loads((tmp_path / "kl_analysis.json").read_text(), parse_constant=refuse)
    assert payload["spearman_rarity"] is None and payload["spearman_pvalue"] is None
    assert payload["per_class_mean_kl"] == [0.5, 0.5]
    assert "rarity-rank spearman nan" in capsys.readouterr().out


# A run directory that both analyze commands can read.
ANALYZABLE = {"class_kl.csv": "epoch,0,1\r\n1,0.5,0.25\r\n2,0.125,0.5\r\n",
              "conflicts.csv": "epoch,layer_name,conflicted,fraction\r\n1,layer0,1,0.75\r\n"}


@pytest.mark.parametrize("command", ["analyze-kl", "analyze-conflicts"])
def test_analyze_out_under_a_missing_directory_makes_it(tmp_path, capsys, command):
    for name, text in ANALYZABLE.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "nodir" / "deeper" / "x.json"
    assert run([command, "--run", str(tmp_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["epochs"] == (2 if command == "analyze-kl" else 1)


@pytest.mark.parametrize("command", ["analyze-kl", "analyze-conflicts"])
def test_analyze_out_that_is_a_directory_is_one_error_line(tmp_path, capsys, command):
    for name, text in ANALYZABLE.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "taken"
    out.mkdir()
    assert run([command, "--run", str(tmp_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: output file {out} exists and is a directory"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*ANALYZABLE, "taken"])
    assert not any(out.iterdir())


@pytest.mark.parametrize("name", ["class_kl.csv", "conflicts.csv", "summary.json"])
@pytest.mark.parametrize("command", ["analyze-kl", "analyze-conflicts"])
def test_analyze_out_that_is_a_run_file_is_refused(tmp_path, capsys, monkeypatch, command, name):
    """An --out naming one of the run's own files, as typed or by another
    path to it, is one error line; every run file keeps its bytes."""
    for file_name, text in ANALYZABLE.items():
        (tmp_path / file_name).write_text(text)
    (tmp_path / "summary.json").write_text("{}\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.chdir(tmp_path)
    for out in (tmp_path / name, name):
        assert run([command, "--run", str(tmp_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: output file {out} is a file of run directory {tmp_path}"]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command, name", [("analyze-kl", "kl_analysis.json"),
                                           ("analyze-conflicts", "conflict_analysis.json")])
def test_analyze_default_target_is_checked_in_a_run_directory(tmp_path, capsys, command, name):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert run([command, "--run", str(afile)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: run directory {afile} is not a directory"]
    for file_name, text in ANALYZABLE.items():
        (tmp_path / file_name).write_text(text)
    (tmp_path / name).mkdir()
    assert run([command, "--run", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: output file {tmp_path / name} exists and is a directory"]
    assert not any((tmp_path / name).iterdir())


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
