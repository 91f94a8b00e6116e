"""Smoke runs of the experiment scripts at their smallest sizes, and the
exits every entry point shares. Scripts run with warnings as errors, as
pyproject's filterwarnings holds the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-W", "error", *args], capture_output=True, text=True, env=env, timeout=120,
    )


def script(name, *args):
    return python(str(ROOT / "scripts" / name), *args)


def run_script(name, *args):
    proc = script(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_trend_reports_every_variant(tmp_path):
    workdir = tmp_path / "a work'dir"  # the script hands synth its path as one word
    lines = run_script("run_trend.py", "--workdir", str(workdir), "--seeds", "1", "--epochs", "2")
    header, *table = lines[-7:]
    assert header.split() == ["variant", "all", "many", "medium", "few"]
    assert [l.split()[0] for l in table[:4]] == ["ce", "ce+rl", "bsce", "bsce+rl"]
    assert table[4].startswith("ce+rl vs ce: d_all=")
    assert table[5].startswith("bsce+rl vs bsce: d_all=")


def test_run_diagnostics_reports_each_diagnostic(tmp_path):
    lines = run_script("run_diagnostics.py", "--workdir", str(tmp_path), "--seeds", "1")
    assert lines[-4].startswith("adjacent-epoch KL vs rarity rank: spearman ")
    assert len(lines[-3].split()) == 3 + 20  # "per-class mean KL:" and one value per class
    assert lines[-2].startswith("mean KL: ce ")
    assert lines[-1].startswith("conflict fraction (KR+KS, no correction): mean ")


@pytest.mark.parametrize(
    "name, flags",
    [("run_trend.py", "--seeds 0"), ("run_trend.py", "--epochs 0"), ("run_diagnostics.py", "--seeds 0"),
     ("run_trend.py", "--seeds abc")],
    ids=["trend-seeds", "trend-epochs", "diagnostics-seeds", "trend-seeds-text"],
)
def test_a_bad_flag_is_one_usage_line_before_anything_is_written(tmp_path, name, flags):
    workdir = tmp_path / "work"
    proc = script(name, "--workdir", str(workdir), *flags.split())
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: "), proc.stderr
    assert not workdir.exists()


@pytest.mark.parametrize("name", ["run_trend.py", "run_diagnostics.py"])
def test_a_workdir_under_a_file_is_one_error_line(tmp_path, name):
    (tmp_path / "afile").touch()
    proc = script(name, "--workdir", str(tmp_path / "afile" / "sub"), "--seeds", "1")
    assert (proc.returncode, proc.stdout) == (1, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_a_failed_synth_stops_the_script_before_any_run(tmp_path):
    """The script exits with synth's code and its one error line."""
    (tmp_path / "default.test.ltds").mkdir()
    proc = script("run_trend.py", "--workdir", str(tmp_path), "--seeds", "1", "--epochs", "1")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == [
        f"error: test dataset file {tmp_path / 'default.test.ltds'} exists and is a directory"]
    assert [p.name for p in tmp_path.iterdir()] == ["default.test.ltds"]


@pytest.mark.parametrize("argv", [["-m", "ltreflect.cli", "--help"],
                                  ["-m", "ltreflect.cli", "train", "--help"],
                                  [str(ROOT / "scripts" / "run_trend.py"), "--help"]],
                         ids=["ltreflect", "ltreflect-train", "run_trend"])
def test_help_exits_zero_with_its_usage_on_stdout(argv):
    proc = python(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: ") and "--help" in proc.stdout
