"""Smoke runs of the experiment scripts at their smallest sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def run_script(name, *args):
    proc = script(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_trend_reports_every_variant(tmp_path):
    lines = run_script("run_trend.py", "--workdir", str(tmp_path), "--seeds", "1", "--epochs", "2")
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
    [("run_trend.py", "--seeds 0"), ("run_trend.py", "--epochs 0"), ("run_diagnostics.py", "--seeds 0")],
    ids=["trend-seeds", "trend-epochs", "diagnostics-seeds"],
)
def test_a_bad_flag_is_one_usage_line_before_anything_is_written(tmp_path, name, flags):
    workdir = tmp_path / "work"
    proc = script(name, "--workdir", str(workdir), *flags.split())
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: "), proc.stderr
    assert not workdir.exists()
