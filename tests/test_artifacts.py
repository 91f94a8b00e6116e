import numpy as np
import pytest
from scipy import stats

from ltreflect import artifacts
from ltreflect.errors import FormatError


def write_kl(run_dir, table):
    run_dir.mkdir()
    header = ["epoch"] + [str(i) for i in range(len(table[0]))]
    artifacts.write_csv(run_dir / "class_kl.csv", header, ([e, *r] for e, r in enumerate(table, 1)))
    return artifacts.class_kl_table(run_dir)


def test_csv_round_trips_ints_and_exact_floats(tmp_path):
    path = tmp_path / "t.csv"
    values = np.array([0.1, 1 / 3, -0.0, 1e-300, 2.0**60 + 1, np.pi * 1e17])
    rows = [[i, np.int64(-i), "layer0", v] for i, v in enumerate(values)]
    artifacts.write_csv(path, ["i", "j", "name", "x"], rows)
    assert path.read_bytes().startswith(b"i,j,name,x\r\n0,0,layer0,0.1\r\n")
    header, back = artifacts.read_csv(path)
    assert header == ["i", "j", "name", "x"]
    assert [(int(r[0]), int(r[1]), r[2]) for r in back] == [(i, -i, "layer0") for i in range(6)]
    parsed = np.array([float(r[3]) for r in back])
    assert np.array_equal(parsed.view(np.uint64), values.view(np.uint64))


def test_json_is_sorted_indented_and_newline_terminated(tmp_path):
    artifacts.write_json(tmp_path / "s.json", {"b": 1, "a": [0.5]})
    assert (tmp_path / "s.json").read_text() == '{\n  "a": [\n    0.5\n  ],\n  "b": 1\n}\n'


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_class_kl_table_rejects_a_non_finite_cell(tmp_path, cell):
    (tmp_path / "class_kl.csv").write_text(f"epoch,0,1\n1,0.1,0.3\n2,0.2,{cell}\n")
    with pytest.raises(FormatError, match=f"class_kl.csv line 3: '{cell}' is not a finite number"):
        artifacts.class_kl_table(tmp_path)


def test_kl_summary_pools_per_run_class_means(tmp_path):
    a = write_kl(tmp_path / "a", [[1.0, 4.0, 2.0], [3.0, 2.0, 6.0]])
    b = write_kl(tmp_path / "b", [[4.0, 1.0, 8.0]])
    got = artifacts.kl_summary([a, b])
    # the mean of each run's per-class means, not of the concatenated rows
    assert got["per_class_mean_kl"] == [3.0, 2.0, 6.0]
    assert got["epochs"] == 3
    assert got["mean_kl"] == pytest.approx(11 / 3)
    assert got["spearman_rarity"] == pytest.approx(0.5)
    assert got["spearman_pvalue"] == stats.spearmanr([0, 1, 2], [3.0, 2.0, 6.0]).pvalue


def test_conflict_summary(tmp_path):
    (tmp_path / "conflicts.csv").write_text(
        "epoch,layer_name,conflicted,fraction\n"
        "0,layer0,1,0.5\n0,layer1,0,0.5\n"
        "1,layer0,0,0.0\n1,layer1,0,0.0\n"
        "2,layer0,1,0.25\n2,layer1,1,0.25\n"
    )
    got = artifacts.conflict_summary(tmp_path)
    assert got["epochs"] == 3
    assert got["per_layer_conflict_rate"] == {"layer0": pytest.approx(2 / 3), "layer1": pytest.approx(1 / 3)}
    assert got["fraction_mean"] == pytest.approx(0.25)
    assert got["fraction_nonzero_share"] == pytest.approx(2 / 3)


def test_conflict_summary_rejects_a_foreign_header(tmp_path):
    (tmp_path / "conflicts.csv").write_text("epoch,layer,flag,fraction\n")
    with pytest.raises(FormatError, match="line 1"):
        artifacts.conflict_summary(tmp_path)


def test_metric_column_and_final(tmp_path):
    (tmp_path / "metrics.csv").write_text("epoch,acc_all\n0,0.25\n1,0.5\n")
    assert artifacts.metric_column(tmp_path, "acc_all").tolist() == [0.25, 0.5]
    artifacts.write_json(tmp_path / "summary.json", {"final": {"acc_all": 0.5}})
    assert artifacts.final(tmp_path) == {"acc_all": 0.5}


def test_mean_finals():
    finals = [
        {"epoch": 3, "acc_all": 0.5, "acc_many": 1.0, "acc_medium": 0.25, "acc_few": 0.0},
        {"epoch": 3, "acc_all": 0.25, "acc_many": 0.5, "acc_medium": 0.75, "acc_few": 0.5},
    ]
    assert artifacts.mean_finals(finals) == {
        "acc_all": 0.375, "acc_many": 0.75, "acc_medium": 0.5, "acc_few": 0.25,
    }
