"""The CLI's contract under generated flag values: every exit is 0, 1 or 2,
no exception leaves `cli.main`, no warning is raised, a failure prints one
stderr line, and a usage error writes nothing. The `train`, `ablate` and
`synth` strategies are built from `trainer.TRAIN_FLAGS` and
`cli.SYNTH_FLAGS`, so a new flag is fuzzed with no edit here.
"""

import collections
import contextlib
import io
import itertools
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltreflect import cli, trainer

# Values each field mostly takes in place of its default: sizes small enough
# that a run is a few milliseconds.
BASE = {"classes": 4, "dim": 3, "n_max": 12, "imbalance_factor": 4.0, "pairs": 1,
        "test_size": 2, "epochs": 2}
# Edge values: a field takes one in about one draw of ten. Every one parses.
EDGES = {int: ("-1", "0", "1", "3"),
         float: ("1e308", "nan", "inf", "-1.0", "0.0", "0.5")}
# The only oversized value, for the sizes `synth` rejects before allocating.
OVERSIZED = {"--classes", "--dim", "--n-max", "--test-size"}


def values(flag, dest, kind, default):
    """One table row's words: its base value (or no switch), or about one
    draw in ten an edge value (or the switch)."""
    if kind is bool:
        base, edges = [], [[flag]]
    else:
        choices = (*trainer.LTR_LOSSES, "foo") if dest == "ltr_loss" else EDGES[kind]
        choices += ("4294967296",) if flag in OVERSIZED else ()
        base, edges = [f"{flag}={BASE.get(dest, default)}"], [[f"{flag}={v}"] for v in choices]
    return st.sampled_from([base] * 9 * len(edges) + edges)


def argv_of(rows):
    return st.tuples(*(values(*row) for row in rows)).map(lambda parts: sum(parts, []))


SYNTH_ROWS = [row[:4] for row in cli.SYNTH_FLAGS]
TRAIN_ROWS = [(flag, dest, kind, getattr(trainer.TrainConfig(), dest))
              for flag, dest, kind, _ in trainer.TRAIN_FLAGS]
# `ablate` takes no component switches, and its seeds start at one per cell
ABLATE_ROWS = [row for row in TRAIN_ROWS if row[2] is not bool] + [("--seeds", "seeds", int, 1)]
COMMANDS = st.one_of(
    argv_of(TRAIN_ROWS).map(lambda argv: ("train", argv)),
    argv_of(SYNTH_ROWS).map(lambda argv: ("synth", argv)),
    argv_of(ABLATE_ROWS).map(lambda argv: ("ablate", argv)),
)


def main_quietly(argv):
    """(exit code, stderr lines, warnings) of one `cli.main` call."""
    stderr = io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr)):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, stderr.getvalue().splitlines(), [str(w.message) for w in caught]


def test_every_generated_command_keeps_the_cli_contract(tmp_path, monkeypatch):
    monkeypatch.setattr(trainer, "_cpus", lambda: 1)  # an ablate grid forks no worker
    pair = tmp_path / "pair" / "tiny.ltds"
    synth = [f"{flag}={BASE.get(dest, default)}" for flag, dest, _, default in SYNTH_ROWS]
    assert main_quietly(["synth", *synth, "--out", str(pair)]) == (0, [], [])
    serial = itertools.count()
    codes = collections.Counter()

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(COMMANDS)
    @example(("train", ["--epochs=2", "--lr=1e308"]))  # a run that diverges: exit 1
    def check(command):
        name, argv = command
        out = tmp_path / f"e{next(serial)}"
        where, data = (out / "s.ltds", []) if name == "synth" else (out / "run", ["--data", str(pair)])
        code, err, caught = main_quietly([name, *data, *argv, "--out", str(where)])
        assert code in (0, 1, 2) and caught == []
        if code:
            assert len(err) == 1 and err[0].startswith(("usage error: ", "error: ")), err
        if code == 2:
            assert not out.exists()
        codes[code] += 1

    check()
    assert set(codes) == {0, 1, 2}, codes
