"""Byte identity as a tier-1 gate. A fixed matrix of commands, run through
`cli.main` (one run set through `trainer.run_set`) with short epochs, pins
the sha256 of every file each case writes. The digests are keyed by the
numeric environment: the numpy version and the OpenBLAS build and core
(`trainer._openblas`). Every run set pins OpenBLAS to one thread, so the
thread count is not part of the key. An environment with no entry fails.

Every case runs with relative paths from one working directory, because
`config.echo` and `summary.json` record paths as given. A change that
moves the bits on purpose records the new entry with

    PYTHONPATH=src python tests/test_bits.py --record

and names each changed case, with its old and new digests, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ltreflect import cli, trainer

DIGESTS = Path(__file__).resolve().with_name("bits.json")
RECORD = "PYTHONPATH=src python tests/test_bits.py --record"
STOCK = "data/lt.ltds"
WIDE = "data/wide.ltds"
# five epochs: at the default lr the decayed rate differs in its last bit when
# computed as lr - lr * epoch / epochs, so a reordered schedule shows
TRAIN = f"train --data {STOCK} --epochs 5 --out"


def mixed_set():
    """A CE and a BSCE run with KR and KS: one lockstep group."""
    cfgs = [trainer.TrainConfig(ltr_loss=ltr, use_kr=True, use_ks=True, epochs=5)
            for ltr in trainer.LTR_LOSSES]
    trainer.run_set([(cfg, f"mixed/{cfg.ltr_loss}") for cfg in cfgs], STOCK)


# (case, steps): a step is a command line for `cli.main` or a callable. The
# cases run in this order in one directory, so later ones read earlier files.
CASES = (
    ("synth", (f"synth --seed 0 --out {STOCK}",
               f"synth --classes 100 --dim 8 --n-max 30 --if 10 --pairs 0 --test-size 2 "
               f"--seed 0 --out {WIDE}")),
    ("ce_plain", (f"{TRAIN} ce_plain",)),
    ("ce_full", (f"{TRAIN} ce_full --kr --ks --kc",)),
    ("bsce_full", (f"{TRAIN} bsce_full --ltr bsce --kr --ks --kc --alpha 0.95",)),
    ("mixed_set", (mixed_set,)),
    ("kr_aug", (f"{TRAIN} kr_aug --kr --sigma-aug 0.3",)),
    ("ks", (f"{TRAIN} ks --ks",)),
    ("ablate", (f"ablate --data {STOCK} --epochs 2 --seeds 2 --out grid",)),
    ("wide_bsce", (f"train --data {WIDE} --epochs 3 --ltr bsce --batch 256 --out wide_bsce",)),
    ("analyze", ("analyze-kl --run ce_full", "analyze-conflicts --run ce_full")),
)


def environment_key() -> str:
    """numpy's version and the build and core of the OpenBLAS that
    `trainer._openblas` finds."""
    parts = [f"numpy {np.__version__}"]
    symbol = trainer._openblas()
    for name in ("get_config", "get_corename"):
        fn = None if symbol is None else symbol(name)
        if fn is None:
            parts.append(f"no openblas_{name}")
        else:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            parts.append(fn().decode())
    return "; ".join(parts)


def _files(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def case_digests() -> dict[str, dict[str, str]]:
    """Runs every case in the current directory, which starts empty; each
    case's written files by sha256."""
    root, seen, found = Path.cwd(), {}, {}
    for name, steps in CASES:
        for step in steps:
            if callable(step):
                step()
            else:
                assert cli.main(shlex.split(step)) == 0, step
        now = _files(root)
        found[name] = {path: sha for path, sha in now.items() if seen.get(path) != sha}
        seen = now
    return found


def test_every_case_writes_its_recorded_bytes(tmp_path, monkeypatch):
    recorded = json.loads(DIGESTS.read_text())
    key = environment_key()
    if key not in recorded:
        pytest.fail(
            f"no digests recorded for this environment\n  found:    {key!r}\n"
            + "".join(f"  recorded: {k!r}\n" for k in sorted(recorded))
            + f"record one with: {RECORD}"
        )
    monkeypatch.chdir(tmp_path)
    found = case_digests()
    entry = recorded[key]
    changed = [name for name, _ in CASES if found.get(name) != entry.get(name)]
    assert not changed, f"cases whose files changed: {changed}"


def record() -> None:
    """Adds this environment's entry to the digest file, or replaces it."""
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        os.chdir(work)
        try:
            recorded[environment_key()] = case_digests()
        finally:
            os.chdir(home)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {RECORD}")
    record()
