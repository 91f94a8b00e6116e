"""Command-line front end.

Commands: synth (write a long-tail dataset pair), train (one run),
ablate (2^3 component grid), analyze-kl / analyze-conflicts (post-hoc
summaries of a run directory). Exit codes: 0 success, 2 usage error,
1 runtime error. Every run echoes its fully resolved flag line, which can
be fed back verbatim to reproduce the run.
"""

from __future__ import annotations

import argparse
import shlex
import sys
from pathlib import Path

import numpy as np

from . import artifacts, data, trainer
from .errors import DimensionError, FormatError, NumericError, ParameterError, StateError, check


# The `synth` flags but --out: (flag, dest, type, default, help), in the
# order cmd_synth echoes them.
SYNTH_FLAGS = (
    ("--classes", "classes", int, 20, None),
    ("--dim", "dim", int, 32, None),
    ("--n-max", "n_max", int, 200, "largest class count"),
    ("--if", "imbalance_factor", float, 100.0, "imbalance factor n_max/n_min"),
    ("--class-sep", "class_sep", float, 3.0, None),
    ("--noise", "noise", float, 1.0, None),
    ("--pairs", "pairs", int, 4,
     "number of head/tail pairs with overlapping centers; "
     "pair i couples head class i with the mid-tail class C//2+i, "
     "placing the paired tails inside the few-shot bucket"),
    ("--overlap", "overlap", float, 0.8, None),
    ("--seed", "seed", int, 0, None),
    ("--test-size", "test_size", int, 50, "balanced test samples per class"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltreflect",
        description="Long-tail training engine with review/summary/correction regularizers.",
    )
    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser("synth", help="synthesize a long-tail train set and balanced test set")
    for flag, dest, kind, default, help_text in SYNTH_FLAGS:
        p.add_argument(flag, dest=dest, type=kind, default=default, help=help_text)
    p.add_argument("--out", required=True, help="train file path; test split goes to <stem>.test<ext>")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one configuration")
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablate", help="run the 2^3 {KR,KS,KC} component grid")
    _add_train_flags(p, components=False)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=int, default=1, help="number of seeds per cell (base --seed, consecutive)")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("analyze-kl", help="summarize the per-class divergence series of a run")
    p.add_argument("--run", required=True, help="run directory holding class_kl.csv")
    p.add_argument("--out", default=None, help="output JSON (default <run>/kl_analysis.json)")
    p.set_defaults(func=cmd_analyze_kl)

    p = sub.add_parser("analyze-conflicts", help="summarize the conflict series of a run")
    p.add_argument("--run", required=True, help="run directory holding conflicts.csv")
    p.add_argument("--out", default=None, help="output JSON (default <run>/conflict_analysis.json)")
    p.set_defaults(func=cmd_analyze_conflicts)

    return parser


def _add_train_flags(p: argparse.ArgumentParser, components: bool = True) -> None:
    """--data, --test-data and the TRAIN_FLAGS; bool switches only with `components`."""
    defaults = trainer.TrainConfig()
    p.add_argument("--data", required=True, help="train dataset file")
    p.add_argument("--test-data", default=None, help="test dataset file (default: <data stem>.test<ext>)")
    for flag, name, kind, help_text in trainer.TRAIN_FLAGS:
        if kind is bool:
            if components:
                p.add_argument(flag, action="store_true", help=help_text)
        else:
            p.add_argument(flag, type=kind, default=getattr(defaults, name), help=help_text)


def _config_from_args(args) -> trainer.TrainConfig:
    """TrainConfig from the parsed TRAIN_FLAGS; flags the parser lacks keep their defaults."""
    values = vars(args)
    dests = {name: flag[2:].replace("-", "_") for flag, name, _, _ in trainer.TRAIN_FLAGS}
    return trainer.TrainConfig(**{name: values[d] for name, d in dests.items() if d in values})


def cmd_synth(args) -> int:
    dests = {flag: dest for flag, dest, *_ in SYNTH_FLAGS}
    u32_max = np.iinfo(np.uint32).max  # the file header stores N, D and C as u32
    rules = [("--seed", ">= 0", args.seed >= 0), ("--class-sep", "finite", np.isfinite(args.class_sep))]
    rules += [(flag, f"<= {u32_max}", getattr(args, dests[flag]) <= u32_max)
              for flag in ("--classes", "--dim", "--n-max", "--test-size")]
    rules += [
        ("--classes", ">= 2", args.classes >= 2),
        ("--if", ">= 1", args.imbalance_factor >= 1),
        ("--n-max", f">= --if ({args.imbalance_factor!r}) so the smallest class keeps a sample",
         args.n_max >= args.imbalance_factor),
        ("--test-size", ">= 1", args.test_size >= 1),
        ("--noise", "finite and >= 0", 0 <= args.noise < np.inf),
        ("--pairs", f"in [0, {args.classes // 2}]", 0 <= args.pairs <= args.classes // 2),
        ("--overlap", "in [0, 1]", 0 <= args.overlap <= 1),
        ("--dim", ">= 2", args.dim >= 2),  # unit-norm centers in one dim are only +-class_sep
    ]
    check((flag, rule, ok, getattr(args, dests[flag])) for flag, rule, ok in rules)
    counts = data.longtail_counts(args.classes, args.n_max, args.imbalance_factor)
    pairs = [(i, args.classes // 2 + i, args.overlap) for i in range(args.pairs)]
    out = Path(args.out)
    test_out = trainer.default_test_path(out)
    trainer.check_target(out, "dataset file")
    trainer.check_target(test_out, "test dataset file")
    train = data.synth_gaussians(
        args.classes, args.dim, counts,
        class_sep=args.class_sep, noise_sigma=args.noise,
        similarity_pairs=pairs, seed=args.seed,
    )
    test = data.synth_gaussians(
        args.classes, args.dim, np.full(args.classes, args.test_size, dtype=np.int64),
        class_sep=args.class_sep, noise_sigma=args.noise,
        similarity_pairs=pairs, seed=args.seed, noise_seed=args.seed + 1,
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    data.save_dataset(train, out)
    data.save_dataset(test, test_out)
    words = ["synth"]
    for flag, dest, kind, _, _ in SYNTH_FLAGS:
        value = getattr(args, dest)
        words += [flag, repr(value) if kind is float else str(value)]
    print(shlex.join([*words, "--out", str(out)]))
    print(
        f"wrote {out} ({train.num_samples} samples, counts {counts[0]}..{counts[-1]}) "
        f"and {test_out} ({test.num_samples} samples)"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    summary = trainer.run_experiment(cfg, args.data, args.out, test_path=args.test_data)
    print(summary["echo"])
    final = summary["final"]
    print(
        f"final: acc_all={final['acc_all']:.4f} acc_many={final['acc_many']:.4f} "
        f"acc_medium={final['acc_medium']:.4f} acc_few={final['acc_few']:.4f}"
    )
    return 0


def cmd_ablate(args) -> int:
    check([("--seeds", ">= 1", args.seeds >= 1, args.seeds)])
    base = _config_from_args(args)
    seeds = [base.seed + i for i in range(args.seeds)]
    rows = trainer.run_ablation_grid(
        base, args.data, args.out, seeds, test_path=args.test_data
    )
    for row in rows:
        print(
            f"kr={row['kr']} ks={row['ks']} kc={row['kc']} "
            f"acc_all={row['mean_acc_all']:.4f} acc_few={row['mean_acc_few']:.4f}"
        )
    return 0


def _analyze(args, default_name: str, summarize) -> tuple[Path, dict]:
    """Writes `summarize(--run)` as JSON to --out, else <run>/default_name,
    making the target's parent directory; it never writes over a `trainer.RUN_FILES` file."""
    payload = summarize(args.run)
    out = Path(args.out or Path(args.run, default_name))
    if out.resolve() in {Path(args.run, name).resolve() for name in trainer.RUN_FILES}:
        raise OSError(f"output file {out} is a file of run directory {args.run}")
    trainer.check_target(out, "output file")
    out.parent.mkdir(parents=True, exist_ok=True)
    artifacts.write_json(out, payload)
    return out, payload


def cmd_analyze_kl(args) -> int:
    out, payload = _analyze(args, "kl_analysis.json",
                            lambda run: artifacts.kl_summary([artifacts.class_kl_table(run)]))
    print(
        f"mean adjacent-epoch KL {payload['mean_kl']:.5f}, "
        f"rarity-rank spearman {payload['spearman_rarity']:.3f} -> {out}"
    )
    return 0


def cmd_analyze_conflicts(args) -> int:
    out, payload = _analyze(args, "conflict_analysis.json", artifacts.conflict_summary)
    print(
        f"conflict fraction mean {payload['fraction_mean']:.3f}, "
        f"nonzero in {payload['fraction_nonzero_share']:.0%} of epochs -> {out}"
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "cmd", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DimensionError, FormatError, StateError, NumericError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
