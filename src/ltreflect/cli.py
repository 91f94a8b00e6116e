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
from .errors import DimensionError, FormatError, NumericError, ParameterError, StateError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltreflect",
        description="Long-tail training engine with review/summary/correction regularizers.",
    )
    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser("synth", help="synthesize a long-tail train set and balanced test set")
    p.add_argument("--classes", type=int, default=20)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--n-max", type=int, default=200, help="largest class count")
    p.add_argument("--if", dest="imbalance_factor", type=float, default=100.0,
                   help="imbalance factor n_max/n_min")
    p.add_argument("--class-sep", type=float, default=3.0)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--pairs", type=int, default=4,
                   help="number of head/tail pairs with overlapping centers; "
                        "pair i couples head class i with the mid-tail class C//2+i, "
                        "placing the paired tails inside the few-shot bucket")
    p.add_argument("--overlap", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-size", type=int, default=50, help="balanced test samples per class")
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
            choices = trainer.LTR_LOSSES if name == "ltr_loss" else None
            p.add_argument(flag, type=kind, choices=choices, default=getattr(defaults, name), help=help_text)


def _config_from_args(args) -> trainer.TrainConfig:
    """TrainConfig from the parsed TRAIN_FLAGS; flags the parser lacks keep their defaults."""
    values = vars(args)
    dests = {name: flag[2:].replace("-", "_") for flag, name, _, _ in trainer.TRAIN_FLAGS}
    return trainer.TrainConfig(**{name: values[d] for name, d in dests.items() if d in values})


def cmd_synth(args) -> int:
    if args.seed < 0:
        raise ParameterError(f"--seed must be >= 0, got {args.seed}")
    if not np.isfinite(args.class_sep):
        raise ParameterError(f"--class-sep must be finite, got {args.class_sep}")
    u32_max = np.iinfo(np.uint32).max  # the file header stores N, D and C as u32
    for flag, value in (("--classes", args.classes), ("--dim", args.dim),
                        ("--n-max", args.n_max), ("--test-size", args.test_size)):
        if value > u32_max:
            raise ParameterError(f"{flag} must be <= {u32_max}, got {value}")
    counts = data.longtail_counts(args.classes, args.n_max, args.imbalance_factor)
    if args.test_size < 1:
        raise ParameterError(f"--test-size must be >= 1, got {args.test_size}")
    if not 0 <= args.noise < np.inf:
        raise ParameterError(f"--noise must be finite and >= 0, got {args.noise}")
    if args.pairs < 0 or 2 * args.pairs > args.classes:
        raise ParameterError(f"--pairs must be in [0, {args.classes // 2}]")
    if not 0 <= args.overlap <= 1:
        raise ParameterError(f"--overlap must be in [0, 1], got {args.overlap}")
    pairs = [(i, args.classes // 2 + i, args.overlap) for i in range(args.pairs)]
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
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    test_out = trainer.default_test_path(out)
    data.save_dataset(train, out)
    data.save_dataset(test, test_out)
    echo = shlex.join(
        [
            "synth",
            "--classes", str(args.classes),
            "--dim", str(args.dim),
            "--n-max", str(args.n_max),
            "--if", repr(args.imbalance_factor),
            "--class-sep", repr(args.class_sep),
            "--noise", repr(args.noise),
            "--pairs", str(args.pairs),
            "--overlap", repr(args.overlap),
            "--seed", str(args.seed),
            "--test-size", str(args.test_size),
            "--out", str(out),
        ]
    )
    print(echo)
    print(
        f"wrote {out} ({train.num_samples} samples, counts {counts[0]}..{counts[-1]}) "
        f"and {test_out} ({test.num_samples} samples)"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    print(trainer.train_echo(cfg, args.data, args.out, args.test_data))
    summary = trainer.run_experiment(cfg, args.data, args.out, test_path=args.test_data)
    final = summary["final"]
    print(
        f"final: acc_all={final['acc_all']:.4f} acc_many={final['acc_many']:.4f} "
        f"acc_medium={final['acc_medium']:.4f} acc_few={final['acc_few']:.4f}"
    )
    return 0


def cmd_ablate(args) -> int:
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


def cmd_analyze_kl(args) -> int:
    payload = artifacts.kl_summary([artifacts.class_kl_table(args.run)])
    out = Path(args.out or Path(args.run, "kl_analysis.json"))
    artifacts.write_json(out, payload)
    print(
        f"mean adjacent-epoch KL {payload['mean_kl']:.5f}, "
        f"rarity-rank spearman {payload['spearman_rarity']:.3f} -> {out}"
    )
    return 0


def cmd_analyze_conflicts(args) -> int:
    payload = artifacts.conflict_summary(args.run)
    out = Path(args.out or Path(args.run, "conflict_analysis.json"))
    artifacts.write_json(out, payload)
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
