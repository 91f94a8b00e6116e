#!/usr/bin/env python3
"""Baseline vs full-stack comparison on the default synthetic long-tail set.

Runs CE and BSCE with and without the three regularizers over several
seeds and prints the per-bucket accuracy deltas.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from ltreflect import artifacts, cli, trainer
from ltreflect.errors import check


def main() -> int:
    ap = cli.Parser(description=__doc__)
    ap.add_argument("--workdir", type=Path, default=Path("trend_out"))
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--epochs", type=int, default=40)
    ap.add_argument("--hidden", type=int, default=32)
    ap.add_argument("--lr", type=float, default=0.05)
    ap.add_argument("--batch", type=int, default=16)
    ap.add_argument("--sigma-aug", type=float, default=0.0)
    ap.add_argument("--alpha", type=float, default=0.95)
    ap.add_argument("--tau", type=float, default=2.0)
    args = ap.parse_args()
    # every flag is checked before anything is written
    check([("--seeds", ">= 1", args.seeds >= 1, args.seeds)])
    base = trainer.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        lr=args.lr,
        sigma_aug=args.sigma_aug,
        alpha=args.alpha,
        tau=args.tau,
        hidden_dim=args.hidden,
    )

    args.workdir.mkdir(parents=True, exist_ok=True)
    data_path = args.workdir / "default.ltds"
    if not data_path.exists():
        if code := cli.main(["synth", "--seed", "0", "--out", str(data_path)]):
            return code

    variants = {
        "ce": replace(base, ltr_loss="ce"),
        "ce+rl": replace(base, ltr_loss="ce", use_kr=True, use_ks=True, use_kc=True),
        "bsce": replace(base, ltr_loss="bsce"),
        "bsce+rl": replace(base, ltr_loss="bsce", use_kr=True, use_ks=True, use_kc=True),
    }

    seeds = range(args.seeds)
    runs = [(replace(cfg, seed=s), args.workdir / name.replace("+", "_") / f"seed{s}")
            for name, cfg in variants.items() for s in seeds]
    summaries = iter(trainer.run_set(runs, data_path))
    results = {name: artifacts.mean_finals([next(summaries)["final"] for _ in seeds])
               for name in variants}

    header = f"{'variant':10s} {'all':>8s} {'many':>8s} {'medium':>8s} {'few':>8s}"
    print(header)
    for name, accs in results.items():
        print(
            f"{name:10s} {accs['acc_all']:8.4f} {accs['acc_many']:8.4f} "
            f"{accs['acc_medium']:8.4f} {accs['acc_few']:8.4f}"
        )
    for pair in (("ce", "ce+rl"), ("bsce", "bsce+rl")):
        d_all = results[pair[1]]["acc_all"] - results[pair[0]]["acc_all"]
        d_few = results[pair[1]]["acc_few"] - results[pair[0]]["acc_few"]
        print(f"{pair[1]} vs {pair[0]}: d_all={d_all:+.4f} d_few={d_few:+.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(cli.exit_code(main))
