#!/usr/bin/env python3
"""Prediction-churn and gradient-conflict diagnostics.

Trains plain CE and CE+review runs under view augmentation, then reports
(a) the rank correlation between per-class adjacent-epoch divergence and
class rarity, (b) how much the review loss shrinks that divergence, and
(c) the per-epoch conflict-fraction profile of a KR+KS run.
"""

from __future__ import annotations

import argparse
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np

from ltreflect import artifacts, cli, trainer


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", type=Path, default=Path("diag_out"))
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--sigma-aug", type=float, default=0.3)
    args = ap.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    data_path = args.workdir / "default.ltds"
    if not data_path.exists():
        cli.main(shlex.split(f"synth --seed 0 --out {data_path}"))

    base = trainer.TrainConfig(sigma_aug=args.sigma_aug)

    def run_dir(name, seed):
        return args.workdir / name / f"seed{seed}"

    arms = {"ce": {}, "kr": {"use_kr": True}, "krks": {"use_kr": True, "use_ks": True}}
    seeds = range(args.seeds)
    trainer.run_set([(replace(base, seed=s, **kw), run_dir(name, s))
                     for name, kw in arms.items() for s in seeds], data_path)
    ce_tables = [artifacts.class_kl_table(run_dir("ce", s)) for s in seeds]
    kr_tables = [artifacts.class_kl_table(run_dir("kr", s)) for s in seeds]
    conflict = [artifacts.metric_column(run_dir("krks", s), "conflict_fraction") for s in seeds]

    ce, kr = artifacts.kl_summary(ce_tables), artifacts.kl_summary(kr_tables)
    cf = np.mean(np.stack(conflict), axis=0)

    print(f"adjacent-epoch KL vs rarity rank: spearman {ce['spearman_rarity']:.3f} "
          f"(p={ce['spearman_pvalue']:.2g})")
    print("per-class mean KL:", " ".join(f"{v:.4f}" for v in ce["per_class_mean_kl"]))
    print(f"mean KL: ce {ce['mean_kl']:.4f} -> +review {kr['mean_kl']:.4f}")
    print(f"conflict fraction (KR+KS, no correction): mean {cf.mean():.3f}, "
          f"nonzero in {(cf > 0).mean():.0%} of epochs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
