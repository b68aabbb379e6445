#!/usr/bin/env python
"""Inside Algorithm 1: watching the design-space exploration work.

Runs the optimisation framework twice (weak and strong prior) and opens up
the exploration record: per-dimension candidate clouds, the surviving
Pareto points, the per-word-length sampling cost that the paper's run-time
model (eqs. 7-8) predicts, and how beta changes what the sampler is
willing to touch.

    python examples/design_space_exploration.py [--scale 0.05]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import OptimizationFramework, TableISettings, make_device
from repro.datasets import low_rank_gaussian
from repro.eval.report import render_table
from repro.models.runtime import RuntimeModel


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--serial", type=int, default=42)
    args = parser.parse_args()

    settings = TableISettings().scaled(args.scale)
    device = make_device(args.serial)
    fw = OptimizationFramework(device, settings, seed=args.serial)
    x = low_rank_gaussian(settings.p, settings.k, settings.n_train,
                          np.random.default_rng(0), noise=0.02)

    print(f"exploring {len(settings.coeff_wordlengths)} word-lengths x "
          f"{settings.k} dimensions with Q={settings.q} survivors "
          f"(beta in {{0.5, 4.0}}) ...")
    weak = fw.optimize(x, beta=0.5)
    strong = fw.optimize(x, beta=4.0)

    # --- candidate clouds per dimension --------------------------------
    for d, hist in enumerate(strong.candidate_history, start=1):
        areas = [a for a, _ in hist]
        objs = [t for _, t in hist]
        print(f"\ndimension {d}: {len(hist)} candidates, area "
              f"{min(areas):.0f}-{max(areas):.0f} LE, objective "
              f"{min(objs):.2e}-{max(objs):.2e}")

    # --- final Pareto designs per beta ----------------------------------
    rows = []
    for name, res in (("beta=0.5", weak), ("beta=4.0", strong)):
        for dsg in sorted(res.designs, key=lambda d: d.area_le):
            rows.append(
                (
                    name,
                    str(dsg.wordlengths),
                    f"{dsg.area_le:.0f}",
                    dsg.metadata["train_mse"],
                    dsg.metadata["overclocking_term"],
                )
            )
    print()
    print(render_table(
        ["run", "wordlengths", "area LE", "train MSE", "predicted OC term"],
        rows,
        title="Final Pareto designs",
    ))

    # --- run-time record vs the paper's model ---------------------------
    by_wl: dict[int, list[float]] = {}
    for _, wl, sec in strong.sampling_times:
        by_wl.setdefault(wl, []).append(sec)
    measured = {wl: float(np.mean(v)) for wl, v in sorted(by_wl.items())}
    fitted = RuntimeModel.fit(list(measured), list(measured.values()))
    print()
    print(render_table(
        ["wordlength", "mean sampling seconds"],
        sorted(measured.items()),
        title="Per-word-length sampling cost (paper eq. 8 territory)",
    ))
    print(f"fitted R(wl) = {fitted.scale:.4g} * exp({fitted.rate:.3f} * wl); "
          f"paper's silicon-era constants: 0.4266 * exp(0.6427 * wl)")
    print(f"total sampling time: beta=0.5 {weak.total_sampling_seconds:.1f}s, "
          f"beta=4.0 {strong.total_sampling_seconds:.1f}s over "
          f"{len(strong.sampling_times)} vector samplings "
          f"(eq. 7 structure: {len(settings.coeff_wordlengths)} wl x "
          f"(1 + {settings.q}({settings.k}-1)))")


if __name__ == "__main__":
    main()
