"""Ablation: per-device specificity — deploy a design on the wrong die.

The whole premise of the paper is that characterisation is *device
specific*.  This bench optimises designs against die A's error models and
evaluates them on die A and on die B (same family, different fabrication
outcome), against designs optimised for die B natively.

Expected shape: designs carry over reasonably (the family's gross
behaviour is shared) but the native optimisation is never worse — the
benefit of re-characterising each deployed device, which reconfigurability
makes cheap (paper Secs. I-II).
"""

import numpy as np

from repro.circuits.domains import Domain
from repro.config import TableISettings
from repro.eval.report import render_table
from repro.fabric import make_device
from repro.framework import OptimizationFramework, train_test_split

from .conftest import run_once


def test_designs_are_device_specific(ctx, benchmark):
    settings = TableISettings(
        n_characterization=max(150, ctx.settings.n_characterization),
        n_train=ctx.settings.n_train,
        n_test=ctx.settings.n_test,
        burn_in=ctx.settings.burn_in,
        n_samples=ctx.settings.n_samples,
        q=3,
        clock_frequency_mhz=345.0,  # deep enough that device details matter
    )

    def run():
        dev_a = make_device(5001)
        dev_b = make_device(5002)
        # Default characterisation: two pooled locations, as the paper
        # does (Sec. III-C).
        fw_a = OptimizationFramework(dev_a, settings, seed=1)
        fw_b = OptimizationFramework(dev_b, settings, seed=1)
        x_train, x_test = train_test_split(settings, seed=0)

        best_a = min(
            fw_a.optimize(x_train, beta=4.0).designs,
            key=lambda d: d.metadata["objective_t"],
        )
        best_b = min(
            fw_b.optimize(x_train, beta=4.0).designs,
            key=lambda d: d.metadata["objective_t"],
        )
        from repro.core.objective import objective_t

        models_b = fw_b.characterize()
        return {
            "a_on_a": fw_a.evaluate(best_a, x_test, Domain.ACTUAL).mse,
            "a_on_b": fw_b.evaluate(best_a, x_test, Domain.ACTUAL).mse,
            "b_on_b": fw_b.evaluate(best_b, x_test, Domain.ACTUAL).mse,
            # The criterion each optimiser actually controls: die B's own
            # predicted objective T for both designs.
            "pred_b_native": objective_t(best_b, x_train, models_b)["objective_t"],
            "pred_b_imported": objective_t(best_a, x_train, models_b)["objective_t"],
            "design_a": best_a.wordlengths,
            "design_b": best_b.wordlengths,
            "models_differ": not np.allclose(
                fw_a.characterize().model(9).variance,
                models_b.model(9).variance,
            ),
        }

    r = run_once(benchmark, run)

    print()
    print(
        render_table(
            ["deployment", "actual MSE"],
            [
                (f"A-optimised {r['design_a']} on die A", r["a_on_a"]),
                (f"A-optimised {r['design_a']} on die B", r["a_on_b"]),
                (f"B-optimised {r['design_b']} on die B", r["b_on_b"]),
            ],
            title="Ablation: cross-device deployment @ 345 MHz",
        )
    )
    print(
        f"die B's own predicted T: native {r['pred_b_native']:.3e} vs "
        f"imported {r['pred_b_imported']:.3e}"
    )

    # The two dies genuinely have different error landscapes.
    assert r["models_differ"]
    # On die B's own risk-adjusted criterion (what the per-device
    # optimisation controls), the native design is at least as good as the
    # imported one — an imported design may still get lucky on one
    # particular test stream, which is exactly why the paper optimises
    # against the characterised expectation rather than a single run.
    assert r["pred_b_native"] <= r["pred_b_imported"] * 1.05
    # All deployments remain sane (no catastrophic failure either way —
    # the dies share the family's gross behaviour).
    assert r["a_on_b"] < 100 * r["a_on_a"] + 1e-3
    assert r["b_on_b"] < 100 * r["a_on_a"] + 1e-3
