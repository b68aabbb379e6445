"""Tests for repro.models.area_model."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.models.area_model import (
    AreaSample,
    _t_quantile,
    collect_area_samples,
    fit_area_model,
)


@pytest.fixture(scope="module")
def samples(device):
    return collect_area_samples(device, (3, 5, 7, 9), w_data=9, n_runs=4, seed=0)


@pytest.fixture(scope="module")
def model(samples):
    return fit_area_model(samples)


class TestCollection:
    def test_sample_count(self, samples):
        assert len(samples) == 4 * 4

    def test_area_grows_with_wordlength(self, samples):
        by_wl = {}
        for s in samples:
            by_wl.setdefault(s.wordlength, []).append(s.logic_elements)
        means = [np.mean(by_wl[wl]) for wl in (3, 5, 7, 9)]
        assert means == sorted(means)

    def test_runs_scatter(self, samples):
        """Paper Fig. 6: repeated synthesis runs scatter around the trend."""
        by_wl = {}
        for s in samples:
            by_wl.setdefault(s.wordlength, set()).add(s.logic_elements)
        assert any(len(v) > 1 for v in by_wl.values())

    def test_invalid_args_rejected(self, device):
        with pytest.raises(ModelError):
            collect_area_samples(device, (), n_runs=2)
        with pytest.raises(ModelError):
            collect_area_samples(device, (3,), n_runs=0)


class TestFit:
    def test_prediction_tracks_observations(self, model, samples):
        for s in samples:
            rel = abs(float(model.predict(s.wordlength)) - s.logic_elements)
            assert rel < 0.25 * s.logic_elements + 20

    def test_confidence_interval_brackets_prediction(self, model):
        lo, hi = model.confidence_interval(5)
        mid = float(model.predict(5))
        assert lo < mid < hi

    def test_coverage_about_95_percent(self, model, samples):
        hits = sum(
            model.within_interval(s.wordlength, s.logic_elements) for s in samples
        )
        assert hits / len(samples) >= 0.8

    def test_strict_range_enforced(self, model):
        with pytest.raises(ModelError):
            model.predict(15, strict=True)

    def test_too_few_samples_rejected(self):
        tiny = [AreaSample(3, 100, 0, (0, 0)), AreaSample(4, 120, 0, (0, 0))]
        with pytest.raises(ModelError):
            fit_area_model(tiny, degree=2)

    def test_insufficient_distinct_wordlengths_rejected(self):
        flat = [AreaSample(3, 100 + i, i, (0, 0)) for i in range(6)]
        with pytest.raises(ModelError):
            fit_area_model(flat, degree=2)

    def test_design_area_scales_with_k(self, model):
        assert model.design_area(5, 3) == pytest.approx(3 * float(model.predict(5)))
        assert model.design_area(5, 3, overhead_le=40) == pytest.approx(
            3 * float(model.predict(5)) + 40
        )

    def test_design_area_invalid_k(self, model):
        with pytest.raises(ModelError):
            model.design_area(5, 0)


class TestStudentT:
    def test_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        dofs = np.arange(1, 501)
        ours = [_t_quantile(0.975, int(dof)) for dof in dofs]
        np.testing.assert_allclose(ours, stats.t.ppf(0.975, dofs), rtol=1e-12, atol=0)

    def test_closed_forms(self):
        assert _t_quantile(0.975, 1) == pytest.approx(12.706204736174694, rel=1e-14)
        assert _t_quantile(0.975, 2) == pytest.approx(4.302652729749462, rel=1e-14)

    def test_fig9_verdicts_unchanged(self, model, samples):
        """Fig. 9 on this fixture, as recorded with ``scipy.stats.t.ppf``."""
        assert model.n_samples - len(model.coeffs) == 13
        assert model._t95 == pytest.approx(2.1603686564627913, rel=1e-12)
        verdicts = [model.within_interval(s.wordlength, s.logic_elements) for s in samples]
        assert verdicts == [True] * 16
