"""Tests for repro.eval.context — the shared experiment context."""

import numpy as np

from repro.eval.context import ExperimentContext


class TestCaching:
    def test_same_key_same_instance(self):
        a = ExperimentContext.get(seed=7, scale=0.01)
        b = ExperimentContext.get(seed=7, scale=0.01)
        assert a is b

    def test_different_scale_different_instance(self):
        a = ExperimentContext.get(seed=7, scale=0.01)
        b = ExperimentContext.get(seed=7, scale=0.011)
        assert a is not b

    def test_device_serial_defaults_to_seed(self):
        ctx = ExperimentContext.get(seed=9, scale=0.01)
        assert ctx.device.serial == 9

    def test_explicit_device_serial(self):
        ctx = ExperimentContext.get(seed=9, scale=0.01, device_serial=123)
        assert ctx.device.serial == 123


class TestData:
    def test_train_test_split_sizes(self):
        ctx = ExperimentContext.get(seed=7, scale=0.01)
        assert ctx.x_train.shape == (ctx.settings.p, ctx.settings.n_train)
        assert ctx.x_test.shape == (ctx.settings.p, ctx.settings.n_test)

    def test_data_in_unit_range(self):
        ctx = ExperimentContext.get(seed=7, scale=0.01)
        assert np.abs(ctx.x_train).max() <= 1.0
        assert np.abs(ctx.x_test).max() <= 1.0


class TestLazyResults:
    def test_of_result_cached_per_beta(self):
        ctx = ExperimentContext.get(seed=8, scale=0.01)
        a = ctx.of_result(beta=4.0)
        b = ctx.of_result(beta=4.0)
        assert a is b

    def test_default_beta_is_first_table_entry(self):
        ctx = ExperimentContext.get(seed=8, scale=0.01)
        assert ctx.of_result().beta == ctx.settings.betas[0]

    def test_klt_designs_cached(self):
        ctx = ExperimentContext.get(seed=8, scale=0.01)
        assert ctx.klt_designs() is ctx.klt_designs()
