"""Tests for repro.parallel.executors — topology is a pure wall-clock knob.

The headline guarantee of the distributed fabric: artefacts are
byte-identical across executor choice, worker count and worker
join/leave timing.  The chaos tests kill and stall file-queue workers
mid-shard and demand the stale-lease requeue path reproduce the inline
(``jobs=1``) grids bit for bit.
"""

import numpy as np
import pytest

from repro.characterization import characterize_multiplier, plan_characterization
from repro.errors import ConfigError
from repro.faults import FaultPlan, FaultSpec
from repro.parallel import spool
from repro.parallel.executors import (
    FileQueueExecutor,
    PoolExecutor,
    executors_table_markdown,
    resolve_executor,
)
from repro.parallel.jobs import EXECUTOR_CATALOG, EXECUTOR_NAMES, REPRO_EXECUTOR_ENV


def _grid_bytes(result):
    return (
        result.variance.tobytes()
        + result.mean.tobytes()
        + result.error_rate.tobytes()
    )


class TestResolveExecutor:
    def test_default_is_pool(self, monkeypatch):
        monkeypatch.delenv(REPRO_EXECUTOR_ENV, raising=False)
        assert isinstance(resolve_executor(None), PoolExecutor)

    def test_env_names_the_default(self, monkeypatch):
        monkeypatch.setenv(REPRO_EXECUTOR_ENV, "file-queue")
        assert isinstance(resolve_executor(None), FileQueueExecutor)

    @pytest.mark.parametrize("name,cls", [
        ("pool", PoolExecutor),
        ("file-queue", FileQueueExecutor),
    ])
    def test_names_resolve(self, name, cls):
        assert isinstance(resolve_executor(name), cls)

    def test_instances_pass_through(self):
        executor = FileQueueExecutor(workers=3)
        assert resolve_executor(executor) is executor

    def test_unknown_name_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown shard executor"):
            resolve_executor("redis")

    def test_catalogue_names_match_resolver(self):
        assert EXECUTOR_NAMES == ("pool", "file-queue")
        for name in EXECUTOR_NAMES:
            assert resolve_executor(name).name == name

    def test_markdown_table_lists_every_executor(self):
        table = executors_table_markdown()
        for info in EXECUTOR_CATALOG:
            assert f"`{info.name}`" in table


class TestDescriptorByteStability:
    """Satellite regression: one SweepPlan, one descriptor byte stream.

    The shard descriptors a coordinator would spool are a pure function
    of the plan — running the sweep under any executor must not perturb
    them, or distributed and local runs would disagree about the work
    itself.
    """

    def _descriptor_blob(self, device, cfg, seed):
        planned = plan_characterization(device, 8, 8, cfg, seed=seed)
        return b"".join(
            spool.canonical_json(spool.shard_descriptor(s)).encode("utf-8")
            for s in planned.shards
        )

    def test_replanning_is_byte_stable(self, device, small_char_config):
        cfg = small_char_config()
        assert (
            self._descriptor_blob(device, cfg, 11)
            == self._descriptor_blob(device, cfg, 11)
        )

    @pytest.mark.slow
    def test_descriptors_identical_under_every_executor(
        self, device, small_char_config
    ):
        cfg = small_char_config()
        blobs = set()
        for name in EXECUTOR_NAMES:
            executor = (
                FileQueueExecutor(workers=2) if name == "file-queue" else name
            )
            characterize_multiplier(
                device, 8, 8, cfg, seed=11, jobs=2, executor=executor
            )
            blobs.add(self._descriptor_blob(device, cfg, 11))
        assert len(blobs) == 1


class TestExecutorByteIdentity:
    @pytest.mark.slow
    def test_all_executors_reproduce_serial_grids(self, device, small_char_config):
        cfg = small_char_config()
        reference = characterize_multiplier(
            device, 8, 8, cfg, seed=3, jobs=1
        )
        for executor in ("pool", FileQueueExecutor(workers=2)):
            other = characterize_multiplier(
                device, 8, 8, cfg, seed=3, jobs=2, executor=executor
            )
            assert _grid_bytes(other) == _grid_bytes(reference)
            assert np.array_equal(other.freqs_mhz, reference.freqs_mhz)

    @pytest.mark.slow
    def test_worker_count_never_changes_bytes(self, device, small_char_config):
        cfg = small_char_config()
        one = characterize_multiplier(
            device, 8, 8, cfg, seed=9, executor=FileQueueExecutor(workers=1)
        )
        four = characterize_multiplier(
            device, 8, 8, cfg, seed=9, executor=FileQueueExecutor(workers=4)
        )
        assert _grid_bytes(one) == _grid_bytes(four)


class TestFileQueueChaos:
    """Kill and stall workers mid-shard; the requeue must recover bytes."""

    @pytest.mark.slow
    def test_worker_kill_mid_shard_is_requeued(self, device, small_char_config):
        cfg = small_char_config()
        reference = characterize_multiplier(
            device, 8, 8, cfg, seed=3, jobs=1
        )
        faults = FaultPlan(
            specs=(FaultSpec(kind="worker-exit", li=0, start=4, times=1),),
            seed=3,
        )
        executor = FileQueueExecutor(workers=4, lease_timeout_s=1.0)
        survived = characterize_multiplier(
            device, 8, 8, cfg, seed=3, executor=executor, faults=faults
        )
        assert executor.last_stats["requeued"] >= 1
        assert _grid_bytes(survived) == _grid_bytes(reference)
        assert survived.outcome.status == "complete"
        assert all(
            r.disposition == "completed" for r in survived.outcome.reports
        )

    @pytest.mark.slow
    def test_stalled_lease_is_requeued(self, device, small_char_config):
        cfg = small_char_config()
        reference = characterize_multiplier(
            device, 8, 8, cfg, seed=3, jobs=1
        )
        faults = FaultPlan(
            specs=(FaultSpec(kind="lease-stall", li=1, start=0, times=1),),
            seed=3,
        )
        executor = FileQueueExecutor(workers=2, lease_timeout_s=1.0)
        survived = characterize_multiplier(
            device, 8, 8, cfg, seed=3, executor=executor, faults=faults
        )
        assert executor.last_stats["requeued"] >= 1
        assert _grid_bytes(survived) == _grid_bytes(reference)
        assert survived.outcome.status == "complete"

    @pytest.mark.slow
    def test_worker_faults_are_inert_in_process(self, device, small_char_config):
        """worker-exit/lease-stall never fire outside file-queue workers."""
        cfg = small_char_config()
        faults = FaultPlan(
            specs=(FaultSpec(kind="worker-exit", li=None, start=None, times=-1),),
            seed=3,
        )
        reference = characterize_multiplier(device, 8, 8, cfg, seed=3)
        inert = characterize_multiplier(
            device, 8, 8, cfg, seed=3, jobs=1, faults=faults
        )
        assert _grid_bytes(inert) == _grid_bytes(reference)
        assert inert.outcome.status == "complete"
