"""Wire-level behaviour: ops, backpressure, deterministic ids, progress.

Everything here runs over the real socket through the thin client — the
same path a deployment uses — against throwaway servers with tiny quota
settings, so the 429 semantics and scheduling behaviour are observed
end to end rather than unit-faked.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, JobRejectedError, ServeError
from repro.serve import (
    CANCELLED,
    DONE,
    FAILED,
    REASON_QUEUE_FULL,
    REASON_TENANT_QUOTA,
    RUNNING,
    ServeSettings,
)

from .conftest import SLOW, make_workspace, wait_for


class TestBasicOps:
    def test_ping_and_unknown_ops(self, serve_factory):
        _, client = serve_factory()
        assert client.ping()["ok"] is True
        response = client.request({"op": "bogus"})
        assert response["ok"] is False
        assert "unknown op" in response["error"]
        response = client.request({"op": "status", "job_id": "nope"})
        assert response["ok"] is False
        assert "unknown job id" in response["error"]

    def test_submit_validation_is_a_serve_error_not_a_rejection(
        self, serve_factory
    ):
        _, client = serve_factory()
        with pytest.raises(ServeError) as err:
            client.submit("tenant-a", "bogus-kind", "/nowhere")
        assert not isinstance(err.value, JobRejectedError)

    def test_missing_workspace_fails_with_exit_2(self, tmp_path, serve_factory):
        _, client = serve_factory()
        job = client.submit("tenant-a", "characterize", tmp_path / "nowhere")
        done = client.wait(job["job_id"], timeout_s=30.0)
        assert done["state"] == FAILED
        assert done["exit_code"] == 2
        assert "initialise" in done["error"]

    def test_optimize_before_characterize_fails_with_exit_2(
        self, tmp_path, serve_factory
    ):
        _, client = serve_factory()
        ws = make_workspace(tmp_path / "ws")
        job = client.submit("tenant-a", "optimize", ws.root)
        done = client.wait(job["job_id"], timeout_s=30.0)
        assert done["state"] == FAILED
        assert done["exit_code"] == 2
        assert "no characterisation for word-lengths" in done["error"]
        assert ws.design_sets() == []

    def test_progress_streams_stage_events(self, tmp_path, serve_factory):
        _, client = serve_factory()
        ws = make_workspace(tmp_path / "ws")
        job = client.submit("tenant-a", "characterize", ws.root)
        client.wait(job["job_id"], timeout_s=120.0)
        stream = client.progress(job["job_id"])
        events = stream["events"]
        assert events[0]["event"] == "wordlength.start"
        assert events[-1]["event"] == "wordlength.done"
        assert stream["finished"] is True
        # Incremental reads: `since` skips what was already consumed.
        tail = client.progress(job["job_id"], since=len(events))
        assert tail["events"] == []

    def test_status_and_result_lifecycle(self, tmp_path, serve_factory):
        _, client = serve_factory()
        ws = make_workspace(tmp_path / "ws")
        job = client.submit("tenant-a", "characterize", ws.root)
        premature = client.result(job["job_id"])
        if not premature["ok"]:  # still queued/running: result refuses
            assert "not finished" in premature["error"]
        done = client.wait(job["job_id"], timeout_s=120.0)
        assert done["state"] == DONE
        status = client.status(job["job_id"])
        assert status["finished"] is True
        assert status["tenant"] == "tenant-a"
        assert status["n_progress"] >= 2

    def test_wait_timeout_reports_current_state(self, tmp_path, serve_factory):
        _, client = serve_factory()
        ws = make_workspace(tmp_path / "ws", settings=SLOW)
        job = client.submit("tenant-a", "characterize", ws.root)
        with pytest.raises(ServeError, match="timeout"):
            client.wait(job["job_id"], timeout_s=0.05)
        assert client.wait(job["job_id"], timeout_s=300.0)["state"] == DONE


class TestBackpressure:
    def test_quota_then_capacity_rejections(self, tmp_path, serve_factory):
        settings = ServeSettings(
            max_workers=1, queue_limit=1, tenant_queue_limit=1,
            tenant_running_limit=1,
        )
        _, client = serve_factory(settings=settings)
        slow_ws = make_workspace(tmp_path / "slow", settings=SLOW)
        tiny_ws = make_workspace(tmp_path / "tiny")

        running = client.submit("tenant-a", "characterize", slow_ws.root)
        assert wait_for(
            lambda: client.status(running["job_id"])["state"] == RUNNING
        )
        queued = client.submit("tenant-a", "characterize", tiny_ws.root)

        # tenant-a already holds its one queue slot: tenant quota first.
        with pytest.raises(JobRejectedError) as quota:
            client.submit("tenant-a", "characterize", tiny_ws.root)
        assert quota.value.reason == REASON_TENANT_QUOTA
        assert quota.value.http_status == 429
        # Another tenant sees the global limit instead.
        with pytest.raises(JobRejectedError) as full:
            client.submit("tenant-b", "characterize", tiny_ws.root)
        assert full.value.reason == REASON_QUEUE_FULL
        assert full.value.http_status == 429

        # Backpressure is advisory: cancel the queued job and the same
        # submission is admitted again.
        assert client.cancel(queued["job_id"])["state"] == CANCELLED
        retry = client.submit("tenant-b", "characterize", tiny_ws.root)
        client.cancel(running["job_id"])
        assert client.wait(retry["job_id"], timeout_s=300.0)["state"] == DONE

    def test_stats_expose_policy_and_cache(self, serve_factory):
        settings = ServeSettings(
            max_workers=3, queue_limit=9, tenant_queue_limit=4,
            tenant_running_limit=2,
        )
        _, client = serve_factory(settings=settings)
        stats = client.stats()
        assert stats["settings"] == {
            "max_workers": 3, "queue_limit": 9,
            "tenant_queue_limit": 4, "tenant_running_limit": 2,
        }
        assert stats["queue_depth"] == 0
        assert stats["active"] == 0
        assert "sanitizer_violations" in stats["cache"]


class TestDeterministicIds:
    def test_same_submissions_same_ids_across_servers(
        self, tmp_path, serve_factory
    ):
        submissions = [
            ("tenant-a", "characterize", tmp_path / "nowhere1", {}),
            ("tenant-b", "characterize", tmp_path / "nowhere2", {"jobs": 2}),
            ("tenant-a", "fit_area", tmp_path / "nowhere1", {}),
        ]
        ids = []
        for _ in range(2):
            _, client = serve_factory()
            ids.append([
                client.submit(tenant, kind, ws, params=params)["job_id"]
                for tenant, kind, ws, params in submissions
            ])
        assert ids[0] == ids[1]
        assert len(set(ids[0])) == len(submissions)


class TestSettings:
    def test_from_env_and_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "5")
        monkeypatch.setenv("REPRO_SERVE_QUEUE_LIMIT", "11")
        settings = ServeSettings.from_env()
        assert settings.max_workers == 5
        assert settings.queue_limit == 11
        with pytest.raises(ConfigError):
            ServeSettings(max_workers=0)
        with pytest.raises(ConfigError):
            ServeSettings(queue_limit=-1)
