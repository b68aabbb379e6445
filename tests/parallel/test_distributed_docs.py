"""The generated tables in docs/distributed.md are generated; keep it so.

Same contract as tests/obs/test_docs_drift.py: each block between
``<name>:begin`` / ``<name>:end`` markers must byte-match (modulo
surrounding whitespace) the markdown renderer it names, and the prose
around the tables must keep naming the operator surfaces it documents.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.parallel.executors import executors_table_markdown
from repro.parallel.jobs import EXECUTOR_NAMES
from repro.parallel.spool import (
    SPOOL_LAYOUT,
    descriptor_fields_markdown,
    spool_layout_markdown,
)

DOCS = Path(__file__).resolve().parents[2] / "docs"
DOC = DOCS / "distributed.md"

GENERATED_BLOCKS = {
    "executors-table": executors_table_markdown,
    "spool-layout": spool_layout_markdown,
    "descriptor-fields": descriptor_fields_markdown,
}


def _doc_block(name: str) -> str:
    text = DOC.read_text()
    begin, end = f"<!-- {name}:begin", f"<!-- {name}:end -->"
    assert begin in text and end in text, f"{name} markers missing"
    start = text.index("\n", text.index(begin)) + 1
    return text[start : text.index(end)].strip()


@pytest.mark.parametrize("name", sorted(GENERATED_BLOCKS))
def test_generated_block_matches_renderer(name):
    assert _doc_block(name) == GENERATED_BLOCKS[name]().strip(), (
        f"docs/distributed.md {name} block is stale; regenerate it with "
        f"{GENERATED_BLOCKS[name].__module__}.{GENERATED_BLOCKS[name].__name__}()"
    )


def test_every_executor_documented_exactly_once():
    table = _doc_block("executors-table")
    for name in EXECUTOR_NAMES:
        assert table.count(f"| `{name}` |") == 1


def test_every_spool_surface_documented():
    table = _doc_block("spool-layout")
    for entry in SPOOL_LAYOUT:
        assert f"`{entry.path}`" in table


def test_doc_mentions_the_surfaces():
    text = DOC.read_text()
    for needle in (
        "repro worker",
        "--executor file-queue",
        "REPRO_EXECUTOR",
        "--worker-id",
        "--max-shards",
        "lease_timeout_s",
        "repro cache verify",
        "spool.queue.v1",
        "shard.descriptor.v1",
        "sweep.executor",                 # obs cross-reference
        "executor.leases.requeued",
        "BENCH_distributed.json",
        "tests/parallel/test_executors.py",
        "scripts/check.sh",
        "DEGRADED",
    ):
        assert needle in text, f"docs/distributed.md lost {needle}"


def test_runbook_covers_the_failure_modes():
    text = DOC.read_text()
    assert "## Failure runbook" in text
    for needle in (
        "requeues",
        "unreadable descriptor",
        "checksum mismatch",
        "spool speaks version",
        "workers/",
    ):
        assert needle in text, f"runbook lost {needle}"
