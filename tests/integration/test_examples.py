"""Smoke tests: the example scripts must run and self-verify.

Each example asserts its own correctness internally (comparisons with
brute force); running ``main()`` in-process is the test.  Only the
fast examples run here — the EM accounting example sweeps five block
sizes and belongs to manual runs.
"""

import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
sys.path.insert(0, str(EXAMPLES_DIR))


def test_quickstart_runs(capsys):
    import quickstart

    quickstart.main()
    out = capsys.readouterr().out
    assert "Top-10 offers" in out
    assert "agrees" in out


def test_spatial_similarity_runs(capsys):
    import spatial_similarity

    spatial_similarity.main()
    out = capsys.readouterr().out
    assert "Matches brute force" in out
    assert "Theorem 1 instantiation agrees" in out


def test_resilient_service_runs(capsys):
    import resilient_service

    resilient_service.main()
    out = capsys.readouterr().out
    assert "Degradation ladder: ExpectedTopKIndex -> WorstCaseTopKIndex -> scan" in out
    assert "matched the brute-force oracle" in out
    # The KeyboardInterrupt path: checkpoint-on-shutdown, then recovery.
    assert "checkpointed on shutdown" in out
    assert "health reports 1 recovery" in out
    assert "The restarted service lost nothing." in out


def test_resilient_service_interrupt_mid_group(capsys):
    """Interrupting inside an uncommitted WAL group must lose nothing:
    the shutdown checkpoint commits the pending tail first."""
    import resilient_service

    # 7 ingests with commit_interval=4: three ops sit uncommitted when
    # the interrupt lands.
    resilient_service.main(interrupt_after=7)
    out = capsys.readouterr().out
    assert "Interrupted after 7 ingests" in out
    assert "The restarted service lost nothing." in out


def test_replicated_service_runs(capsys):
    import replicated_service

    replicated_service.main()
    out = capsys.readouterr().out
    assert "promoted replica-1 (replayed 40 unapplied records)" in out
    assert "post-failover top-8 matches the brute-force oracle exactly" in out
    assert "repaired=['replica-2']" in out
    assert "promotions=1 scrub_repairs=1" in out


def test_sharded_service_runs(capsys):
    import sharded_service

    sharded_service.main()
    out = capsys.readouterr().out
    assert "still exact; recoveries=1, machine alive again: True" in out
    assert "shards=5, splits=1, contact ratio=0.20" in out


def test_flash_service_runs(capsys):
    import flash_service

    flash_service.main()
    out = capsys.readouterr().out
    assert "  36 |     1.50           7/4.9 | !! incident opened" in out
    assert "1482 host writes, 1619 device writes (lifetime WA 1.092)" in out
    assert "incidents: 2 opened, 2 resolved" in out
    assert "final answers oracle-exact: True" in out


def test_ops_service_runs(capsys):
    import ops_service

    ops_service.main()
    out = capsys.readouterr().out
    assert "incident #1 opened: machine:replica-0 [latency_storm]" in out
    assert "incident #1 resolved (time-to-mitigate 4 ticks)" in out
    assert "final state: 3/3 replicas alive, primary=replica-1" in out


def test_overload_service_runs(capsys):
    import overload_service

    overload_service.main()
    out = capsys.readouterr().out
    assert "sheds       : 810 (644 queue-full, 166 past-deadline)" in out
    assert "sheds       : 0 (0 queue-full, 0 past-deadline)" in out
    assert "topology    : 7 shards at end" in out
    assert "with every non-degraded answer oracle-exact" in out


@pytest.mark.slow
def test_hotel_search_runs(capsys):
    import hotel_search

    hotel_search.main()
    out = capsys.readouterr().out
    assert "Top-10 hotels" in out


@pytest.mark.slow
def test_dating_site_runs(capsys):
    import dating_site

    dating_site.main()
    out = capsys.readouterr().out
    assert "Top-10 salaries" in out
