"""The benchmark counts failed operations instead of dropping them.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the
repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from pb_workloads import LiveTpcc, SloPoint, vmax_under_slo  # noqa: E402


def test_failed_call_and_aborted_settlement_are_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(LiveTpcc, "FIRST_ROUND", LiveTpcc.SETTLE_EVERY + 5)
    workload = LiveTpcc()
    workload.setup(seed=3, workdir=tmp_path)

    real_invoke = workload.app.invoke_traced
    calls = [0]

    def flaky_invoke(*args):
        calls[0] += 1
        if calls[0] == 4:
            raise RuntimeError("injected call failure")
        return real_invoke(*args)

    real_settle = workload.settle

    def settle_with_failed_prepare(result):
        # An fsync failure turns shard 0's prepare into a "no" vote:
        # the settlement aborts (presumed abort) and is rolled back.
        workload.wal.set_fsync_fail(0, True)
        try:
            real_settle(result)
        finally:
            workload.wal.set_fsync_fail(0, False)

    monkeypatch.setattr(workload.app, "invoke_traced", flaky_invoke)
    monkeypatch.setattr(workload, "settle", settle_with_failed_prepare)
    result = workload.run_round()

    assert result.attempted == LiveTpcc.FIRST_ROUND + 1  # calls + settlement
    assert result.failed == 2
    assert result.txns == LiveTpcc.FIRST_ROUND - 1
    assert len(result.wall_samples_us) == LiveTpcc.FIRST_ROUND
    # Neither failure left a trace in the data, the replicas or the
    # log, so the correctness gate still passes on what did commit.
    assert workload.check() == []
    workload.close()


def _point(rate, p99_s, drained=100):
    return SloPoint(
        rate=rate, duration=1.0, slo=0.1, p50_s=0.01, p99_s=p99_s,
        throughput=rate, arrivals=100, completed=100, drained=drained,
        latency_sum_s=1.0, cpu_s=0.1, wall_s=0.1,
    )


def test_vmax_interpolates_latency_but_not_backlog():
    passing = _point(100.0, 0.05)
    too_slow = _point(200.0, 0.15)
    backlogged = _point(200.0, 0.06, drained=90)
    assert passing.ok and not too_slow.ok
    assert backlogged.backlog and not backlogged.ok
    assert vmax_under_slo([passing, too_slow], 0.1) == pytest.approx(150.0)
    assert vmax_under_slo([passing, backlogged], 0.1) == 100.0
    assert vmax_under_slo([too_slow], 0.1) == pytest.approx(200.0 / 1.5)
