"""Outside-in layer tracing for the benchmark.

The traced run wraps the public entry points of each layer of
``src/repro`` from here, without touching the program's code: every
wrapper opens a span, calls the original, closes the span and returns
the original's value unchanged.  A layer's *self time* is its spans'
duration minus the part covered by child spans.  Spans live in memory
as running totals; nothing is written until the run ends.

A hook whose target no longer exists (a refactor renamed or removed
it) is skipped and listed in ``missing``, so the end-to-end benchmark
keeps running; that layer's numbers then read 0.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

_now_ns = time.perf_counter_ns


class LayerTracer:
    """Span stack plus per-layer totals.

    ``self_ns[layer]`` is self time, ``incl_ns[layer]`` the duration of
    the layer's outermost spans, ``spans[layer]`` the number of
    outermost spans (a span nested directly in one of its own layer --
    ``execute`` calling ``query`` -- is merged into its parent), and
    ``counts`` holds named counters fed by the hooks.  ``top_ns`` is
    the time covered by spans with no parent; the rest of a timed
    phase is unattributed (benchmark driver code and unwrapped program
    code).
    """

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.spans: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self.top_ns = 0
        self.missing: list[str] = []
        # Event loop currently running: lock hooks read virtual time
        # from its clock (LockTable calls carry no timestamp).
        self.loop = None
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def enter(self, layer: str) -> None:
        stack = self._stack
        nested = bool(stack) and stack[-1][0] == layer
        if layer == "runtime" and any(f[0] == "serve.draw" for f in stack):
            self.counts["serve.live"] += 1
        stack.append([layer, _now_ns(), 0, nested])

    def exit(self) -> None:
        layer, start, child, nested = self._stack.pop()
        duration = _now_ns() - start
        self.self_ns[layer] += duration - child
        if not nested:
            self.spans[layer] += 1
            self.incl_ns[layer] += duration
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_ns += duration

    def snapshot(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "incl_ns": dict(self.incl_ns),
            "spans": dict(self.spans),
            "counts": dict(self.counts),
            "top_ns": self.top_ns,
        }

    # -- installing hooks --------------------------------------------------

    def _target(self, module: str, owner: str | None):
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return None
        return mod if owner is None else getattr(mod, owner, None)

    def _patch(self, target, attr: str, make) -> bool:
        raw = target.__dict__.get(attr) if hasattr(target, "__dict__") else None
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(target, attr, replacement)
        self._undo.append((target, attr, raw))
        return True

    def wrap(self, module, owner, attr, make) -> None:
        """Replace ``module.owner.attr`` (module-level ``attr`` when
        ``owner`` is None) by ``make(original)``."""
        target = self._target(module, owner)
        if target is None or not self._patch(target, attr, make):
            self.missing.append(".".join(filter(None, (module, owner, attr))))

    def span(self, module, owner, attr, layer, layer_of=None) -> None:
        """Wrap a callable in a span of ``layer``; ``layer_of(args)``
        picks the layer per call instead."""
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                tracer.enter(layer_of(args) if layer_of else layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.exit()

            wrapper.__wrapped__ = fn
            return wrapper

        self.wrap(module, owner, attr, make)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, raw = self._undo.pop()
            setattr(target, attr, raw)


def _subclasses_defining(module: str, base: str, attr: str) -> list[str]:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return []
    root = getattr(mod, base, None)
    if root is None:
        return []
    return sorted(
        name
        for name, obj in vars(mod).items()
        if isinstance(obj, type) and issubclass(obj, root)
        and attr in obj.__dict__ and obj is not root
    )


def install(tracer: LayerTracer) -> None:
    """Wrap every layer entry point the per-layer metrics need.

    Must run before the workload is built: some layers bind methods at
    construction (e.g. ``attach_wal`` stores ``ShardWal.commit_ops``
    as the redo collector).
    """
    counts = tracer.counts

    # -- sim: event loop, core pools, lock table -----------------------
    def make_loop_run(fn):
        def run(self, *args, **kwargs):
            outer = tracer.loop
            tracer.loop = self
            tracer.enter("sim.loop")
            try:
                processed = fn(self, *args, **kwargs)
            finally:
                tracer.exit()
                tracer.loop = outer
            counts["sim.events"] += processed
            return processed

        run.__wrapped__ = fn
        return run

    tracer.wrap("repro.sim.clock", "EventLoop", "run", make_loop_run)

    def make_core_acquire(fn):
        def acquire(self, now, work):
            loop = tracer.loop
            if loop is None:
                return fn(self, now, work)

            def timed_work():
                counts["sim.core_wait_s"] += loop.clock.now - now
                work()

            return fn(self, now, timed_work)

        acquire.__wrapped__ = fn
        return acquire

    def make_lock_acquire(fn):
        def acquire(self, group, work):
            loop = tracer.loop
            if loop is None:
                return fn(self, group, work)
            asked = loop.clock.now

            def timed_work():
                counts["sim.lock_wait_s"] += loop.clock.now - asked
                work()

            return fn(self, group, timed_work)

        acquire.__wrapped__ = fn
        return acquire

    tracer.wrap("repro.sim.queueing", "CorePool", "acquire", make_core_acquire)
    tracer.wrap("repro.sim.queueing", "LockTable", "acquire", make_lock_acquire)

    # -- serve: trace draws (live executions nest runtime spans) --------
    for name in _subclasses_defining(
        "repro.serve.workload", "ServeWorkload", "draw"
    ):
        tracer.span("repro.serve.workload", name, "draw", "serve.draw")

    # -- runtime: one partitioned invocation ----------------------------
    tracer.span(
        "repro.runtime.entrypoints", "PartitionedApp", "invoke_traced",
        "runtime",
    )

    # -- db: statements, prepares, commits -------------------------------
    for module, owner in (
        ("repro.db.jdbc", "PreparedStatement"),
        ("repro.db.shard", "ShardPreparedStatement"),
    ):
        for attr in ("query", "update", "execute"):
            tracer.span(module, owner, attr, "db.stmt")

    for module, owner in (
        ("repro.db.jdbc", "Connection"),
        ("repro.db.shard", "ShardedConnection"),
    ):
        tracer.span(module, owner, "prepare", "db.prepare")

    tracer.span("repro.db.txn", "Transaction", "commit", "db.txn")
    tracer.span(
        "repro.db.txn", "ShardedTransaction", "commit", "db.shard.1pc",
        layer_of=lambda args: (
            "db.shard.2pc" if len(args[0].touched_shards()) > 1
            else "db.shard.1pc"
        ),
    )
    tracer.span("repro.db.replica", "ReplicaGroup", "commit_redo", "db.replica")
    tracer.span("repro.db.wal", "ShardWal", "commit_ops", "db.wal.append")
    tracer.span("repro.db.wal", "ShardWal", "log_prepare", "db.wal.append")
    tracer.span("repro.db.wal", "ShardWal", "sync", "db.wal.sync")

    # -- core / set-up -----------------------------------------------------
    for attr, layer in (
        ("from_source", "core.analyze"),
        ("profile_with", "core.profile"),
        ("partition", "core.partition"),
    ):
        tracer.span("repro.core.session", "PartitionService", attr, layer)
    for module, attr in (
        ("repro.workloads.tpcc", "make_tpcc_database"),
        ("repro.workloads.tpcc", "make_sharded_tpcc_database"),
        ("repro.workloads.tpcw", "make_tpcw_database"),
    ):
        tracer.span(module, None, attr, "setup.db_load")
    tracer.span(
        "repro.bench.harness", None, "collect_tpcc_traces",
        "setup.trace_collect",
    )


def _delta(after: dict, before: dict, key: str, name: str) -> float:
    return after[key].get(name, 0) - before[key].get(name, 0)


def layer_metrics(
    tracer: LayerTracer,
    setup_begin: dict,
    timed_begin: dict,
    round1_end: dict,
    timed_end: dict,
    timed_wall_s: float,
    round1: dict,
    overhead_frac: float,
) -> dict[str, float]:
    """Fold the traced run into the per-layer metrics.

    Times cover the whole timed phase; counts cover its first round,
    which is fixed work, so they repeat exactly for a seed.  Set-up
    metrics are inclusive wall times of the traced set-up's steps.
    ``round1`` carries the workload's own exact counts for round 1
    (transactions, controller switches, replication and WAL counters
    read from the program's public stats).
    """
    def self_s(layer: str) -> float:
        return _delta(timed_end, timed_begin, "self_ns", layer) / 1e9

    def spans1(layer: str) -> float:
        return _delta(round1_end, timed_begin, "spans", layer)

    def count1(name: str) -> float:
        return _delta(round1_end, timed_begin, "counts", name)

    def count_timed(name: str) -> float:
        return _delta(timed_end, timed_begin, "counts", name)

    def setup_s(layer: str) -> float:
        return _delta(timed_begin, setup_begin, "incl_ns", layer) / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    txns = round1["txns"]
    events = count1("sim.events")
    events_timed = count_timed("sim.events")
    vlat_sum = round1.get("vlat_sum_s", 0.0)
    stmt_timed = _delta(timed_end, timed_begin, "spans", "db.stmt")
    invokes_timed = _delta(timed_end, timed_begin, "spans", "runtime")
    draws = spans1("serve.draw")
    prepares = spans1("db.prepare")
    top_timed = (timed_end["top_ns"] - timed_begin["top_ns"]) / 1e9
    return {
        "sim.events": events,
        "sim.events_per_txn": ratio(events, txns),
        "sim.loop_self_s": self_s("sim.loop"),
        "sim.loop_self_ns_per_event": ratio(
            1e9 * self_s("sim.loop"), events_timed
        ),
        "sim.core_wait_frac": ratio(count1("sim.core_wait_s"), vlat_sum),
        "sim.lock_wait_frac": ratio(count1("sim.lock_wait_s"), vlat_sum),
        "serve.draws": draws,
        "serve.draw_s": self_s("serve.draw"),
        "serve.live_frac": ratio(count1("serve.live"), draws),
        "serve.switches": round1.get("switches", 0),
        "serve.rejected": round1.get("rejected", 0),
        "serve.aborted": round1.get("aborted", 0),
        "runtime.invokes": spans1("runtime"),
        "runtime.self_s": self_s("runtime"),
        "runtime.self_us_per_txn": ratio(
            1e6 * self_s("runtime"), invokes_timed
        ),
        "runtime.control_transfers_per_txn": round1.get(
            "control_transfers_per_txn", 0.0
        ),
        "runtime.db_round_trips_per_txn": round1.get(
            "db_round_trips_per_txn", 0.0
        ),
        "runtime.msg_bytes_per_txn": round1.get("msg_bytes_per_txn", 0.0),
        "db.statements": spans1("db.stmt"),
        "db.stmt_self_s": self_s("db.stmt"),
        "db.stmt_self_us": ratio(1e6 * self_s("db.stmt"), stmt_timed),
        "db.prepares": prepares,
        "db.prepare_s": self_s("db.prepare"),
        "db.plan_cache_hit_ratio": round1.get("plan_cache_hit_ratio", 0.0),
        "db.txn.commits": spans1("db.txn"),
        "db.shard.two_pc_commits": spans1("db.shard.2pc"),
        "db.shard.two_pc_s": self_s("db.shard.2pc"),
        "db.replica.entries_shipped": round1.get("entries_shipped", 0),
        "db.replica.ship_s": self_s("db.replica"),
        "db.wal.frames": round1.get("wal_frames", 0),
        "db.wal.bytes_per_txn": ratio(round1.get("wal_bytes", 0), txns),
        "db.wal.append_s": self_s("db.wal.append"),
        "db.wal.syncs": round1.get("wal_syncs", 0),
        "db.wal.sync_s": self_s("db.wal.sync"),
        "core.analyze_s": setup_s("core.analyze"),
        "core.profile_s": setup_s("core.profile"),
        "core.partition_s": setup_s("core.partition"),
        "setup.db_load_s": setup_s("setup.db_load"),
        "setup.trace_collect_s": setup_s("setup.trace_collect"),
        "setup.warmup_s": setup_s("setup.warmup"),
        "bench.trace_overhead_frac": overhead_frac,
        "bench.unattributed_frac": ratio(
            max(timed_wall_s - top_timed, 0.0), timed_wall_s
        ),
    }
