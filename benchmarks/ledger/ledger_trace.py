"""In-memory span tracer for the perf ledger's per-layer run.

Nothing under ``src/`` knows about tracing.  The benchmark patches the
layers' functions *from here*, as class/module attribute wrappers, for
the duration of a :meth:`Tracer.phase` block and restores the originals
on exit, so the untraced run executes exactly the code a user runs.

A span is ``[name, start, end, parent, thread, items]``: ``name`` is
``"<layer>:<op>"``, ``parent`` the span that was open on the same
thread when this one started (thread-local stacks), ``items`` the number
of ops/rows the call carried.  A call that starts on one of the sharded
store's pool threads with an empty stack adopts the fan-out span that is
open on the dispatching thread, so per-shard work is charged to the
fan-out that caused it.

A layer's *self time* is its spans' duration minus the part their
children cover: same-thread children in full, cross-thread children by
the busiest thread (the fan-out's critical path).
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
from collections import defaultdict

NAME, START, END, PARENT, THREAD, ITEMS = range(6)

_perf = time.perf_counter
_ident = threading.get_ident
#: Thread-name prefixes of the sharded store's K/V and lifecycle pools.
_POOL_THREADS = ("pnw-shard", "pnw-lifecycle")


def _first_len(args, kwargs):
    """Items carried by ``f(self, items, ...)``."""
    try:
        return len(args[1])
    except (IndexError, TypeError):
        return 0


def _one(args, kwargs):
    return 1


def _batches_ops(args, kwargs):
    """Ops in ``run_shard_batches(self, {shard: [(kind, items)]})``."""
    return sum(len(items) for runs in args[1].values() for _, items in runs)


def _dispatch_ops(args, kwargs):
    """Ops in ``IngestQueue._dispatch(self, {shard: [_Run]})``."""
    return sum(len(run.items) for runs in args[1].values() for run in runs)


class Tracer:
    """Patches the layer boundaries and records spans per phase."""

    def __init__(self) -> None:
        self.phases: dict[str, list[list]] = {}
        self.missing: list[str] = []
        self._spans: list[list] | None = None
        self._local = threading.local()
        self._fanout: list | None = None
        self._flag_devices: set[int] = set()
        #: ``future -> submit time`` for ``ingest.wait_ms``; filled by
        #: the submit wrapper, consumed by the dispatch wrapper.
        self._submitted: dict[int, float] = {}
        self.waits: dict[str, list[float]] = defaultdict(list)
        self._phase_name = ""

    # ------------------------------------------------------------------ #
    # recording                                                           #
    # ------------------------------------------------------------------ #

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _open(self, name: str, items: int) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.current_thread().name.startswith(_POOL_THREADS):
            parent = self._fanout
        else:
            parent = None
        rec = [name, 0.0, 0.0, parent, _ident(), items]
        stack.append(rec)
        rec[START] = _perf()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = _perf()
        self._local.stack.pop()
        spans = self._spans
        if spans is not None:
            spans.append(rec)

    @contextlib.contextmanager
    def span(self, name: str, items: int = 0):
        """A span opened by the benchmark itself (segment roots)."""
        if self._spans is None:
            yield
            return
        rec = self._open(name, items)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, orig, name, count, *, fanout=False, device=False,
              generator=False, submit=False, dispatch=False):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name
            if device and id(args[0]) in tracer._flag_devices:
                span_name = "nvm:flags"
            rec = tracer._open(span_name, count(args, kwargs))
            if fanout:
                previous, tracer._fanout = tracer._fanout, rec
            if dispatch:
                tracer._note_dispatch(args[1], rec[START])
            try:
                result = orig(*args, **kwargs)
            finally:
                if fanout:
                    tracer._fanout = previous
                tracer._close(rec)
            if submit:
                tracer._submitted[id(result)] = rec[START]
            return result

        def generator_wrapper(*args, **kwargs):
            # Planners are lazy generators: time every resumption.
            inner = orig(*args, **kwargs)
            while True:
                rec = tracer._open(name, 0)
                try:
                    chunk = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(rec)
                yield chunk

        return generator_wrapper if generator else wrapper

    def _note_dispatch(self, batches, started: float) -> None:
        submitted = self._submitted
        waits = self.waits[self._phase_name]
        for runs in batches.values():
            for run in runs:
                for future in run.futures:
                    t = submitted.pop(id(future), None)
                    if t is not None:
                        waits.append(started - t)

    # ------------------------------------------------------------------ #
    # hook table                                                          #
    # ------------------------------------------------------------------ #

    def _hooks(self):
        from repro.core.address_pool import DynamicAddressPool
        from repro.core.model_manager import ModelManager
        from repro.core.store import PNWStore
        from repro.engine import account, commit, pipeline, plan, steer
        from repro.index.dram_hash import DRAMHashIndex
        from repro.ingest.queue import IngestQueue
        from repro.nvm.device import SimulatedNVM
        from repro.shard.store import ShardedPNWStore
        from repro.tier.store import TieredStore

        many = _first_len
        hooks: list[tuple] = []

        def add(owner, attrs, name, count=_one, **flags):
            for attr in attrs.split():
                hooks.append((owner, attr, name, count, flags))

        # ingest
        add(IngestQueue, "put update delete", "ingest:submit", submit=True)
        add(IngestQueue, "flush", "ingest:flush")
        add(IngestQueue, "get", "ingest:get")
        add(IngestQueue, "_dispatch", "ingest:dispatch", _dispatch_ops,
            dispatch=True)
        # tier
        add(TieredStore, "put put_unique update", "tier:put")
        add(TieredStore, "delete", "tier:delete")
        add(TieredStore, "get", "tier:get")
        add(TieredStore, "put_many update_many delete_many", "tier:many", many)
        add(TieredStore, "flush close retrain crash recover warm_up",
            "tier:lifecycle")
        add(TieredStore, "run_shard_batches", "tier:many", _batches_ops)
        add(TieredStore, "shard_of_key", "tier:route")
        # shard
        add(ShardedPNWStore, "shard_of_key", "shard:route")
        add(ShardedPNWStore, "put put_unique update delete get", "shard:single")
        add(ShardedPNWStore, "put_many update_many delete_many", "shard:fanout",
            many, fanout=True)
        add(ShardedPNWStore, "run_shard_batches", "shard:fanout", _batches_ops,
            fanout=True)
        add(ShardedPNWStore, "retrain crash recover warm_up close",
            "shard:lifecycle", fanout=True)
        # store
        add(PNWStore, "put put_unique update delete get", "store:single")
        add(PNWStore, "put_many update_many delete_many get_many", "store:many",
            many)
        add(PNWStore, "retrain", "store:retrain")
        add(PNWStore, "recover", "store:recover")
        add(PNWStore, "crash warm_up", "store:lifecycle")
        # engine
        add(pipeline.MutationEngine, "put_many update_many delete_many",
            "engine:call", many)
        add(pipeline.MutationEngine, "update_single", "engine:driver")
        for chunk in (pipeline.PutChunk, pipeline.SingleUpdate,
                      pipeline.UpdateEnduranceChunk,
                      pipeline.UpdateLatencyChunk, pipeline.DeleteBatch):
            add(chunk, "execute", "engine:chunk")
        add(plan, "validate_values encode_pairs check_unique", "engine:plan")
        add(plan, "plan_puts plan_updates plan_deletes", "engine:plan",
            generator=True)
        add(steer, "steer_puts steer_deletes steer_endurance_updates",
            "engine:steer", many)
        add(commit, "commit_puts unindex_deletes release_deletes "
            "commit_endurance_updates commit_latency_updates", "engine:commit",
            many)
        add(account, "account_puts account_deletes account_endurance_updates "
            "account_latency_updates", "engine:account", many)
        # model
        add(ModelManager, "train refresh", "model:train")
        add(ModelManager, "predict_many fallback_order_many", "model:predict",
            many)
        add(ModelManager, "labels_for", "model:labels", many)
        # pool
        add(DynamicAddressPool, "get_best_many", "pool:probe", many)
        add(DynamicAddressPool, "get_best get", "pool:probe")
        add(DynamicAddressPool, "rebuild", "pool:rebuild")
        add(DynamicAddressPool, "release block", "pool:release")
        # device
        add(SimulatedNVM, "write", "nvm:write", device=True)
        add(SimulatedNVM, "write_many", "nvm:write", many, device=True)
        add(SimulatedNVM, "read", "nvm:read")
        add(SimulatedNVM, "peek_many gather_into", "nvm:peek", many)
        # index
        add(DRAMHashIndex, "put get delete peek __contains__", "index:op")
        return hooks

    # ------------------------------------------------------------------ #
    # phases                                                              #
    # ------------------------------------------------------------------ #

    @contextlib.contextmanager
    def phase(self, name: str, flag_devices=()):
        """Install every hook, record into ``phases[name]``, restore.

        ``flag_devices`` are the validity-bitmap devices, whose writes
        are named ``nvm:flags`` so data-zone write time stays pure.
        """
        self._flag_devices = {id(device) for device in flag_devices}
        self._spans = self.phases.setdefault(name, [])
        self._phase_name = name
        patched: list[tuple] = []
        try:
            for owner, attr, span_name, count, flags in self._hooks():
                orig = vars(owner).get(attr)
                if orig is None:
                    # Tolerated so a later rename under src/ degrades one
                    # metric to 0 instead of breaking the whole ledger.
                    label = f"{getattr(owner, '__name__', owner)}.{attr}"
                    if label not in self.missing:
                        self.missing.append(label)
                        print(f"ledger trace: no hook target {label}",
                              file=sys.stderr)
                    continue
                setattr(owner, attr,
                        self._wrap(orig, span_name, count, **flags))
                patched.append((owner, attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(patched):
                setattr(owner, attr, orig)
            self._spans = None
            self._submitted.clear()


# ---------------------------------------------------------------------- #
# derivation                                                              #
# ---------------------------------------------------------------------- #

class LayerTimes:
    """Per-span-name totals of one phase: calls, items, total and self
    seconds, plus the raw durations for percentiles."""

    def __init__(self, spans: list[list]) -> None:
        same: dict[int, float] = defaultdict(float)
        cross: dict[int, dict[int, float]] = defaultdict(
            lambda: defaultdict(float))
        for rec in spans:
            parent = rec[PARENT]
            if parent is None:
                continue
            duration = rec[END] - rec[START]
            if parent[THREAD] == rec[THREAD]:
                same[id(parent)] += duration
            else:
                cross[id(parent)][rec[THREAD]] += duration
        self.calls: dict[str, int] = defaultdict(int)
        #: calls that carried at least one item (real dispatches).
        self.nonempty: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        #: calls/items of spans entered from another layer (engine calls
        #: made by a store, not the ones update_single nests).
        self.outer_calls: dict[str, int] = defaultdict(int)
        self.outer_items: dict[str, int] = defaultdict(int)
        #: total seconds of (child name) under (parent layer).
        self.under: dict[tuple[str, str], float] = defaultdict(float)
        for rec in spans:
            name = rec[NAME]
            duration = rec[END] - rec[START]
            threads = cross.get(id(rec))
            covered = same.get(id(rec), 0.0)
            if threads:
                covered += max(threads.values())
            self.calls[name] += 1
            self.nonempty[name] += rec[ITEMS] > 0
            self.items[name] += rec[ITEMS]
            self.total[name] += duration
            self.self_s[name] += max(0.0, duration - covered)
            self.durations[name].append(duration)
            parent = rec[PARENT]
            parent_layer = (
                None if parent is None else parent[NAME].split(":", 1)[0]
            )
            if parent_layer != name.split(":", 1)[0]:
                self.outer_calls[name] += 1
                self.outer_items[name] += rec[ITEMS]
            if parent_layer is not None:
                self.under[(parent_layer, name)] += duration

    def layer_self(self, layer: str) -> float:
        """Self seconds of every span of ``layer``."""
        prefix = layer + ":"
        return sum(s for name, s in self.self_s.items()
                   if name.startswith(prefix))
