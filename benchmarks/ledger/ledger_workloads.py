"""The five perf-ledger workloads.

Each workload drives the public API of ``repro`` with inputs made from
its ``--seed`` and keeps a model dict (key -> expected value) so every
output can be checked.  The seed varies the *streams* (values, keys, op
order); the value templates and the store's K-Means seed are fixed, so
two seeds cluster the same population and training cost repeats.

A workload's timed phase is a sequence of *segments* of equal op count;
a segment ends at a synchronous point (the call returned, or ``flush()``
returned and every future resolved).  ``prepare(i)`` builds segment
``i``'s ops outside the timed region.
"""

from __future__ import annotations

import collections
import itertools
import random
import time
from dataclasses import dataclass

import numpy as np

from repro import IngestQueue, PNWConfig, PNWStore, make_store
from repro.workloads import make_workload

#: Seed of the value templates and of every store's K-Means.
FIXED_SEED = 20210419

_perf = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Op counts of one workload (full and ``--smoke`` presets)."""

    zone: int            # data-zone buckets
    batch: int           # *_many batch size / queue max_batch
    steps: int           # batches (runs, cycles' batches) per segment
    prefix: int          # segments whose counters are the exact metrics
    pool: int            # distinct generated values
    get_keys: int        # GETs per read segment
    restarts: int = 5    # rounds of GETs, forced retrain, crash+recover
    get_segments: int = 2     # read segments per round, at least ...
    get_seconds: float = 0.5  # ... and for at least this long
    setups: int = 3      # identical builds; setup_s is their median
    open_rate: float = 500.0


#: The ``--smoke`` presets' tail: one round, one build, short reads.
SMOKE_TAIL = dict(restarts=1, get_segments=2, get_seconds=0.02, setups=1)


def value_stream(name: str, seed: int, **kwargs):
    """A ``repro.workloads`` generator with fixed templates whose
    sample stream is drawn from ``seed``."""
    workload = make_workload(name, seed=FIXED_SEED, **kwargs)
    workload.rng = np.random.default_rng(seed)
    return workload


class KeySet:
    """Live keys with O(1) add, remove and uniform choice."""

    def __init__(self) -> None:
        self.keys: list[bytes] = []
        self.position: dict[bytes, int] = {}

    def add(self, key: bytes) -> None:
        self.position[key] = len(self.keys)
        self.keys.append(key)

    def remove(self, key: bytes) -> None:
        index = self.position.pop(key)
        last = self.keys.pop()
        if last != key:
            self.keys[index] = last
            self.position[last] = index

    def choice(self, rng: random.Random) -> bytes:
        return self.keys[rng.randrange(len(self.keys))]

    def __len__(self) -> int:
        return len(self.keys)


class Workload:
    """State shared by the five workloads; see the module docstring."""

    name = ""
    FULL: Sizes
    SMOKE: Sizes
    value_bytes = 64
    #: Whether Σ report.bit_updates of the user-visible reports must
    #: equal the data zone's counter (false behind the write-back tier,
    #: whose absorbed ops report zero and whose flushes report to no one).
    reports_carry_bits = True
    #: Share of ``--seconds`` spent in the segments (the rest goes to
    #: :meth:`after_main`).
    main_share = 1.0

    def __init__(self, seed: int, smoke: bool = False,
                 log_ops: bool = False) -> None:
        self.seed = seed
        self.sizes = self.SMOKE if smoke else self.FULL
        self.log_ops = log_ops
        self.store = None
        self.queue = None
        self._reset()

    def _reset(self) -> None:
        self.rng = random.Random(self.seed)
        self.model: dict[bytes, bytes] = {}
        self.deleted: collections.deque[bytes] = collections.deque(maxlen=256)
        self.next_key = 0
        self.next_value = 0
        self.attempted = 0
        self.failed = 0
        self.payload_writes = 0
        self.report_bits = 0
        self.latencies: list[float] = []
        self.stalls: list[float] = []
        #: ``(kind, key, value)`` of every planned mutation since build
        #: (traced run only) — the stream the DCW baseline replays.
        self.oplog: list[tuple] = []

    # -- configuration ------------------------------------------------- #

    def config(self, **overrides) -> PNWConfig:
        settings = dict(
            num_buckets=self.sizes.zone,
            value_bytes=self.value_bytes,
            key_bytes=8,
            n_clusters=8,
            probe_limit=64,
            load_factor=1.0,
            featurizer="bit",
            seed=FIXED_SEED,
            n_init=1,
            max_iter=3,
        )
        settings.update(overrides)
        return PNWConfig(**settings)

    # -- planning (untimed; updates the model) ------------------------- #

    def fresh_key(self) -> bytes:
        key = b"%02x%06x" % (self.seed & 0xFF, self.next_key)
        self.next_key += 1
        return key

    def pooled_value(self) -> bytes:
        value = self.values[self.next_value % len(self.values)]
        self.next_value += 1
        return value

    def plan_write(self, kind: str, key: bytes, value: bytes) -> None:
        self.model[key] = value
        self.payload_writes += 1
        if self.log_ops:
            self.oplog.append((kind, key, value))

    def plan_delete(self, key: bytes) -> None:
        del self.model[key]
        self.deleted.append(key)
        if self.log_ops:
            self.oplog.append(("delete", key, None))

    def plan_puts(self, n: int) -> list[tuple[bytes, bytes]]:
        pairs = [(self.fresh_key(), self.pooled_value()) for _ in range(n)]
        for key, value in pairs:
            self.plan_write("put", key, value)
        return pairs

    def plan_oldest_deletes(self, n: int) -> list[bytes]:
        keys = list(itertools.islice(self.model, n))
        for key in keys:
            self.plan_delete(key)
        return keys

    # -- execution helpers --------------------------------------------- #

    def run_batch(self, call, items, sample: bool = True) -> list:
        """One ``*_many`` call: timed, counted, reports checked.
        ``sample`` adds its duration to the write-latency samples."""
        self.attempted += len(items)
        started = _perf()
        try:
            reports = call(items)
        except Exception as exc:  # noqa: BLE001 - counted, not hidden
            elapsed = _perf() - started
            committed = getattr(exc, "committed_reports", None) or []
            self.failed += len(items) - len(committed)
            reports = committed
        else:
            elapsed = _perf() - started
            if len(reports) != len(items):
                self.failed += abs(len(items) - len(reports))
        if sample:
            self.latencies.append(elapsed)
        self.report_bits += sum(report.bit_updates for report in reports)
        if any(report.retrained for report in reports):
            self.stalls.append(elapsed)
        return reports

    def preload(self, n_batches: int) -> None:
        for _ in range(n_batches):
            self.run_batch(self.store.put_many,
                           self.plan_puts(self.sizes.batch))
        # Set-up latencies are not user-call samples of the timed phase.
        self.latencies.clear()
        self.stalls.clear()

    # -- lifecycle ----------------------------------------------------- #

    def make_inputs(self) -> None:
        """Old data and a value pool from ``--seed`` (untimed); the
        64-byte ``amazon`` values unless a workload overrides."""
        stream = value_stream("amazon", self.seed)
        self.old = stream.generate(self.sizes.zone)
        self.values = [row.tobytes() for row in stream.generate(self.sizes.pool)]

    def build(self) -> None:
        """Construct the stack and preload it (timed as ``setup_s``)."""
        raise NotImplementedError

    def close(self) -> None:
        queue, self.queue = self.queue, None
        store, self.store = self.store, None
        try:
            if queue is not None:
                queue.close()
        finally:
            close = getattr(store, "close", None)
            if close is not None:
                close()

    def prepare(self, index: int) -> None:
        """Plan segment ``index``'s ops (untimed); optional."""

    def segment(self, index: int) -> int:
        """Run the prepared segment; returns the user ops it completed."""
        raise NotImplementedError

    def after_main(self, seconds: float) -> dict:
        """Workload-specific phase after the segments (open loop)."""
        return {}

    # -- reads ---------------------------------------------------------- #

    def reader(self):
        return self.store.get if self.queue is None else self.queue.get

    def read_segment(self, index: int) -> list[bytes]:
        """Keys of the ``index``-th GET segment: live keys, uniform."""
        if index == 0:
            self.live_keys = list(self.model)
        return self.rng.choices(self.live_keys, k=self.sizes.get_keys)


# ---------------------------------------------------------------------- #
# steer_batch                                                             #
# ---------------------------------------------------------------------- #

class SteerBatch(Workload):
    """Fig. 6's protocol at batch size on one bare ``PNWStore``."""

    name = "steer_batch"
    FULL = Sizes(zone=8192, batch=256, steps=8, prefix=8, pool=16384,
                 get_keys=8192)
    SMOKE = Sizes(zone=512, batch=32, steps=2, prefix=2, pool=1024,
                  get_keys=128, **SMOKE_TAIL)

    def build(self) -> None:
        self._reset()
        self.store = PNWStore(self.config())
        self.store.warm_up(self.old)
        self.preload(self.sizes.zone // 2 // self.sizes.batch)

    def prepare(self, index: int) -> None:
        batch = self.sizes.batch
        self.plan = [
            (self.plan_puts(batch), self.plan_oldest_deletes(batch))
            for _ in range(self.sizes.steps)
        ]

    def segment(self, index: int) -> int:
        for pairs, keys in self.plan:
            self.run_batch(self.store.put_many, pairs)
            self.run_batch(self.store.delete_many, keys, sample=False)
        return 2 * self.sizes.batch * self.sizes.steps


# ---------------------------------------------------------------------- #
# ingest_runs / ingest_mixed                                              #
# ---------------------------------------------------------------------- #

class _Ingest(Workload):
    """Single ops through ``IngestQueue`` over two thread-mode shards."""

    def build(self) -> None:
        self._reset()
        self.store = make_store(self.config(shards=2, executor="thread"))
        self.store.warm_up(self.old)
        self.preload(self.sizes.zone // 2 // self.sizes.batch)
        self.queue = IngestQueue(
            self.store, max_batch=self.sizes.batch, max_delay=0.002,
            overload="block",
        )

    def submit_all(self, ops: list[tuple], due: list[float] | None = None):
        """Submit ``ops`` (closed loop, or each at its ``due`` time),
        flush, resolve every future.  Returns ``(start, done, late)``
        per op: submit (or due) time, completion time, lateness."""
        queue = self.queue
        n = len(ops)
        start = [0.0] * n
        done = [0.0] * n
        late = [0.0] * n
        futures = []
        self.attempted += n
        for i, (kind, key, value) in enumerate(ops):
            now = _perf()
            if due is not None:
                if due[i] > now:
                    time.sleep(due[i] - now)
                    now = _perf()
                late[i] = now - due[i]
                now = due[i]
            start[i] = now
            future = (queue.delete(key) if kind == "delete"
                      else getattr(queue, kind)(key, value))
            future.add_done_callback(
                lambda _f, i=i: done.__setitem__(i, _perf()))
            futures.append(future)
        queue.flush()
        for i, future in enumerate(futures):
            try:
                report = future.result(timeout=60)
            except Exception:  # noqa: BLE001 - counted, not hidden
                self.failed += 1
                done[i] = _perf()
            else:
                self.report_bits += report.bit_updates
        return start, done, late

    def segment(self, index: int) -> int:
        start, done, _ = self.submit_all(self.ops)
        self.latencies.extend(
            d - s for s, d, op in zip(start, done, self.ops)
            if op[0] != "delete"
        )
        return len(self.ops)


class IngestRuns(_Ingest):
    """Same-kind runs: 2*batch PUTs, then 2*batch DELETEs of the oldest."""

    name = "ingest_runs"
    FULL = Sizes(zone=8192, batch=256, steps=4, prefix=8, pool=16384,
                 get_keys=4096)
    SMOKE = Sizes(zone=512, batch=32, steps=2, prefix=2, pool=1024,
                  get_keys=128, **SMOKE_TAIL)

    def prepare(self, index: int) -> None:
        run = 2 * self.sizes.batch
        self.ops = []
        for _ in range(self.sizes.steps):
            self.ops += [("put", k, v) for k, v in self.plan_puts(run)]
            self.ops += [("delete", k, None)
                         for k in self.plan_oldest_deletes(run)]


class IngestMixed(_Ingest):
    """put/update/delete 30/40/30, randomly interleaved; closed loop
    for the first half of the run, open loop for the second."""

    name = "ingest_mixed"
    main_share = 0.5
    FULL = Sizes(zone=8192, batch=256, steps=512, prefix=8, pool=16384,
                 get_keys=4096)
    SMOKE = Sizes(zone=512, batch=32, steps=64, prefix=2, pool=1024,
                  get_keys=128, **SMOKE_TAIL, open_rate=400.0)

    def build(self) -> None:
        super().build()
        self.live = KeySet()
        for key in self.model:
            self.live.add(key)

    def mixed_ops(self, n: int) -> list[tuple]:
        ops = []
        for _ in range(n):
            draw = self.rng.random()
            if draw < 0.3 or not len(self.live):
                key, value = self.fresh_key(), self.pooled_value()
                self.live.add(key)
                self.plan_write("put", key, value)
                ops.append(("put", key, value))
            elif draw < 0.7:
                key, value = self.live.choice(self.rng), self.pooled_value()
                self.plan_write("update", key, value)
                ops.append(("update", key, value))
            else:
                key = self.live.choice(self.rng)
                self.live.remove(key)
                self.plan_delete(key)
                ops.append(("delete", key, None))
        return ops

    def prepare(self, index: int) -> None:
        self.ops = self.mixed_ops(self.sizes.steps)

    def after_main(self, seconds: float) -> dict:
        """Open loop at a fixed rate: latency from each op's due time."""
        rate = self.sizes.open_rate
        n = max(8, int(rate * seconds))
        ops = self.mixed_ops(n)
        base = _perf() + 0.01
        due = [base + i / rate for i in range(n)]
        start, done, late = self.submit_all(ops, due)
        latency = np.array(done) - np.array(start)
        offset = np.array(start) - base
        # Discard the ramp, then percentiles per window and the median
        # window: one slow window cannot move the reported value.
        ramp = min(1.0, 0.2 * seconds)
        width = 0.5 if seconds >= 3 else (seconds - ramp) / 4
        windows = collections.defaultdict(list)
        for value, at in zip(latency, offset):
            if at >= ramp:
                windows[int((at - ramp) / width)].append(value)
        kept = [values for _, values in sorted(windows.items())
                if len(values) >= 8] or [latency]
        rows = [np.percentile(values, (50, 95, 99)) * 1e3 for values in kept]
        p50, p95, p99 = np.median(np.array(rows), axis=0)
        return {
            "open_p50_ms": float(p50),
            "open_p95_ms": float(p95),
            "open_p99_ms": float(p99),
            "generator_late_ms_p99": float(np.percentile(late, 99) * 1e3),
            "open_ops": n,
        }


# ---------------------------------------------------------------------- #
# tier_zipf_rw                                                            #
# ---------------------------------------------------------------------- #

class TierZipfRW(Workload):
    """Zipfian 50/50 get/put single ops through the write-back tier."""

    name = "tier_zipf_rw"
    value_bytes = 56
    reports_carry_bits = False
    FULL = Sizes(zone=8192, batch=256, steps=8192, prefix=8, pool=32768,
                 get_keys=8192)
    SMOKE = Sizes(zone=512, batch=32, steps=256, prefix=2, pool=2048,
                  get_keys=256, **SMOKE_TAIL)

    def make_inputs(self) -> None:
        n_keys = self.sizes.zone // 2
        stream = value_stream("zipfian", self.seed, n_keys=n_keys, alpha=0.99,
                              value_bytes=self.value_bytes)
        self.old = stream.generate(self.sizes.zone)[:, stream.key_bytes:]
        self.records = stream.pairs(stream.generate(self.sizes.pool))
        self.cache_entries = n_keys // 8
        coin = random.Random(self.seed)
        self.is_get = [coin.random() < 0.5 for _ in range(self.sizes.pool)]

    def build(self) -> None:
        self._reset()
        self.store = make_store(self.config(
            tier_mode="write_back",
            tier_cache_entries=self.cache_entries,
            tier_writeback_entries=self.sizes.batch,
        ))
        self.store.warm_up(self.old)
        first = {}
        for key, value in self.records:
            first.setdefault(key, value)
        pairs = list(first.items())
        for at in range(0, len(pairs), self.sizes.batch):
            chunk = pairs[at:at + self.sizes.batch]
            for key, value in chunk:
                self.plan_write("put", key, value)
            self.run_batch(self.store.put_many, chunk)
        self.store.flush()
        self.latencies.clear()
        self.cursor = 0

    def segment(self, index: int) -> int:
        store, model, records = self.store, self.model, self.records
        latencies = self.latencies
        n = self.sizes.steps
        pool = len(records)
        failed = 0
        for at in range(self.cursor, self.cursor + n):
            key, value = records[at % pool]
            if self.is_get[at % pool]:
                if store.get(key) != model[key]:
                    failed += 1
            else:
                started = _perf()
                store.put(key, value)
                latencies.append(_perf() - started)
                self.plan_write("put", key, value)
        self.cursor += n
        self.attempted += n
        self.failed += failed
        return n

    def after_main(self, seconds: float) -> dict:
        self.store.flush()
        return {}

    def read_segment(self, index: int) -> list[bytes]:
        """The Zipfian stream goes on, keys only."""
        n, pool = self.sizes.get_keys, len(self.records)
        first = self.cursor + index * n
        return [self.records[at % pool][0] for at in range(first, first + n)]


# ---------------------------------------------------------------------- #
# churn_restart                                                           #
# ---------------------------------------------------------------------- #

class ChurnRestart(Workload):
    """Fill/drain cycles across the retrain load factor on a store that
    starts empty; one segment is one cycle, and every cycle retrains."""

    name = "churn_restart"
    value_bytes = 784
    #: Preload 10/16 of the zone, cycle up to 15/16 and back: with the
    #: retrain check aligned to the batch the last PUT batch of every
    #: cycle crosses ``load_factor=0.9`` and retrains — once per cycle.
    FULL = Sizes(zone=4096, batch=256, steps=5, prefix=8, pool=8192,
                 get_keys=8192)
    SMOKE = Sizes(zone=256, batch=16, steps=5, prefix=2, pool=512,
                  get_keys=128, **SMOKE_TAIL)

    def make_inputs(self) -> None:
        stream = value_stream("mnist", self.seed)
        self.values = [row.tobytes() for row in stream.generate(self.sizes.pool)]

    def build(self) -> None:
        self._reset()
        self.store = PNWStore(self.config(
            featurizer="byte", load_factor=0.9, max_iter=8,
            retrain_check_interval=self.sizes.batch,
        ))
        self.preload(2 * self.sizes.steps)

    def prepare(self, index: int) -> None:
        batch, steps = self.sizes.batch, self.sizes.steps
        self.puts = [self.plan_puts(batch) for _ in range(steps)]
        self.deletes = [self.plan_oldest_deletes(batch) for _ in range(steps)]

    def segment(self, index: int) -> int:
        for pairs in self.puts:
            self.run_batch(self.store.put_many, pairs)
        for keys in self.deletes:
            self.run_batch(self.store.delete_many, keys, sample=False)
        return 2 * self.sizes.batch * self.sizes.steps


WORKLOADS = {
    cls.name: cls
    for cls in (SteerBatch, IngestRuns, IngestMixed, TierZipfRW, ChurnRestart)
}

__all__ = ["WORKLOADS", "Workload", "Sizes", "FIXED_SEED"]
