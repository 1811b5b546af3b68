"""Process-parallel shard execution over shared-memory zones.

The thread executor's ceiling is the GIL: PR 4's probe engine made the
per-op Python fraction small, but on a busy multi-shard store the
remaining interpreter work of N shards still serializes on one core.
This module breaks that ceiling with one long-lived **worker process**
per shard.  Each worker owns a complete, unmodified
:class:`~repro.core.store.PNWStore` whose durable regions — the NVM data
zone, the validity bitmap, and both devices' wear counters — live in a
:class:`~repro.nvm.shm.SharedZone` (one ``multiprocessing.shared_memory``
segment per shard) that the parent created and also maps.  Requests
travel over a private duplex pipe as small command tuples; replies carry
compact :class:`~repro.core.reports.OperationReport` payloads (or the
pickled engine exception, whose ``committed_reports`` attributes survive
the trip).  Addresses in replies are shard-local;
:class:`~repro.shard.store.ShardedPNWStore` globalizes them exactly as
it does for thread-mode shards, so the two executors are
indistinguishable above this layer.

Worker-crash semantics
----------------------
The shared zone holds precisely the state the single store's
:meth:`~repro.core.store.PNWStore.recover` path reads after a simulated
power failure, so a worker process dying — even ``kill -9`` — is
*survivable independently of the parent*: the client respawns the
worker, the fresh worker re-attaches the same segment (attachment never
zeroes anything), and the standard recovery path rebuilds the volatile
DRAM state (index, model, pool) from the surviving bitmap + data zone.
Only the dead worker's unflagged in-flight operations are lost — the
torn-shard guarantee of a power failure, now scoped to one process.  A
death detected *between* requests heals transparently; a death *during*
a request raises :class:`~repro.errors.WorkerCrashedError` after the
respawn+recover, so the caller can simply retry the lost operations.
With ``persist_flags=False`` (the paper's Fig. 2a architecture) there is
no persistent bitmap, so a crashed worker restarts empty — the same
"crash recovery unavailable" trade-off the single store documents.

What stays worker-local on purpose: the DRAM hash index, the k-means
model, and the probe engine's free lists + content cache.  They are
exactly the structures the recovery path rebuilds, they are written on
every hot-path op (sharing them would turn each op into cross-process
synchronization), and keeping them private preserves the byte-identity
contract — each worker runs the very same engine code a thread-mode
shard runs.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import weakref
from collections.abc import ItemsView, KeysView, ValuesView
from typing import Any

import numpy as np

from ..core.config import PNWConfig
from ..core.store import PNWStore
from ..errors import ReproError, WorkerCrashedError
from ..nvm.shm import SharedZone, ZoneLayout
from ..nvm.stats import SharedWearStats

__all__ = ["ShardProcessClient", "zone_layout_for"]


def _mp_context():
    """``fork`` where available (fast, shares the resource tracker), else
    ``spawn``.  Workers import nothing beyond what the parent already
    loaded, so fork is safe here."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")  # pragma: no cover - non-Linux


def zone_layout_for(config: PNWConfig) -> ZoneLayout:
    """The shared-segment layout of one shard zone built from ``config``.

    Media-enabled configs map the fault model's stuck-bit mask into the
    segment too, so a respawned worker inherits which cells have already
    failed (the row-retirement bitmap is always present)."""
    return ZoneLayout(
        num_buckets=config.num_buckets,
        bucket_bytes=config.bucket_bytes,
        track_bit_wear=config.track_bit_wear,
        media_stuck=config.media_enabled,
    )


# ---------------------------------------------------------------------- #
# worker side                                                             #
# ---------------------------------------------------------------------- #

def _resolve(store: PNWStore, path: str) -> Any:
    obj: Any = store
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _sanitize(value: Any) -> Any:
    """Make RPC results picklable: materialize iterators and dict views
    (e.g. ``index.items()``) into lists; everything else rides as-is."""
    if isinstance(value, (ItemsView, KeysView, ValuesView)):
        return list(value)
    if hasattr(value, "__next__") and hasattr(value, "__iter__"):
        return list(value)
    return value


def _install_sabotage(store: PNWStore, rows_before_kill: int) -> None:
    """Test hook: make the next data-zone multi-row flush write only its
    first ``rows_before_kill`` rows and then SIGKILL this worker —
    a deterministic mid-commit process crash (the flags of the batch are
    set *after* ``write_many``, so the whole sub-batch dies unflagged)."""
    device = store.nvm
    original = type(device).write_many

    def torn_write_many(addresses, rows, scheme=None):
        original(device, addresses[:rows_before_kill],
                 rows[:rows_before_kill], scheme)
        os.kill(os.getpid(), signal.SIGKILL)

    device.write_many = torn_write_many


def _worker_main(layout: ZoneLayout, shm_name: str, config: PNWConfig,
                 conn) -> None:
    """Long-lived per-shard worker: attach the zone, build the store,
    serve command tuples until ``exit`` (or parent death: EOF)."""
    zone = SharedZone.attach(layout, shm_name)
    store = PNWStore(config, zone=zone)
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            op = msg[0]
            try:
                if op == "exit":
                    conn.send(("ok", None))
                    break
                elif op == "call":
                    target = _resolve(store, msg[1])
                    conn.send(("ok", _sanitize(target(*msg[2], **msg[3]))))
                elif op == "get":
                    target = _resolve(store, msg[1])
                    if callable(target):
                        conn.send(("ok", ("callable", None)))
                    else:
                        conn.send(("ok", ("value", _sanitize(target))))
                elif op == "sabotage":
                    _install_sabotage(store, msg[1])
                    conn.send(("ok", None))
                else:
                    conn.send(("err", ReproError(f"unknown worker op {op!r}")))
            except Exception as exc:  # noqa: BLE001 - piped to the parent
                conn.send(("err", exc))
    finally:
        conn.close()
        zone.close()


# ---------------------------------------------------------------------- #
# parent-side facades                                                     #
# ---------------------------------------------------------------------- #

class _ZoneDeviceFacade:
    """Parent-side view of a worker's NVM device over the shared zone.

    Reads the same bytes and wear counters the worker writes — no RPC,
    no copies beyond :meth:`snapshot` — which is what the aggregation
    paths (``wear_stats`` merges) and the equivalence suites touch.
    """

    def __init__(self, view: np.ndarray, stats: SharedWearStats) -> None:
        self._view = view
        self.stats = stats
        self.num_buckets, self.bucket_bytes = view.shape

    @property
    def contents(self) -> np.ndarray:
        out = self._view.view()
        out.flags.writeable = False
        return out

    def snapshot(self) -> np.ndarray:
        return self._view.copy()

    def detach(self) -> None:
        """Swap the shared views for private copies (pre-unlink): reads
        after ``close()`` still see the final state, and the facade no
        longer pins the shared mapping open."""
        self._view = self._view.copy()
        self.stats.detach()


class _RemoteAttr:
    """Lazy dotted-path proxy for a worker-local component (``pool``,
    ``manager``, ``index``).  Attribute reads round-trip to the worker;
    an attribute that resolves to a callable comes back as a caller that
    round-trips its invocation.  Purely for introspection/test surface —
    the hot paths never touch it."""

    def __init__(self, client: "ShardProcessClient", path: str) -> None:
        self._client = client
        self._path = path

    def __getattr__(self, name: str):
        if name.startswith("_client") or name.startswith("_path"):
            raise AttributeError(name)
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)  # keep pickle/copy honest
        path = f"{self._path}.{name}"
        kind, value = self._client._get(path)
        if kind == "callable":
            return lambda *args, **kwargs: self._client._call(
                path, *args, **kwargs
            )
        return value


def _reap(holder: dict, zone: SharedZone) -> None:
    """GC / interpreter-exit safety net: kill the worker, free the zone."""
    proc = holder.get("proc")
    if proc is not None and proc.is_alive():  # pragma: no cover - GC timing
        proc.terminate()
        proc.join(timeout=1.0)
    zone.close()
    zone.unlink()


# ---------------------------------------------------------------------- #
# parent-side client                                                      #
# ---------------------------------------------------------------------- #

class ShardProcessClient:
    """One shard's process-executor handle: shared zone + worker + pipe.

    Exposes the slice of the :class:`PNWStore` surface the sharded layer
    and its test suites use, with identical semantics — every mutation
    executes the very same engine code in the worker, so state and
    reports are byte-identical to a thread-mode shard.  All requests on
    one client serialize on an internal lock (the sharded store already
    serializes K/V traffic per shard; the lock additionally keeps
    concurrent introspection reads off a busy pipe).
    """

    def __init__(self, shard_id: int, config: PNWConfig, *, ctx=None) -> None:
        self.shard_id = shard_id
        self.config = config
        self._ctx = ctx if ctx is not None else _mp_context()
        self.layout = zone_layout_for(config)
        self.zone = SharedZone.create(self.layout)
        self._rpc_lock = threading.Lock()
        self._closed = False
        self._proc = None
        self._conn = None
        self._holder: dict = {"proc": None}
        self._finalizer = weakref.finalize(self, _reap, self._holder, self.zone)
        self._spawn()
        self.nvm = _ZoneDeviceFacade(self.zone.view("data"),
                                     self.zone.data_stats())
        self.flags_nvm = _ZoneDeviceFacade(self.zone.view("flags"),
                                           self.zone.flag_stats())
        self.pool = _RemoteAttr(self, "pool")
        self.manager = _RemoteAttr(self, "manager")
        self.index = _RemoteAttr(self, "index")

    # ------------------------------------------------------------------ #
    # worker lifecycle                                                    #
    # ------------------------------------------------------------------ #

    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self.layout, self.zone.name, self.config, child_conn),
            name=f"pnw-shard-{self.shard_id}",
            daemon=True,
        )
        proc.start()
        # Close our copy of the child end immediately: the worker must be
        # the only holder, so its death (even SIGKILL) turns into EOF on
        # our end instead of a hang.
        child_conn.close()
        self._proc = proc
        self._conn = parent_conn
        self._holder["proc"] = proc

    def _revive_locked(self) -> None:
        """Respawn the worker over the surviving zone and run recovery.

        The segment's bytes are untouched by the old worker's death, so
        the fresh worker's store attaches them as-is and — when the
        persistent validity bitmap exists — the ordinary
        :meth:`PNWStore.recover` path rebuilds index/model/pool from it.
        """
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already broken
            pass
        if self._proc.is_alive():  # pragma: no cover - raced liveness check
            self._proc.terminate()
        self._proc.join(timeout=5.0)
        self._spawn()
        if self.config.persist_flags:
            self._conn.send(("call", "recover", (), {}))
            status, payload = self._conn.recv()
            if status == "err":  # pragma: no cover - recover() is total here
                raise payload

    @property
    def pid(self) -> int | None:
        """The live worker's PID (tests aim ``kill -9`` at it)."""
        return self._proc.pid if self._proc is not None else None

    def is_alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker and free the shared zone (idempotent)."""
        with self._rpc_lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._conn.send(("exit",))
                self._conn.recv()
            except (EOFError, ConnectionError, OSError):
                pass  # worker already gone
            self._conn.close()
            self._proc.join(timeout=timeout)
            if self._proc.is_alive():  # pragma: no cover - stuck worker
                self._proc.terminate()
                self._proc.join(timeout=timeout)
            self._holder["proc"] = None
            self.nvm.detach()
            self.flags_nvm.detach()
            self.zone.close()
            self.zone.unlink()
            self._finalizer.detach()

    # ------------------------------------------------------------------ #
    # transport                                                           #
    # ------------------------------------------------------------------ #

    def _request(self, *msg) -> Any:
        with self._rpc_lock:
            if self._closed:
                raise ReproError(
                    f"shard {self.shard_id} worker is shut down (store closed)"
                )
            if not self._proc.is_alive():
                # The worker died idle (between requests): nothing was in
                # flight, so recovery loses nothing — heal transparently.
                self._revive_locked()
            try:
                self._conn.send(msg)
                status, payload = self._conn.recv()
            except (EOFError, ConnectionError, OSError) as exc:
                self._revive_locked()
                raise WorkerCrashedError(
                    f"shard {self.shard_id} worker process died "
                    f"mid-request; the zone was recovered from its shared "
                    f"segment (unflagged in-flight ops lost) — retry"
                ) from exc
            if status == "err":
                raise payload
            return payload

    def _call(self, path: str, *args, **kwargs) -> Any:
        return self._request("call", path, args, kwargs)

    def _get(self, path: str) -> tuple[str, Any]:
        return self._request("get", path)

    # ------------------------------------------------------------------ #
    # test support                                                        #
    # ------------------------------------------------------------------ #

    def sabotage_next_flush(self, rows_before_kill: int) -> None:
        """Arm the deterministic mid-commit SIGKILL (crash tests only)."""
        self._request("sabotage", int(rows_before_kill))


# ---------------------------------------------------------------------- #
# PNWStore surface (shard-local addresses; the sharded layer globalizes,  #
# exactly as for thread-mode shards) — one round-trip per call            #
# ---------------------------------------------------------------------- #

#: Leaf methods the client forwards verbatim (arguments must pickle, so
#: batch arguments are lists).  ``run_shard_batches`` ships a whole run
#: sequence in one round-trip; ``set_defer_retrain`` /
#: ``set_keep_reports`` flip flags on the worker-resident objects.
_RPC_METHODS = (
    "put", "put_unique", "put_many", "update", "update_many",
    "delete", "delete_many", "get", "get_many", "run_shard_batches",
    "warm_up", "retrain", "crash", "recover", "scrub",
    "set_defer_retrain", "set_keep_reports", "__len__", "__contains__",
)
#: Leaf attributes read as snapshots of the worker store's state
#: (``metrics`` carries kept reports with shard-local addresses).
_RPC_PROPERTIES = (
    "live_fraction", "total_free", "metrics", "media_stats", "degraded",
)


def _rpc_method(name: str):
    def method(self: ShardProcessClient, *args, **kwargs):
        return self._call(name, *args, **kwargs)

    method.__name__ = name
    return method


def _rpc_property(name: str):
    return property(lambda self: self._get(name)[1])


for _name in _RPC_METHODS:
    setattr(ShardProcessClient, _name, _rpc_method(_name))
for _name in _RPC_PROPERTIES:
    setattr(ShardProcessClient, _name, _rpc_property(_name))
del _name
