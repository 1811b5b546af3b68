#!/usr/bin/env python
"""A minimal asyncio HTTP front door over the PNW store.

One event loop serves many concurrent clients: mutations are awaited
through :class:`repro.AsyncIngestQueue` (which coalesces them into
per-shard batches on the core queue's flusher thread) and GETs read
through the same admission layer, serialized per shard against
dispatch.  The point is the shape — an open socket in front of the
bounded, backpressured ingestion path — not a production HTTP stack.

Routes::

    PUT    /kv/<key>    body = value        -> 200 + JSON report
    POST   /kv/<key>    body = value        -> 200 + JSON report (update)
    GET    /kv/<key>                        -> 200 + raw value bytes
    DELETE /kv/<key>                        -> 200 + JSON report
    GET    /stats                           -> 200 + JSON counters

Missing keys map to 404, a full admission window (``shed`` policy) to
429, an expired admission deadline to 503.  Media-fault outcomes map
too: a store shedding writes in degraded mode answers 503 with a
``Retry-After`` header (the condition can clear — deletes or scrubbing
free healthy rows), and an unhideable media failure answers 507
Insufficient Storage.  ``GET /stats`` includes the media/scrubber
counters next to the ingest and tier blocks.

Run a server:   python examples/serve_http.py --port 8080
Run the demo:   python examples/serve_http.py --demo --clients 8

``--demo`` starts the server on an ephemeral port and drives it with
concurrent in-process HTTP clients issuing mixed GET/PUT/POST/DELETE
traffic over real sockets, verifying every read round-trips.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import numpy as np

from repro import AsyncIngestQueue, PNWConfig, TieredStore, make_store
from repro.errors import (
    DeadlineExceededError,
    DegradedModeError,
    KeyNotFoundError,
    MediaError,
    QueueFullError,
    ReproError,
)

REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
           429: "Too Many Requests", 503: "Service Unavailable",
           507: "Insufficient Storage"}

#: Retry-After (seconds) for degraded-mode 503s: deletes or a scrub
#: pass can free healthy capacity, so clients should come back.
DEGRADED_RETRY_AFTER = 2

#: Largest request body the server will buffer; a declared
#: Content-Length beyond this is rejected before any read.
MAX_BODY_BYTES = 1 << 20


class _BadRequest(Exception):
    """Unparseable request framing; the connection can't be kept alive."""


def build_store(args):
    config = PNWConfig(
        num_buckets=args.buckets, value_bytes=args.value_bytes, key_bytes=16,
        n_clusters=8, seed=7, shards=args.shards, tier_mode=args.tier_mode,
    )
    store = make_store(config)
    rng = np.random.default_rng(7)
    profiles = rng.integers(
        0, 256, size=(8, args.value_bytes), dtype=np.uint8
    )
    old = profiles[rng.integers(0, 8, args.buckets)] ^ np.packbits(
        (rng.random((args.buckets, args.value_bytes * 8)) < 0.02).astype(
            np.uint8
        ),
        axis=1,
    )
    store.warm_up(old)
    return store


class KVServer:
    """Request handler bridging HTTP verbs onto the async ingest queue."""

    def __init__(self, queue: AsyncIngestQueue) -> None:
        self.queue = queue
        self.served = {"get": 0, "put": 0, "update": 0, "delete": 0,
                       "errors": 0}

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    # Framing is broken, so the stream position is
                    # untrustworthy: answer 400 and drop the connection
                    # instead of trying to keep it alive.
                    self.served["errors"] += 1
                    body = json.dumps({"error": str(exc)}).encode()
                    writer.write(
                        f"HTTP/1.1 400 {REASONS[400]}\r\n"
                        f"Content-Length: {len(body)}\r\n"
                        "Connection: close\r\n\r\n".encode() + body
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                status, body, headers = await self._route(*request)
                extra = "".join(
                    f"{name}: {value}\r\n" for name, value in headers.items()
                )
                writer.write(
                    f"HTTP/1.1 {status} {REASONS[status]}\r\n"
                    f"Content-Length: {len(body)}\r\n{extra}"
                    "Connection: keep-alive\r\n\r\n".encode() + body
                )
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        finally:
            writer.close()

    @staticmethod
    async def _read_request(reader):
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            return None
        try:
            method, path, _ = line.decode("ascii").split(" ", 2)
        except (ValueError, UnicodeDecodeError):
            raise _BadRequest("malformed request line") from None
        length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            try:
                name, _, value = header.decode("ascii").partition(":")
            except UnicodeDecodeError:
                raise _BadRequest("malformed header") from None
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise _BadRequest("malformed Content-Length") from None
                if length < 0 or length > MAX_BODY_BYTES:
                    raise _BadRequest(
                        f"Content-Length outside [0, {MAX_BODY_BYTES}]"
                    )
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, body

    async def _route(self, method: str, path: str, body: bytes):
        try:
            if path == "/stats" and method == "GET":
                return 200, json.dumps(self._stats()).encode(), {}
            if not path.startswith("/kv/"):
                return 400, b'{"error": "unknown route"}', {}
            key = path[len("/kv/"):].encode()
            if method == "GET":
                value = await self.queue.get(key)
                self.served["get"] += 1
                return 200, value, {}
            if method == "PUT":
                report = await self.queue.put(key, body)
                self.served["put"] += 1
            elif method == "POST":
                report = await self.queue.update(key, body)
                self.served["update"] += 1
            elif method == "DELETE":
                report = await self.queue.delete(key)
                self.served["delete"] += 1
            else:
                return 400, b'{"error": "unsupported method"}', {}
            return 200, json.dumps(
                {"op": report.op, "address": report.address,
                 "cluster": report.cluster,
                 "bit_updates": report.bit_updates}
            ).encode(), {}
        except KeyNotFoundError:
            self.served["errors"] += 1
            return 404, b'{"error": "key not found"}', {}
        except QueueFullError:
            self.served["errors"] += 1
            return 429, b'{"error": "admission window full"}', {}
        except DeadlineExceededError:
            self.served["errors"] += 1
            return 503, b'{"error": "admission deadline exceeded"}', {}
        except DegradedModeError:
            # Before MediaError: degraded mode is its subclass, and —
            # unlike a raw media failure — it can clear, so tell the
            # client when to come back.
            self.served["errors"] += 1
            return (503, b'{"error": "store degraded: writes shed"}',
                    {"Retry-After": str(DEGRADED_RETRY_AFTER)})
        except MediaError as exc:
            self.served["errors"] += 1
            return (507, json.dumps({"error": str(exc)}).encode(), {})
        except (ReproError, ValueError) as exc:
            self.served["errors"] += 1
            return 400, json.dumps({"error": str(exc)}).encode(), {}

    def _stats(self) -> dict:
        """The /stats payload: request counters, the admission window's
        live state, the media/scrubber health block, and (when a DRAM
        tier is configured) its hit/flush accounting."""
        core = self.queue.queue
        store = core.store
        router = store.router_stats()  # None for a single-zone store
        return {
            "served": self.served,
            "ingest": {
                "ops_submitted": core.ops_submitted,
                "ops_rejected": core.ops_rejected,
                "ops_retried": core.ops_retried,
                "pending_ops": core.pending_ops,
                "max_pending": core.max_pending,
                "batches_dispatched": core.batches_dispatched,
            },
            "media": {**store.media_stats.as_dict(),
                      "degraded": store.degraded},
            "tier": (
                store.tier_stats.as_dict()
                if isinstance(store, TieredStore)
                else None
            ),
            "router": (
                None if router is None
                else {**router.as_dict(),
                      "routing_epoch": store.routing_epoch}
            ),
        }


# ---------------------------------------------------------------------- #
# demo client                                                             #
# ---------------------------------------------------------------------- #

async def http_call(host, port, method, path, body=b""):
    """One HTTP request on a fresh connection; returns (status, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode()
            + body
        )
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode().partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await reader.readexactly(length) if length else b""
        return status, payload
    finally:
        writer.close()


async def demo_client(client_id, host, port, requests, value_bytes, stats):
    """Mixed PUT/GET/POST/DELETE traffic with read-your-write checks."""
    rng = np.random.default_rng(1000 + client_id)
    live = {}
    for i in range(requests):
        roll = rng.random()
        if live and roll < 0.25:
            key = f"c{client_id}-{rng.choice(sorted(live))}"
            status, payload = await http_call(host, port, "GET", f"/kv/{key}")
            assert status == 200, (status, payload)
            if payload != live[key.split("-", 1)[1]]:
                stats["mismatches"] += 1
            stats["gets"] += 1
        elif live and roll < 0.35:
            name = rng.choice(sorted(live))
            value = bytes(rng.integers(0, 256, value_bytes, dtype=np.uint8))
            status, _ = await http_call(
                host, port, "POST", f"/kv/c{client_id}-{name}", value
            )
            assert status == 200
            live[name] = value
            stats["updates"] += 1
        elif live and roll < 0.45:
            name = rng.choice(sorted(live))
            status, _ = await http_call(
                host, port, "DELETE", f"/kv/c{client_id}-{name}"
            )
            assert status == 200
            del live[name]
            stats["deletes"] += 1
        else:
            name = f"k{i}"
            value = bytes(rng.integers(0, 256, value_bytes, dtype=np.uint8))
            status, _ = await http_call(
                host, port, "PUT", f"/kv/c{client_id}-{name}", value
            )
            assert status == 200
            live[name] = value
            stats["puts"] += 1
    # A read of a key nobody wrote must 404, not crash the server.
    status, _ = await http_call(host, port, "GET", f"/kv/c{client_id}-nope")
    assert status == 404
    stats["misses"] += 1


async def run_demo(args) -> int:
    store = build_store(args)
    async with AsyncIngestQueue(
        store, max_batch=args.max_batch, max_delay=args.max_delay_ms / 1000.0,
        overload=args.overload,
    ) as queue:
        kv = KVServer(queue)
        server = await asyncio.start_server(kv.handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        print(f"serving on 127.0.0.1:{port} "
              f"({args.shards} shard(s), overload={args.overload})")
        stats = {"puts": 0, "gets": 0, "updates": 0, "deletes": 0,
                 "misses": 0, "mismatches": 0}
        async with server:
            await asyncio.gather(*(
                demo_client(c, "127.0.0.1", port, args.requests,
                            args.value_bytes, stats)
                for c in range(args.clients)
            ))
            status, payload = await http_call(
                "127.0.0.1", port, "GET", "/stats"
            )
            assert status == 200
        total = sum(v for k, v in stats.items() if k != "mismatches")
        print(f"HTTP demo: {args.clients} concurrent clients, "
              f"{total} requests "
              f"({stats['puts']} put / {stats['gets']} get / "
              f"{stats['updates']} update / {stats['deletes']} delete / "
              f"{stats['misses']} expected-404)")
        print(f"read-your-write mismatches={stats['mismatches']}")
        print(f"server counters: {payload.decode()}")
    store.close()
    return 1 if stats["mismatches"] else 0


async def run_server(args) -> int:
    store = build_store(args)
    async with AsyncIngestQueue(
        store, max_batch=args.max_batch, max_delay=args.max_delay_ms / 1000.0,
        overload=args.overload,
    ) as queue:
        server = await asyncio.start_server(
            KVServer(queue).handle, args.host, args.port
        )
        port = server.sockets[0].getsockname()[1]
        print(f"serving on {args.host}:{port} — PUT/GET/POST/DELETE "
              f"/kv/<key>, GET /stats (Ctrl-C to stop)")
        async with server:
            await server.serve_forever()
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--demo", action="store_true",
                        help="self-drive the server with concurrent clients")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=25,
                        help="requests per demo client")
    parser.add_argument("--buckets", type=int, default=4096)
    parser.add_argument("--value-bytes", type=int, default=32)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--tier-mode", default="off",
                        choices=["off", "write_through", "write_back"],
                        help="DRAM tier placement policy for the store")
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--max-delay-ms", type=float, default=2.0)
    parser.add_argument("--overload", default="block",
                        choices=["block", "shed", "deadline"])
    args = parser.parse_args()
    if args.demo:
        return asyncio.run(run_demo(args))
    try:
        return asyncio.run(run_server(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


if __name__ == "__main__":
    sys.exit(main())
