"""Account stage: build per-op reports and feed the store's counters.

Report construction is pure bookkeeping — no stage after commit touches
the device, the pool, or the index — so the account stage can run after
a chunk's whole commit and still record reports in the exact order the
sequential loop would (each endurance-update key's delete report lands
immediately before its put report).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core.reports import OperationReport
from .commit import PutCommit
from .steer import DeleteSteering, UpdateSteering

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pipeline import MutationEngine

__all__ = [
    "account_puts",
    "account_deletes",
    "account_endurance_updates",
    "account_latency_updates",
]


def account_puts(
    engine: "MutationEngine",
    keys: list[bytes],
    clusters: np.ndarray,
    predict_ns: float,
    commit: PutCommit,
) -> list[OperationReport]:
    """One PUT report per committed pair, recorded in order."""
    metrics = engine.store.metrics
    reports: list[OperationReport] = []
    for i in range(len(keys)):
        op = OperationReport(
            op="put",
            key=keys[i],
            address=int(commit.addresses[i]),
            cluster=int(clusters[i]),
            fallback_used=bool(commit.fallbacks[i]),
            bit_updates=commit.write_reports[i].bit_updates,
            words_touched=commit.write_reports[i].words_touched,
            lines_touched=commit.write_reports[i].lines_touched,
            nvm_latency_ns=commit.write_reports[i].latency_ns,
            predict_ns=predict_ns,
            retrained=commit.retrained[i],
        )
        metrics.record(op)
        reports.append(op)
    return reports


def account_deletes(
    engine: "MutationEngine",
    done: list[tuple[bytes, int]],
    clusters: list[int],
    steering: DeleteSteering,
) -> list[OperationReport]:
    """One DELETE report per recycled key, recorded in order."""
    metrics = engine.store.metrics
    reports: list[OperationReport] = []
    for i, (key, address) in enumerate(done):
        op = OperationReport(
            op="delete",
            key=key,
            address=address,
            cluster=clusters[i],
            fallback_used=False,
            bit_updates=0,
            words_touched=0,
            lines_touched=0,
            nvm_latency_ns=0.0,
            predict_ns=steering.predict_ns,
            retrained=False,
        )
        metrics.record(op)
        reports.append(op)
    return reports


def account_endurance_updates(
    engine: "MutationEngine",
    keys: list[bytes],
    steering: UpdateSteering,
    commit: PutCommit,
    delete_reports: list[OperationReport],
    committed: int,
) -> list[OperationReport]:
    """Per-pair reports of an endurance-update chunk, delete-then-put.

    Each key's delete report is recorded immediately before its put
    report, matching the sequential record order; a trailing delete
    whose steered PUT found the pool empty is still recorded (its
    delete *did* happen) before the error escapes.  Returns the put
    reports — one per committed pair, the batch call's return shape.
    """
    metrics = engine.store.metrics
    reports: list[OperationReport] = []
    for i in range(committed):
        metrics.record(delete_reports[i])
        op = OperationReport(
            op="put",
            key=keys[i],
            address=int(commit.addresses[i]),
            cluster=int(steering.put_clusters[i]),
            fallback_used=bool(commit.fallbacks[i]),
            bit_updates=commit.write_reports[i].bit_updates,
            words_touched=commit.write_reports[i].words_touched,
            lines_touched=commit.write_reports[i].lines_touched,
            nvm_latency_ns=commit.write_reports[i].latency_ns,
            predict_ns=steering.predict_ns,
            retrained=commit.retrained[i],
        )
        metrics.record(op)
        reports.append(op)
    if len(delete_reports) > committed:
        metrics.record(delete_reports[committed])
    return reports


def account_latency_updates(
    engine: "MutationEngine",
    keys: list[bytes],
    addresses: np.ndarray,
    write_reports: list,
) -> list[OperationReport]:
    """One in-place UPDATE report per pair, recorded in order."""
    metrics = engine.store.metrics
    reports: list[OperationReport] = []
    for i, write_report in enumerate(write_reports):
        op = OperationReport(
            op="update",
            key=keys[i],
            address=int(addresses[i]),
            cluster=-1,
            fallback_used=False,
            bit_updates=write_report.bit_updates,
            words_touched=write_report.words_touched,
            lines_touched=write_report.lines_touched,
            nvm_latency_ns=write_report.latency_ns,
            predict_ns=0.0,
            retrained=False,
        )
        metrics.record(op)
        reports.append(op)
    return reports
