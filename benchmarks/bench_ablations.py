"""Ablations of PNW's design choices — beyond the paper (how to run and
where the tables land: README.md, "Tests and benchmarks").

Four knobs the paper fixes (or leaves ambiguous) are swept here:

1. pool policy — min-Hamming probe depth (0 = Algorithm 2's plain pop),
2. PCA on/off for large values (speed vs steering quality),
3. full Lloyd retrain vs mini-batch refresh,
4. update mode — endurance (delete + steered put) vs latency (in place).
"""

import time

import numpy as np

from repro.bench import (
    ExperimentResult,
    report,
    run_pnw_stream,
)
from repro.ml import KMeans, MiniBatchKMeans
from repro.workloads import MNISTLikeWorkload, make_workload


def test_ablation_probe_depth(benchmark):
    """Deeper probing monotonically (within noise) reduces bit updates,
    at higher DRAM-side scoring cost."""
    workload = make_workload("amazon", seed=5)
    old, new = workload.split_old_new(512, 1500)
    result = ExperimentResult(
        exp_id="ablation-probe",
        title="Pool policy: probe depth vs bit updates (amazon, k=8)",
        columns=["probe_limit", "bits_per_512"],
    )
    series = {}
    for probe in (0, 4, 16, 64, -1):
        metrics, _ = run_pnw_stream(old, new, 8, seed=5, probe_limit=probe)
        series[probe] = metrics.bits_per_512
        result.add_row("all" if probe < 0 else probe, metrics.bits_per_512)
    report(result)
    assert series[-1] <= series[0]
    assert series[64] <= series[0]
    benchmark(lambda: min(series.values()))


def test_ablation_pca(benchmark):
    """PCA slashes prediction cost on large values without giving up the
    steering win."""
    workload = make_workload("cifar", seed=5)
    old, new = workload.split_old_new(256, 512)
    result = ExperimentResult(
        exp_id="ablation-pca",
        title="PCA on/off for 3 KB values (cifar, k=8)",
        columns=["pca", "bits_per_512", "predict_us", "train_s"],
    )
    outcomes = {}
    for pca in (None, 32):
        started = time.perf_counter()
        metrics, store = run_pnw_stream(
            old, new, 8, seed=5, pca_components=pca, featurizer="byte"
        )
        elapsed = time.perf_counter() - started
        outcomes[pca] = metrics
        result.add_row(
            "off" if pca is None else f"{pca} comps",
            metrics.bits_per_512,
            metrics.predict_ns_per_item / 1000.0,
            elapsed,
        )
    report(result)
    # The steering win survives projection (within 25%).
    assert outcomes[32].bits_per_512 < outcomes[None].bits_per_512 * 1.25
    benchmark(lambda: outcomes[32].bits_per_512)


def test_ablation_minibatch_retrain(benchmark):
    """Mini-batch refresh approaches full-Lloyd quality at a fraction of
    the training time (the background-retraining story of §V-C)."""
    images = MNISTLikeWorkload(seed=5).generate(2000).astype(np.float64)
    started = time.perf_counter()
    full = KMeans(8, n_init=1, seed=5).fit(images)
    full_time = time.perf_counter() - started
    started = time.perf_counter()
    mini = MiniBatchKMeans(8, batch_size=128, max_iter=30, seed=5).fit(images)
    mini_time = time.perf_counter() - started

    from repro.ml._parallel import assign_dense

    _, _, _, full_sse = assign_dense(images, full.cluster_centers_)
    _, _, _, mini_sse = assign_dense(images, mini.cluster_centers_)

    result = ExperimentResult(
        exp_id="ablation-minibatch",
        title="Full Lloyd vs mini-batch refresh (MNIST-like, k=8)",
        columns=["trainer", "sse", "seconds"],
    )
    result.add_row("lloyd", full_sse, full_time)
    result.add_row("minibatch", mini_sse, mini_time)
    report(result)
    assert mini_sse < full_sse * 1.5  # quality within 50%
    benchmark(lambda: assign_dense(images[:200], mini.cluster_centers_))


def test_ablation_update_mode(benchmark):
    """Endurance updates (delete + steered put) flip fewer bits than
    in-place updates — the §V-B3 trade-off, quantified."""
    from repro.bench import make_pnw_store, key_for

    workload = make_workload("amazon", seed=5)
    old = workload.generate(512)
    updates = workload.generate(1000)
    outcomes = {}
    for mode in ("endurance", "latency"):
        store = make_pnw_store(512, 64, 8, seed=5, update_mode=mode)
        store.warm_up(old)
        # Install 64 keys, then hammer them with updates.
        for i in range(64):
            store.put(key_for(i), old[i])
        bits = 0
        for i, value in enumerate(updates):
            report_op = store.update(key_for(i % 64), value)
            bits += report_op.bit_updates
        outcomes[mode] = bits / len(updates)
    result = ExperimentResult(
        exp_id="ablation-update-mode",
        title="Update mode: endurance vs latency (amazon, k=8)",
        columns=["mode", "bit_updates_per_update"],
    )
    for mode, bits in outcomes.items():
        result.add_row(mode, bits)
    report(result)
    assert outcomes["endurance"] < outcomes["latency"]
    benchmark(lambda: outcomes["endurance"])
