"""Figure 14: performance isolation across DRR service queues.

No other test runs this figure: it must complete at bench scale and report a
positive avg_qct_ms on every row.
"""

from repro.experiments.runner import run_experiment


def test_bench_fig14():
    result = run_experiment("fig14", scale="bench")
    assert result.rows, "fig14 produced no rows"
    assert all(row["avg_qct_ms"] > 0 for row in result.rows)
