"""Figure 18: all-to-all background traffic.

No other test runs this figure: it must complete at bench scale and report a
positive avg_qct_slowdown on every row.
"""

from repro.experiments.runner import run_experiment


def test_bench_fig18():
    result = run_experiment("fig18", scale="bench")
    assert result.rows, "fig18 produced no rows"
    assert all(row["avg_qct_slowdown"] > 0 for row in result.rows)
