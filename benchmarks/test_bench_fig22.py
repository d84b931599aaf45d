"""Figure 22: heavy (120%) network load.

No other test runs this figure: it must complete at bench scale and report a
positive avg_qct_slowdown on every row.
"""

from repro.experiments.runner import run_experiment


def test_bench_fig22():
    result = run_experiment("fig22", scale="bench")
    assert result.rows, "fig22 produced no rows"
    assert all(row["avg_qct_slowdown"] > 0 for row in result.rows)
