"""Figure 20: higher query-traffic load sweep.

No other test runs this figure: it must complete at bench scale and report a
positive avg_qct_slowdown on every row.
"""

from repro.experiments.runner import run_experiment


def test_bench_fig20():
    result = run_experiment("fig20", scale="bench")
    assert result.rows, "fig20 produced no rows"
    assert all(row["avg_qct_slowdown"] > 0 for row in result.rows)
