"""Figure 15: buffer-choking mitigation under strict priority.

No other test runs this figure: it must complete at bench scale and report a
positive qct_without_bg_ms on every row.
"""

from repro.experiments.runner import run_experiment


def test_bench_fig15():
    result = run_experiment("fig15", scale="bench")
    assert result.rows, "fig15 produced no rows"
    assert all(row["qct_without_bg_ms"] > 0 for row in result.rows)
