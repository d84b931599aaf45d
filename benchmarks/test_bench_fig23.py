"""Figure 23: buffer-size sweep (KB per port per Gbps).

No other test runs this figure: it must complete at bench scale and report a
positive avg_qct_slowdown on every row.
"""

from repro.experiments.runner import run_experiment


def test_bench_fig23():
    result = run_experiment("fig23", scale="bench")
    assert result.rows, "fig23 produced no rows"
    assert all(row["avg_qct_slowdown"] > 0 for row in result.rows)
