"""Figure 11: queue-length evolution of Occamy vs DT (P4 testbed scenario).

One sender pushes long-lived traffic at 100 Gbps towards receiver 1 (a 10 Gbps
port), keeping that queue at its DT threshold.  A short burst (~0.8 us at
100 Gbps in the paper; scaled here to a configurable size) then arrives for
receiver 2 (another 10 Gbps port).  With Occamy, the over-allocated queue 1 is
actively drained by head drops so queue 2 reaches its fair share without
dropping packets; with DT and a large alpha, queue 2 drops packets before it
is allocated its fair share.

The run reports, per (scheme, alpha): the burst's drop count, queue 2's
maximum length, queue 1's length at the end of the burst, and the threshold at
that time -- the quantities visible in the paper's time-series plots.

Sampling rides the telemetry subsystem (:mod:`repro.telemetry`): each run
executes with the sampling bus enabled, the per-event queue series come from
:mod:`repro.telemetry.series` (their home since the bus landed), and
``main(--csv ...)`` emits each run's cadence-sampled bus document through the
same :func:`repro.telemetry.series.write_csv` as ``python -m repro.analysis
qlen``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.experiments.common import Figure
from repro.scenario import ScenarioResult, ScenarioSpec, packet_burst_scenario
from repro.scenario.spec import TelemetrySpec
from repro.sim.units import GBPS, KB, MB
from repro.telemetry.series import QueueLengthSeries, trace_to_series, write_csv


def burst_scenario(
    scheme: str,
    alpha: float,
    burst_bytes: int = 600 * KB,
    buffer_bytes: int = 2 * MB,
    sender_rate_bps: float = 100 * GBPS,
    port_rate_bps: float = 10 * GBPS,
    warmup: float = 300e-6,
    tail: float = 300e-6,
    chip_ports: int = 32,
) -> ScenarioSpec:
    """The long-lived + burst scenario for one (scheme, alpha) pair.

    Only two ports carry traffic, but the chip is dimensioned for
    ``chip_ports`` ports (the paper's Tofino has far more switching capacity
    than the two 10 Gbps receivers), so its memory bandwidth leaves plenty of
    redundant read bandwidth for Occamy's expulsions.

    The run executes with the telemetry bus attached (read-only sampling:
    rows and traces are byte-identical to a bus-less run), so its result
    also carries cadence-sampled series under ``result.telemetry``.
    """
    if scheme not in ("occamy", "dt"):
        raise ValueError(f"figure 11 compares occamy and dt, not {scheme!r}")
    burst_time = burst_bytes * 8 / sender_rate_bps
    total = warmup + burst_time + tail
    spec = packet_burst_scenario(
        scheme=scheme,
        scheme_kwargs={"alpha": alpha},
        stream_specs=[
            {"rate_bps": sender_rate_bps, "port": 0, "duration": total},
        ],
        burst_specs=[
            {"burst_bytes": burst_bytes, "rate_bps": sender_rate_bps,
             "port": 1, "start_time": warmup},
        ],
        port_rate_bps=port_rate_bps,
        buffer_bytes=buffer_bytes,
        memory_bandwidth_bps=2 * chip_ports * port_rate_bps,
        duration=total,
        name="fig11_queue_evolution",
    )
    spec.telemetry = TelemetrySpec(enabled=True)
    return spec


def points(scale: str = "small", seed: int = 0,
           alphas: Tuple[float, ...] = (1.0, 4.0)) -> Figure:
    """Occamy and DT at each alpha (the experiment is deterministic)."""
    del seed
    burst_bytes = 400 * KB if scale == "bench" else 600 * KB
    return Figure(
        "fig11_queue_evolution",
        notes="long-lived traffic on q1, burst on q2; P4 prototype scenario",
        points=[({"scheme": scheme, "alpha": alpha, "burst_bytes": burst_bytes},
                 burst_scenario(scheme, alpha, burst_bytes=burst_bytes))
                for scheme in ("occamy", "dt") for alpha in alphas],
    )


def row(keys: Dict[str, object], result: ScenarioResult) -> Dict[str, object]:
    """Queue-length evolution summary of one (scheme, alpha) run."""
    switch = result.switch
    series = trace_to_series(switch.stats.queue_trace)
    q1 = series.get(0, QueueLengthSeries(0))
    q2 = series.get(1, QueueLengthSeries(1))
    alpha = keys["alpha"]
    # Steady-state fair share with two congested queues: alpha*B/(1+2*alpha).
    fair_queue_len = alpha * switch.buffer_size_bytes / (1 + 2 * alpha)
    fair_target = min(fair_queue_len, keys["burst_bytes"])
    first_drop_len = switch.stats.first_drop_queue_length.get(1)
    return dict(
        keys,
        burst_drops=switch.stats.per_queue_drops.get(1, 0),
        q2_max_kb=round(q2.max_length / KB, 1),
        q1_max_kb=round(q1.max_length / KB, 1),
        q1_expelled=switch.stats.per_queue_expulsions.get(0, 0),
        first_drop_at_kb=(
            round(first_drop_len / KB, 1) if first_drop_len is not None else None
        ),
        dropped_before_fair=bool(
            first_drop_len is not None and first_drop_len < 0.9 * fair_target
        ),
    )


def main(argv: List[str] = None) -> None:
    import argparse
    from pathlib import Path

    from repro.experiments.runner import run_points

    parser = argparse.ArgumentParser(
        description="Figure 11 summary table; optionally emit the sampled "
                    "queue-evolution series of each run as CSV")
    parser.add_argument("--csv", type=Path, default=None, metavar="DIR",
                        help="write one telemetry CSV per (scheme, alpha) "
                             "run into this directory")
    args = parser.parse_args(argv)
    figure = points()
    rows, telemetry = [], []
    for keys, result in run_points(figure):
        rows.append(row(keys, result))
        telemetry.append((keys, result.telemetry.to_dict()))
    print(figure.result(rows))
    if args.csv is not None:
        args.csv.mkdir(parents=True, exist_ok=True)
        for keys, document in telemetry:
            path = args.csv / f"fig11_{keys['scheme']}_alpha{keys['alpha']}.csv"
            with open(path, "w") as stream:
                write_csv(document, stream)
            print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover
    main()
