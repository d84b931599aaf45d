"""Table 1: hardware cost of Occamy's components.

The paper synthesizes the head-drop selector (64-queue bitmap), the
fixed-priority arbiter and the head-drop executor with Vivado (FPGA) and
Design Compiler (45 nm ASIC).  This harness reports the analytical cost model
of :mod:`repro.hw.components` in the same row format, plus the comparison
against the Maximum Finder circuit Pushout would need (Difficulty 3).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.hw import MaximumFinder, occamy_hardware_report


def run(scale: str = "small", seed: int = 0, num_queues: int = 64,
        bit_width: int = 20) -> ExperimentResult:
    """Hardware cost rows for the Occamy components and the Pushout MF."""
    del scale, seed  # the cost model is analytic and scale-free
    report = occamy_hardware_report(num_queues=num_queues, bit_width=bit_width)
    result = ExperimentResult(
        "table1_hw_cost",
        notes=f"{num_queues}-queue selector, {bit_width}-bit queue lengths, 45nm model",
    )
    for row in report.rows():
        result.add_row(**row)

    # Context row: the maximum finder Pushout would need instead.
    finder = MaximumFinder(num_inputs=num_queues, bit_width=bit_width)
    cost = finder.cost()
    result.add_row(
        module="pushout_max_finder",
        loc=0,
        luts=cost.gate_count // 6,
        flip_flops=0,
        timing_ns=round(cost.delay_ns(), 2),
        area_mm2=float("nan"),
        power_mw=float("nan"),
    )
    result.add_row(
        module="occamy_total",
        loc=286,
        luts=report.total_luts,
        flip_flops=report.total_flip_flops,
        timing_ns=report.critical_path_ns,
        area_mm2=round(report.total_area_mm2, 4),
        power_mw=round(report.total_power_mw, 3),
    )
    return result
