#!/usr/bin/env python3
"""Example: leaf-spine fabric sweep using the experiment harness directly.

:func:`repro.experiments.runner.run_experiment` runs every figure of the
paper by name, with the harness's own options as keywords; this example
drives the Figure 17 harness (web-search background on a leaf-spine fabric)
programmatically, which is the easiest way to script custom parameter sweeps
on top of the library.

Run it with::

    python examples/leaf_spine_sweep.py
"""

from repro.experiments.common import get_scale
from repro.experiments.runner import run_experiment


def main():
    # The "bench" scale keeps this example fast (a couple of minutes at most);
    # switch to "small" or "paper" for larger fabrics.
    result = run_experiment("fig17", scale="bench", schemes=["occamy", "dt"],
                            query_size_fractions=(0.4, 0.8))
    print(result)

    # Post-process the rows like any experiment result: compare Occamy vs DT.
    print("\nOccamy vs DT (average QCT slowdown):")
    for fraction in sorted({row["query_size_frac"] for row in result.rows}):
        occ = result.filter(query_size_frac=fraction, scheme="occamy")[0]
        dt = result.filter(query_size_frac=fraction, scheme="dt")[0]
        improvement = 1.0 - occ["avg_qct_slowdown"] / max(1e-9, dt["avg_qct_slowdown"])
        print(f"  query size {fraction:.0%} of buffer: "
              f"occamy {occ['avg_qct_slowdown']:.2f} vs dt {dt['avg_qct_slowdown']:.2f} "
              f"({improvement:+.0%} QCT improvement)")

    config = get_scale("bench")
    print(f"\nFabric: {config.num_leaves} leaves x {config.num_spines} spines, "
          f"{config.hosts_per_leaf} hosts/leaf, "
          f"{config.fabric_link_rate_bps / 1e9:.0f} Gbps links")


if __name__ == "__main__":
    main()
