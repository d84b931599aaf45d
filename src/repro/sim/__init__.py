"""Discrete-event simulation kernel used by the switch and network simulators."""

from repro.sim.engine import Simulator
from repro.sim.events import Event, EventQueue
from repro.sim.kernel import (
    HeapKernel,
    SimKernel,
    available_kernels,
    make_kernel,
    register_kernel,
)
from repro.sim.rng import SeededRNG
from repro.sim.units import (
    GBPS,
    KB,
    MB,
    MBPS,
    US,
    MS,
    NS,
    bits_to_bytes,
    bytes_to_bits,
    rate_to_bytes_per_sec,
    transmission_time,
)

__all__ = [
    "Event",
    "EventQueue",
    "HeapKernel",
    "SimKernel",
    "Simulator",
    "SeededRNG",
    "available_kernels",
    "make_kernel",
    "register_kernel",
    "GBPS",
    "MBPS",
    "KB",
    "MB",
    "US",
    "MS",
    "NS",
    "bits_to_bytes",
    "bytes_to_bits",
    "rate_to_bytes_per_sec",
    "transmission_time",
]
