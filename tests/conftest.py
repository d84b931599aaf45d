"""Shared pytest configuration for the test suite."""

import importlib.util
from pathlib import Path

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: end-to-end network-simulation tests (seconds each)"
    )


@pytest.fixture(scope="session")
def bench_specs():
    """The benchmark's spec generators (``bench/specs.py``), loaded by path."""
    path = Path(__file__).parent.parent / "bench" / "specs.py"
    module_spec = importlib.util.spec_from_file_location("bench_specs", path)
    specs = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(specs)
    return specs
