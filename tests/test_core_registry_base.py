"""Tests for the scheme registry and BufferManager base plumbing."""

import pytest

from repro.core import (
    ABM,
    BufferManager,
    CompleteSharing,
    DynamicThreshold,
    Occamy,
    Pushout,
    StaticThreshold,
    available_schemes,
    make_buffer_manager,
    register_scheme,
)
from repro.core.base import AdmissionDecision, EvictionRequest, clamp_threshold
from repro.sim import Simulator
from repro.sim.units import GBPS, KB
from repro.switchsim import Packet, SharedMemorySwitch, SwitchConfig


class TestRegistry:
    def test_builtin_schemes_present(self):
        names = available_schemes()
        for expected in ("dt", "abm", "occamy", "pushout", "complete_sharing"):
            assert expected in names

    def test_make_buffer_manager_with_kwargs(self):
        manager = make_buffer_manager("dt", alpha=4.0)
        assert isinstance(manager, DynamicThreshold)
        assert manager.alpha == 4.0

    def test_make_each_builtin(self):
        for name in available_schemes():
            manager = make_buffer_manager(name)
            assert isinstance(manager, BufferManager)

    def test_unknown_scheme(self):
        with pytest.raises(KeyError):
            make_buffer_manager("not_a_scheme")

    def test_register_custom_scheme(self):
        class MyScheme(DynamicThreshold):
            name = "my_scheme"

        register_scheme("my_scheme", MyScheme)
        assert "my_scheme" in available_schemes()
        assert isinstance(make_buffer_manager("my_scheme"), MyScheme)

    def test_register_requires_name(self):
        with pytest.raises(ValueError):
            register_scheme("", DynamicThreshold)


class TestBaseHelpers:
    def test_clamp_threshold(self):
        assert clamp_threshold(-5) == 0.0
        assert clamp_threshold(float("nan")) == 0.0
        assert clamp_threshold(7.5) == 7.5

    def test_admission_decision_defaults(self):
        decision = AdmissionDecision(True)
        assert decision.accept and decision.evictions == [] and decision.reason == ""

    def test_eviction_request_fields(self):
        req = EvictionRequest(queue_id=3, from_head=True, max_bytes=1500)
        assert req.queue_id == 3 and req.from_head and req.max_bytes == 1500

    def test_attach_detach(self):
        sim = Simulator()
        config = SwitchConfig(num_ports=2, port_rate_bps=10 * GBPS,
                              buffer_bytes=100 * KB)
        dt = DynamicThreshold()
        switch = SharedMemorySwitch(config, dt, sim)
        assert dt.switch is switch
        dt.detach()
        assert dt.switch is None

    def test_over_allocated_definition(self):
        sim = Simulator()
        config = SwitchConfig(num_ports=2, port_rate_bps=10 * GBPS,
                              buffer_bytes=100 * KB)
        dt = DynamicThreshold(alpha=1.0)
        switch = SharedMemorySwitch(config, dt, sim)
        q0 = switch.queue_for(0)
        assert not dt.over_allocated(q0, 0.0)
        # Fill queue 0 up to its threshold, then grow queue 1: the shrinking
        # free buffer lowers the threshold below queue 0's length, making it
        # over-allocated exactly as in Figure 3(b).
        for _ in range(40):
            switch.receive(Packet(size_bytes=1500), 0)
        for _ in range(20):
            switch.receive(Packet(size_bytes=1500), 1)
        assert dt.over_allocated(q0, 0.0)

    def test_effective_alpha_override(self):
        dt = DynamicThreshold(alpha=1.0)
        sim = Simulator()
        config = SwitchConfig(num_ports=2, port_rate_bps=10 * GBPS,
                              buffer_bytes=100 * KB)
        switch = SharedMemorySwitch(config, dt, sim)
        queue = switch.queue_for(0)
        assert dt.effective_alpha(queue, 1.0) == 1.0
        queue.alpha_override = 8.0
        assert dt.effective_alpha(queue, 1.0) == 8.0

    def test_repr_and_describe(self):
        # CompleteSharing keeps the base describe(); the others override it.
        for manager in (DynamicThreshold(), ABM(), Occamy(), Pushout(),
                        StaticThreshold(), CompleteSharing()):
            assert manager.name in repr(manager) or manager.name in manager.describe()
