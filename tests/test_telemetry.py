"""Unit tests of the telemetry subsystem.

Covers the ring buffer (wraparound keeps the newest samples), the sampling
bus (sim-time cadence, tick accounting, probe registration, serialization),
the spec section (default omission, validation), the plot helpers (document
shapes, glob selection, CSV emission) and the ANSI boards (non-TTY fallback).
"""

import io
import json

import pytest

from repro.scenario.spec import ScenarioSpec, TelemetrySpec
from repro.sim.engine import Simulator
from repro.telemetry import CampaignBoard, LiveDashboard, RingSeries, TelemetryBus
from repro.telemetry.plot import extract_telemetry, select_series, write_csv


# ----------------------------------------------------------------------
# RingSeries
# ----------------------------------------------------------------------
def test_ring_series_below_capacity():
    ring = RingSeries(4)
    assert len(ring) == 0
    assert list(ring.values()) == []
    ring.push(1.0)
    ring.push(2.0)
    assert list(ring.values()) == [1.0, 2.0]
    assert ring.last() == 2.0
    assert not ring.wrapped
    assert ring.dropped == 0


def test_ring_series_wraparound_keeps_newest():
    ring = RingSeries(4)
    for value in range(7):
        ring.push(value)
    assert len(ring) == 4
    assert list(ring.values()) == [3, 4, 5, 6]
    assert ring.wrapped
    assert ring.dropped == 3
    assert ring.last() == 6


def test_ring_series_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        RingSeries(0)


# ----------------------------------------------------------------------
# TelemetrySpec
# ----------------------------------------------------------------------
def test_default_telemetry_section_is_omitted_from_spec_document():
    spec = ScenarioSpec.from_dict(json.loads(json.dumps({
        "name": "t", "scheme": {"name": "dt"},
        "topology": {"kind": "single_switch", "params": {"num_hosts": 4}},
        "duration": 0.001,
    })))
    assert spec.telemetry.is_default()
    assert "telemetry" not in spec.to_dict()


def test_enabled_telemetry_section_round_trips():
    section = {"enabled": True, "interval": 1e-4, "capacity": 64,
               "per_port": False}
    spec = TelemetrySpec.from_dict(section)
    assert spec.to_dict() == section
    assert not spec.is_default()


def test_telemetry_spec_validation():
    with pytest.raises(ValueError):
        TelemetrySpec(enabled=True, interval=0.0).validate()
    with pytest.raises(ValueError):
        TelemetrySpec(enabled=True, capacity=1).validate()


# ----------------------------------------------------------------------
# TelemetryBus cadence and accounting
# ----------------------------------------------------------------------
def _bus(spec: TelemetrySpec, horizon: float = 1.0):
    sim = Simulator()
    return sim, TelemetryBus(spec, sim, horizon=horizon)


def test_bus_requires_enabled_spec():
    with pytest.raises(ValueError):
        _bus(TelemetrySpec())


def test_bus_rejects_capacity_below_two():
    # The bus guards capacity itself -- not only via TelemetrySpec.validate()
    # -- so a duck-typed spec whose validate() is lax cannot reach the
    # divide-by-(capacity - 1) default cadence.  Same message as the spec.
    class LaxSpec:
        enabled = True
        capacity = 1
        interval = None
        per_port = False

        def validate(self):
            pass

    with pytest.raises(ValueError,
                       match=r"telemetry\.capacity must be >= 2, got 1"):
        TelemetryBus(LaxSpec(), Simulator(), horizon=1.0)


def test_default_cadence_fills_the_ring_exactly_once():
    # interval = horizon / (capacity - 1): one slot per tick, no wrap.
    sim, bus = _bus(TelemetrySpec(enabled=True, capacity=8), horizon=1.0)
    bus.start()
    sim.run(until=1.0)
    assert bus.ticks == 8
    assert list(bus.time.values()) == pytest.approx(
        [k / 7 for k in range(8)])
    assert bus.time.dropped == 0
    assert sim.now == 1.0


def test_explicit_short_interval_wraps_and_keeps_newest():
    sim, bus = _bus(TelemetrySpec(enabled=True, interval=0.05, capacity=4),
                    horizon=1.0)
    bus.start()
    sim.run(until=1.0)
    assert bus.ticks == 21  # t = 0.0, 0.05, ..., 1.0
    assert bus.time.dropped == 17
    assert list(bus.time.values()) == pytest.approx([0.85, 0.9, 0.95, 1.0])


def test_sampler_ticks_are_subtracted_from_event_counts():
    sim, bus = _bus(TelemetrySpec(enabled=True, capacity=5), horizon=1.0)
    bus.add_probe("sim.events_executed", bus.events_now)
    fired = []
    for k in range(10):
        sim.schedule(0.05 + k * 0.1, lambda: fired.append(sim.now))
    bus.start()
    sim.run(until=1.0)
    assert len(fired) == 10
    # Raw count includes the 5 sampler ticks; the series must not.
    assert sim.events_executed == 15
    events = list(bus.series["sim.events_executed"].values())
    assert events[-1] == 10  # the final sample saw all 10 traffic events
    assert events == sorted(events)
    # Post-run accounting (the runner's formula): subtract every tick.
    assert sim.events_executed - bus.ticks == 10


def test_probe_names_must_be_unique_and_bus_starts_once():
    sim, bus = _bus(TelemetrySpec(enabled=True), horizon=1.0)
    bus.add_probe("x", lambda: 0)
    with pytest.raises(ValueError, match="duplicate"):
        bus.add_probe("x", lambda: 0)
    bus.start()
    with pytest.raises(RuntimeError, match="already started"):
        bus.start()


def test_on_sample_hook_fires_every_tick():
    sim, bus = _bus(TelemetrySpec(enabled=True, capacity=6), horizon=1.0)
    seen = []
    bus.on_sample = lambda b: seen.append(b.ticks)
    bus.start()
    sim.run(until=1.0)
    assert seen == [1, 2, 3, 4, 5, 6]


def test_bus_to_dict_is_deterministic_and_excludes_wall_clock():
    def one_run():
        sim, bus = _bus(TelemetrySpec(enabled=True, capacity=4), horizon=1.0)
        counter = {"n": 0}

        def read():
            counter["n"] += 1
            return counter["n"]

        bus.add_probe("counter", read)
        bus.start()
        sim.run(until=1.0)
        return bus.to_dict()

    first, second = one_run(), one_run()
    assert first == second
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)
    assert "wall" not in json.dumps(first)
    assert first["series"]["counter"] == [1, 2, 3, 4]


# ----------------------------------------------------------------------
# Live event counting on the engine
# ----------------------------------------------------------------------
def test_live_event_counting_needs_no_opt_in():
    """A callback reads the number of events fired before it (bus or no bus)."""
    sim = Simulator()
    seen = []
    for i in range(3):
        sim.schedule(0.1 * (i + 1), lambda: seen.append(sim.events_executed))
    sim.schedule(0.15, lambda: sim.schedule(
        0.0, lambda: seen.append(sim.events_executed)))  # scheduled mid-run
    assert sim.run() == 5
    # Each callback runs before its own event is counted.
    assert seen == [0, 2, 3, 4]
    assert sim.events_executed == 5
    # The count is cumulative across run() calls and stays live.
    sim.schedule(0.1, lambda: seen.append(sim.events_executed))
    assert sim.run() == 1
    assert seen[-1] == 5 and sim.events_executed == 6


# ----------------------------------------------------------------------
# Plot helpers
# ----------------------------------------------------------------------
_SECTION = {
    "interval": 0.1, "capacity": 4, "ticks": 3, "dropped_samples": 0,
    "time": [0.0, 0.1, 0.2],
    "series": {"switch.s0.occupancy_bytes": [0, 10, 5],
               "sim.events_executed": [0, 2, 4]},
}


def test_extract_telemetry_handles_all_document_shapes():
    assert extract_telemetry(_SECTION)["ticks"] == 3
    assert extract_telemetry({"telemetry": _SECTION})["ticks"] == 3
    assert extract_telemetry(
        {"artifacts": {"telemetry": _SECTION}})["ticks"] == 3
    assert extract_telemetry(
        {"result": {"artifacts": {"telemetry": _SECTION}}})["ticks"] == 3
    with pytest.raises(ValueError, match="no telemetry section"):
        extract_telemetry({"flows": []})


def test_select_series_glob_and_errors():
    assert select_series(_SECTION) == ["sim.events_executed",
                                       "switch.s0.occupancy_bytes"]
    assert select_series(_SECTION, ["switch.*"]) == [
        "switch.s0.occupancy_bytes"]
    with pytest.raises(ValueError, match="no series match"):
        select_series(_SECTION, ["nope.*"])


def test_write_csv_emits_time_plus_selected_columns():
    out = io.StringIO()
    names = write_csv(_SECTION, out, ["sim.*"])
    assert names == ["sim.events_executed"]
    assert out.getvalue().splitlines() == [
        "time,sim.events_executed", "0.0,0", "0.1,2", "0.2,4"]


# ----------------------------------------------------------------------
# Boards (non-TTY fallback; full rendering is exercised via --live smoke)
# ----------------------------------------------------------------------
def test_live_dashboard_renders_through_a_real_bus():
    sim, bus = _bus(TelemetrySpec(enabled=True, capacity=4), horizon=1.0)
    stream = io.StringIO()
    board = LiveDashboard("unit", stream=stream, use_ansi=False,
                          min_refresh_s=0.0)
    bus.on_sample = board
    bus.start()
    sim.run(until=1.0)
    board.finish(bus)
    text = stream.getvalue()
    assert "[live] unit" in text
    assert "[done] unit" in text
    assert "samples 4" in text
    assert "\x1b[" not in text  # non-TTY stays plain


def test_campaign_board_tracks_outcomes():
    class Spec:
        experiment = "fig11"

    class Outcome:
        spec = Spec()
        status = "ok"
        ok = True
        elapsed = 0.5

    stream = io.StringIO()
    board = CampaignBoard([Spec(), Spec()], stream=stream, use_ansi=False,
                          min_refresh_s=0.0)
    board(1, 2, Outcome())
    cached = Outcome()
    cached.status = "cached"
    board(2, 2, cached)
    board.finish()
    text = stream.getvalue()
    assert "2/2 runs" in text
    assert "fig11" in text
    assert "cached 1" in text
