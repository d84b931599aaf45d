"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.core import ABM, DynamicThreshold, Occamy, Pushout
from repro.core.expulsion import RoundRobinPointer, TokenBucket
from repro.hw import MaximumFinder, RoundRobinArbiterCircuit
from repro.metrics.percentiles import cdf_points, mean, percentile
from repro.sim import Simulator
from repro.sim.units import GBPS, KB
from repro.switchsim import Packet, SharedMemorySwitch, SwitchConfig
from repro.switchsim.cells import CellPool


# ----------------------------------------------------------------------
# Cell pool: allocation/release conservation
# ----------------------------------------------------------------------
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=9000), min_size=1, max_size=60),
    cell_bytes=st.sampled_from([64, 200, 256]),
)
@settings(max_examples=60, deadline=None)
def test_cell_pool_conservation(sizes, cell_bytes):
    pool = CellPool(buffer_bytes=256 * KB, cell_bytes=cell_bytes)
    descriptors = []
    for size in sizes:
        pd = pool.allocate(Packet(size_bytes=size))
        if pd is not None:
            descriptors.append(pd)
        # Invariant: used + free == total, never negative.
        assert pool.used_cells + pool.free_cells == pool.total_cells
        assert pool.free_cells >= 0
    for pd in descriptors:
        pool.release(pd, read_data=False)
    assert pool.free_cells == pool.total_cells


class _PointerListPool:
    """Reference model: the free cell *pointer list* the counters replaced.

    Allocation slices pointers off a LIFO free list, release appends them
    back; every capacity figure is derived from the list's length.
    """

    def __init__(self, buffer_bytes, cell_bytes):
        self.cell_bytes = cell_bytes
        self.total_cells = buffer_bytes // cell_bytes
        self.free = list(range(self.total_cells))
        self.pointer_memory_ops = self.data_memory_reads = self.data_memory_writes = 0

    def allocate(self, size_bytes):
        needed = -(-size_bytes // self.cell_bytes)
        remaining = len(self.free) - needed
        if remaining < 0:
            return None
        pointers = self.free[remaining:]
        del self.free[remaining:]
        self.pointer_memory_ops += needed
        self.data_memory_writes += needed
        return pointers

    def release(self, pointers, read_data):
        self.free.extend(pointers)
        self.pointer_memory_ops += len(pointers)
        if read_data:
            self.data_memory_reads += len(pointers)
        return len(pointers) * self.cell_bytes

    def figures(self):
        free_cells = len(self.free)
        used_cells = self.total_cells - free_cells
        return (free_cells, used_cells, free_cells * self.cell_bytes,
                used_cells * self.cell_bytes, self.pointer_memory_ops,
                self.data_memory_reads, self.data_memory_writes)


@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("allocate"), st.integers(min_value=1, max_value=4000)),
            st.tuples(st.just("release"), st.integers(min_value=0, max_value=10**6),
                      st.booleans())),
        min_size=1, max_size=120),
    cell_bytes=st.sampled_from([64, 200, 256]),
)
@settings(max_examples=150, deadline=None)
def test_cell_pool_counters_match_pointer_list_reference(ops, cell_bytes):
    """Counting cells is indistinguishable from shuffling their pointers."""
    buffer_bytes = 10_000  # not a multiple of every cell size; fills quickly
    pool = CellPool(buffer_bytes, cell_bytes)
    reference = _PointerListPool(buffer_bytes, cell_bytes)
    live = []  # (descriptor, reference pointers)
    for op in ops:
        if op[0] == "allocate":
            descriptor = pool.allocate(Packet(size_bytes=op[1]))
            pointers = reference.allocate(op[1])
            assert (descriptor is None) == (pointers is None)
            if descriptor is not None:
                assert descriptor.num_cells == len(pointers)
                live.append((descriptor, pointers))
        elif live:
            descriptor, pointers = live.pop(op[1] % len(live))
            assert (pool.release(descriptor, read_data=op[2])
                    == reference.release(pointers, read_data=op[2]))
        assert (pool.free_cells, pool.used_cells, pool.free_bytes, pool.used_bytes,
                pool.pointer_memory_ops, pool.data_memory_reads,
                pool.data_memory_writes) == reference.figures()
        assert pool.free_bytes + pool.used_bytes == pool.total_cells * cell_bytes


# ----------------------------------------------------------------------
# DT threshold properties
# ----------------------------------------------------------------------
@given(
    alpha=st.floats(min_value=0.125, max_value=16.0),
    occupancy_packets=st.integers(min_value=0, max_value=60),
)
@settings(max_examples=60, deadline=None)
def test_dt_threshold_nonnegative_and_proportional(alpha, occupancy_packets):
    sim = Simulator()
    config = SwitchConfig(num_ports=2, port_rate_bps=10 * GBPS, buffer_bytes=100 * KB)
    dt = DynamicThreshold(alpha=alpha)
    switch = SharedMemorySwitch(config, dt, sim)
    for _ in range(occupancy_packets):
        switch.receive(Packet(size_bytes=1500), 0)
    queue = switch.queue_for(1)
    threshold = dt.threshold(queue, 0.0)
    assert threshold >= 0
    assert threshold <= alpha * switch.buffer_size_bytes
    assert threshold == alpha * switch.free_buffer_bytes


# ----------------------------------------------------------------------
# Eq. 2: steady-state free buffer decreases with alpha and N
# ----------------------------------------------------------------------
@given(
    alpha=st.floats(min_value=0.25, max_value=32.0),
    n=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=100, deadline=None)
def test_dt_steady_state_reservation_bounds(alpha, n):
    dt = DynamicThreshold(alpha=alpha)
    buffer_bytes = 1_000_000.0
    free = dt.steady_state_free_buffer(n, buffer_bytes)
    assert 0 < free <= buffer_bytes
    # Larger alpha reserves less free buffer.
    assert free <= dt.steady_state_free_buffer(n, buffer_bytes) + 1e-9
    larger_alpha = DynamicThreshold(alpha=alpha * 2)
    assert larger_alpha.steady_state_free_buffer(n, buffer_bytes) < free


# ----------------------------------------------------------------------
# Occamy fairness bound (Eq. 3) is always > 1
# ----------------------------------------------------------------------
@given(
    alpha=st.floats(min_value=0.5, max_value=16.0),
    n=st.integers(min_value=0, max_value=32),
    m=st.integers(min_value=1, max_value=32),
)
@settings(max_examples=100, deadline=None)
def test_occamy_fair_ratio_exceeds_one(alpha, n, m):
    occ = Occamy(alpha=alpha)
    assert occ.max_fair_arrival_ratio(n, m) > 1.0


# ----------------------------------------------------------------------
# Token bucket never exceeds capacity and never goes negative via expulsion
# ----------------------------------------------------------------------
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["fwd", "expel", "wait"]),
                  st.floats(min_value=0.0, max_value=20.0)),
        min_size=1, max_size=50,
    )
)
@settings(max_examples=60, deadline=None)
def test_token_bucket_invariants(ops):
    bucket = TokenBucket(rate_cells_per_sec=1000.0, capacity_cells=100.0)
    now = 0.0
    expel_consumed = 0.0
    for kind, amount in ops:
        if kind == "wait":
            now += amount / 1000.0
        elif kind == "fwd":
            bucket.consume_forwarding(amount, now)
        else:
            before = bucket.available(now)
            if bucket.try_consume_expulsion(amount, now):
                expel_consumed += amount
                # Expulsion only granted when tokens covered it.
                assert before + 1e-6 >= amount
        assert bucket.available(now) <= bucket.capacity + 1e-9
    assert bucket.expel_cells_consumed >= expel_consumed - 1e-9


# ----------------------------------------------------------------------
# Expulsion engine: the O(1) idle proof and the fused victim scans agree with
# the comparator bitmap + arbiter they replaced
# ----------------------------------------------------------------------
def reference_bitmap(switch):
    """Figure 9's per-queue comparators: one flag per queue, q_i > T_i."""
    free = switch.free_buffer_bytes
    bitmap = []
    for queue in switch.queue_views():
        alpha = (switch.manager.alpha if queue.alpha_override is None
                 else queue.alpha_override)
        bitmap.append(queue.length_bytes > max(0.0, alpha * free))
    return bitmap


def reference_select_longest(bitmap, lengths):
    best, best_length = None, -1
    for index, flag in enumerate(bitmap):
        if flag and lengths[index] > best_length:
            best, best_length = index, lengths[index]
    return best


def expelled_counts(switch):
    return [queue.expelled_packets for queue in switch.queue_views()]


occupied_switch = st.fixed_dictionaries({
    "queues": st.lists(
        st.tuples(
            st.lists(st.integers(min_value=1, max_value=3000), max_size=6),
            st.sampled_from([None, None, -2.0, 0, 0.0, 0.25, 1.0, 8, 16.0]),
        ),
        min_size=1, max_size=8),
    "alpha": st.sampled_from([0.5, 1.0, 8.0]),
    "cell_bytes": st.sampled_from([64, 200, 256]),
    "free_cells": st.integers(min_value=0, max_value=400),
    "in_flight_bytes": st.integers(min_value=0, max_value=3000),
})


def build_occupied_switch(state, manager):
    """A switch holding exactly the drawn queues, in-flight bytes and free cells.

    Packets bypass admission (the properties are about states, however they
    were reached); the expulsion token bucket is too large to ever block.
    """
    cell_bytes = state["cell_bytes"]
    sizes = [size for packets, _ in state["queues"] for size in packets]
    if state["in_flight_bytes"]:
        sizes.append(state["in_flight_bytes"])
    used_cells = sum(-(-size // cell_bytes) for size in sizes)
    total_cells = max(1, used_cells + state["free_cells"])
    config = SwitchConfig(
        num_ports=len(state["queues"]), port_rate_bps=10 * GBPS,
        buffer_bytes=total_cells * cell_bytes, cell_bytes=cell_bytes,
        expulsion_token_capacity_bytes=total_cells * cell_bytes * 64)
    switch = SharedMemorySwitch(config, manager, Simulator())
    for port, (packets, override) in enumerate(state["queues"]):
        queue = switch.queue_for(port)
        if override is not None:
            queue.alpha_override = override
        for size in packets:
            queue.push(switch.cell_pool.allocate(Packet(size_bytes=size)))
    if state["in_flight_bytes"]:
        # Cells held by a packet on the wire: in U, in no queue.
        switch.cell_pool.allocate(Packet(size_bytes=state["in_flight_bytes"]))
    return switch


@given(state=occupied_switch)
@settings(max_examples=200, deadline=None)
def test_idle_proof_implies_all_clear_bitmap(state):
    manager = Occamy(alpha=state["alpha"])
    switch = build_occupied_switch(state, manager)
    bitmap = reference_bitmap(switch)
    assert bitmap == [manager.over_allocated(q, 0.0) for q in switch.queue_views()]
    if manager.proves_none_over_allocated():
        assert not any(bitmap)
        assert switch.expulsion_engine.run(0.0) == 0.0
        assert switch.expulsion_engine.passes == 0


@given(state=occupied_switch, start=st.integers(min_value=0, max_value=7))
@settings(max_examples=200, deadline=None)
def test_fused_round_robin_scan_matches_bitmap_arbiter(state, start):
    manager = Occamy(alpha=state["alpha"], max_drops_per_run=1)
    switch = build_occupied_switch(state, manager)
    engine = switch.expulsion_engine
    # Start both arbiters from the same arbitrary pointer: granting queue
    # ``pointer - 1`` leaves the reference pointing at ``pointer``.
    n = switch.total_queue_count
    engine.pointer = start % n
    reference = RoundRobinPointer()
    reference.grant([i == (engine.pointer - 1) % n for i in range(n)])
    assert reference.pointer == engine.pointer
    for _ in range(50):  # one grant per run (max_drops_per_run=1), <= 48 packets
        bitmap = reference_bitmap(switch)
        scanned = manager.first_over_allocated(engine.pointer, 0.0)
        expected = reference.grant(bitmap)
        assert scanned == expected
        before = expelled_counts(switch)
        engine.run(0.0)
        if expected is not None:
            before[expected] += 1
        assert expelled_counts(switch) == before
        assert engine.pointer == reference.pointer
        if expected is None:
            break
    else:
        raise AssertionError("more grants than packets")
    assert engine.total_expelled_packets == sum(expelled_counts(switch))
    assert engine.passes == engine.total_expelled_packets
    assert engine.max_victims_per_pass <= 1


@given(state=occupied_switch)
@settings(max_examples=200, deadline=None)
def test_fused_longest_scan_matches_bitmap_selector(state):
    manager = Occamy(alpha=state["alpha"], victim_policy="longest",
                     max_drops_per_run=1)
    switch = build_occupied_switch(state, manager)
    engine = switch.expulsion_engine
    for _ in range(60):
        lengths = [queue.length_bytes for queue in switch.queue_views()]
        expected = reference_select_longest(reference_bitmap(switch), lengths)
        assert manager.longest_over_allocated(0.0) == expected
        before = expelled_counts(switch)
        engine.run(0.0)
        if expected is None:
            assert expelled_counts(switch) == before
            break
        before[expected] += 1
        assert expelled_counts(switch) == before
    else:
        raise AssertionError("more grants than packets")
    assert engine.pointer == 0  # the longest policy never moves the arbiter


# ----------------------------------------------------------------------
# Round-robin arbiters: grants are work-conserving and fair
# ----------------------------------------------------------------------
@given(bitmap=st.lists(st.booleans(), min_size=1, max_size=32))
@settings(max_examples=100, deadline=None)
def test_round_robin_grants_only_set_bits(bitmap):
    rr = RoundRobinPointer()
    grant = rr.grant(bitmap)
    if any(bitmap):
        assert grant is not None and bitmap[grant]
    else:
        assert grant is None


@given(
    n=st.integers(min_value=2, max_value=16),
    rounds=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=50, deadline=None)
def test_round_robin_fairness_over_full_rounds(n, rounds):
    arb = RoundRobinArbiterCircuit(n)
    counts = [0] * n
    for _ in range(rounds * n):
        granted = arb.arbitrate([True] * n)
        counts[granted] += 1
    assert max(counts) - min(counts) == 0  # perfectly fair when all request


# ----------------------------------------------------------------------
# Maximum finder agrees with Python's max
# ----------------------------------------------------------------------
@given(values=st.lists(st.integers(min_value=0, max_value=2**16 - 1),
                       min_size=2, max_size=64))
@settings(max_examples=100, deadline=None)
def test_maximum_finder_matches_builtin_max(values):
    finder = MaximumFinder(num_inputs=len(values), bit_width=16)
    idx, value = finder.find_max(values)
    assert value == max(values)
    assert values[idx] == value
    assert idx == values.index(value)  # ties resolve to the lowest index


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=200),
       p=st.floats(min_value=0, max_value=100))
@settings(max_examples=100, deadline=None)
def test_percentile_bounded_by_min_max(values, p):
    result = percentile(values, p)
    tolerance = 1e-9 + 1e-9 * max(abs(v) for v in values)
    assert min(values) - tolerance <= result <= max(values) + tolerance
    assert min(values) - tolerance <= mean(values) <= max(values) + tolerance


@given(values=st.lists(st.floats(min_value=0, max_value=1e6,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_cdf_points_are_monotone(values):
    points = cdf_points(values)
    xs = [x for x, _ in points]
    ps = [p for _, p in points]
    assert xs == sorted(xs)
    assert ps == sorted(ps)
    assert ps[-1] == 1.0


# ----------------------------------------------------------------------
# Switch-level property: packets are conserved for any scheme
# ----------------------------------------------------------------------
@given(
    scheme=st.sampled_from(["dt", "occamy", "pushout"]),
    arrivals=st.lists(st.tuples(st.integers(min_value=64, max_value=1500),
                                st.integers(min_value=0, max_value=1)),
                      min_size=1, max_size=80),
)
@settings(max_examples=40, deadline=None)
def test_switch_packet_conservation_property(scheme, arrivals):
    sim = Simulator()
    config = SwitchConfig(num_ports=2, port_rate_bps=10 * GBPS, buffer_bytes=30 * KB)
    manager = {"dt": DynamicThreshold(alpha=1.0),
               "occamy": Occamy(alpha=8.0),
               "pushout": Pushout()}[scheme]
    switch = SharedMemorySwitch(config, manager, sim)
    for i, (size, port) in enumerate(arrivals):
        sim.schedule(i * 1e-7, lambda s=size, p=port: switch.receive(Packet(size_bytes=s), p))
    sim.run()
    stats = switch.stats
    assert stats.arrived_packets == len(arrivals)
    assert stats.arrived_packets == (
        stats.transmitted_packets + stats.dropped_packets
        + stats.expelled_packets + stats.evicted_packets
    )
    # Buffer fully drains once all arrivals are processed.
    assert switch.occupancy_bytes == 0


# ----------------------------------------------------------------------
# PR-3 invariant batteries guarding the hot-path rewrite
# ----------------------------------------------------------------------
def _make_manager(scheme: str):
    return {"dt": DynamicThreshold(alpha=1.0),
            "abm": ABM(alpha=2.0),
            "occamy": Occamy(alpha=8.0),
            "pushout": Pushout()}[scheme]


def _assert_buffer_conserved(switch) -> None:
    """Cell accounting invariants that must hold at every instant."""
    pool = switch.cell_pool
    # Cell conservation: every cell is either free or used, never negative.
    assert pool.used_cells + pool.free_cells == pool.total_cells
    assert 0 <= pool.used_cells <= pool.total_cells
    # Occupancy never exceeds capacity.
    assert switch.occupancy_bytes <= switch.buffer_size_bytes
    # The switch occupancy equals the cell-granular footprint of exactly the
    # descriptors resident in its queues plus any in-flight transmissions
    # (an in-flight packet's cells are freed when serialization completes).
    resident_cells = 0
    for queue in switch.queue_views():
        assert queue.length_bytes >= 0
        for descriptor in queue._descriptors:
            resident_cells += pool.cells_for(descriptor.packet.size_bytes)
    for port in switch.ports:
        if port.busy and port.tx_descriptor is not None:
            resident_cells += port.tx_descriptor.num_cells
    assert pool.used_cells == resident_cells
    # Byte-level view: queued bytes never exceed the cell-granular occupancy.
    assert switch.total_backlog_bytes() <= switch.occupancy_bytes


@given(
    scheme=st.sampled_from(["dt", "abm", "occamy", "pushout"]),
    arrivals=st.lists(
        st.tuples(st.integers(min_value=64, max_value=3000),
                  st.integers(min_value=0, max_value=3)),
        min_size=1, max_size=60),
    step=st.integers(min_value=1, max_value=7),
)
@settings(max_examples=40, deadline=None)
def test_buffer_conservation_under_randomized_traffic(scheme, arrivals, step):
    """Sum of queue occupancies == switch occupancy, never above capacity.

    The simulation is advanced a few events at a time so the invariant is
    checked at many interleavings of enqueue, dequeue and expulsion -- not
    just at quiescence.
    """
    sim = Simulator()
    config = SwitchConfig(num_ports=4, port_rate_bps=10 * GBPS,
                          buffer_bytes=24 * KB)
    switch = SharedMemorySwitch(config, _make_manager(scheme), sim)
    for i, (size, port) in enumerate(arrivals):
        sim.schedule(i * 2e-7,
                     lambda s=size, p=port: switch.receive(Packet(size_bytes=s), p))
    while sim.pending_events:
        sim.run(max_events=step)
        _assert_buffer_conserved(switch)
    _assert_buffer_conserved(switch)
    assert switch.occupancy_bytes == 0


@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=1e-3,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50),
)
@settings(max_examples=60, deadline=None)
def test_simulator_clock_is_monotone(delays):
    """The virtual clock never runs backwards, including nested scheduling."""
    sim = Simulator()
    observed = []

    def observe_and_reschedule(extra):
        observed.append(sim.now)
        if extra > 0:
            sim.schedule(extra, lambda: observed.append(sim.now))

    for delay in delays:
        sim.schedule(delay, lambda d=delay: observe_and_reschedule(d / 2))
    sim.run()
    assert observed == sorted(observed)
    assert sim.now == max(observed)


@given(
    scheme=st.sampled_from(["dt", "abm", "occamy"]),
    arrivals=st.lists(
        st.tuples(st.integers(min_value=64, max_value=3000),
                  st.integers(min_value=0, max_value=3)),
        min_size=1, max_size=50),
    probe_bytes=st.integers(min_value=64, max_value=3000),
    probe_port=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_admission_idempotence(scheme, arrivals, probe_bytes, probe_port):
    """``admit`` is a pure function of switch state for DT/ABM/Occamy.

    Asking the same question twice (without any intervening enqueue or
    dequeue) must return the same decision and leave thresholds unchanged,
    at every point of a randomized enqueue/dequeue sequence.
    """
    sim = Simulator()
    config = SwitchConfig(num_ports=4, port_rate_bps=10 * GBPS,
                          buffer_bytes=24 * KB)
    manager = _make_manager(scheme)
    switch = SharedMemorySwitch(config, manager, sim)
    for i, (size, port) in enumerate(arrivals):
        sim.schedule(i * 2e-7,
                     lambda s=size, p=port: switch.receive(Packet(size_bytes=s), p))
    while True:
        queue = switch.queue_for(probe_port)
        threshold_a = manager.threshold(queue, sim.now)
        first = manager.admit(queue, probe_bytes, sim.now)
        second = manager.admit(queue, probe_bytes, sim.now)
        threshold_b = manager.threshold(queue, sim.now)
        assert first.accept == second.accept
        assert first.reason == second.reason
        assert threshold_a == threshold_b
        if not sim.pending_events:
            break
        sim.run(max_events=5)


@given(
    scheme=st.sampled_from(["dt", "abm", "occamy", "pushout"]),
    arrivals=st.lists(
        st.tuples(st.integers(min_value=64, max_value=3000),
                  st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=1)),
        min_size=1, max_size=60),
)
@settings(max_examples=40, deadline=None)
def test_incremental_active_counts_match_rescan(scheme, arrivals):
    """The O(1) active-queue counters agree with a full rescan at all times."""
    sim = Simulator()
    config = SwitchConfig(num_ports=4, queues_per_port=2,
                          port_rate_bps=10 * GBPS, buffer_bytes=24 * KB)
    switch = SharedMemorySwitch(config, _make_manager(scheme), sim)
    for i, (size, port, cls) in enumerate(arrivals):
        sim.schedule(i * 2e-7,
                     lambda s=size, p=port, c=cls: switch.receive(
                         Packet(size_bytes=s), p, class_index=c))
    while True:
        expected_total = sum(1 for q in switch.queue_views() if q.is_active)
        assert switch.active_queue_count() == expected_total
        for priority in (0, 1):
            expected = sum(1 for q in switch.queue_views()
                           if q.is_active and q.priority == priority)
            assert switch.active_queue_count(priority) == expected
        if not sim.pending_events:
            break
        sim.run(max_events=3)
