"""Property-based tests (hypothesis) for the simulation kernel and
randomness utilities."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _perfref
from repro.engine import (
    RandomStream,
    Resource,
    Simulator,
    Store,
)


class TestSimulatorProperties:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6),
                           min_size=1, max_size=50))
    def test_clock_ends_at_max_delay(self, delays):
        sim = Simulator()
        for delay in delays:
            sim.timeout(delay)
        assert sim.run() == max(delays)

    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1e3),
                           min_size=1, max_size=30))
    def test_completion_order_is_time_order(self, delays):
        sim = Simulator()
        finished = []

        def proc(sim, tag, delay):
            yield sim.timeout(delay)
            finished.append((sim.now, tag))

        for tag, delay in enumerate(delays):
            sim.spawn(proc(sim, tag, delay))
        sim.run()
        times = [t for t, _ in finished]
        assert times == sorted(times)
        assert len(finished) == len(delays)

    @given(
        n_procs=st.integers(min_value=1, max_value=20),
        capacity=st.integers(min_value=1, max_value=5),
        hold=st.floats(min_value=0.01, max_value=10.0),
    )
    def test_resource_never_exceeds_capacity(self, n_procs, capacity, hold):
        sim = Simulator()
        resource = Resource(sim, capacity=capacity)
        peak = {"value": 0}

        def proc(sim):
            yield resource.acquire()
            peak["value"] = max(peak["value"], resource.in_use)
            yield sim.timeout(hold)
            resource.release()

        for _ in range(n_procs):
            sim.spawn(proc(sim))
        sim.run()
        assert peak["value"] <= capacity
        assert resource.in_use == 0  # everything released

    @given(items=st.lists(st.integers(), min_size=1, max_size=50))
    def test_store_preserves_fifo_order(self, items):
        sim = Simulator()
        store = Store(sim)
        received = []

        def producer(sim):
            for item in items:
                yield store.put(item)

        def consumer(sim):
            for _ in items:
                value = yield store.get()
                received.append(value)

        sim.spawn(producer(sim))
        sim.spawn(consumer(sim))
        sim.run()
        assert received == items

    @given(
        items=st.lists(st.integers(), min_size=1, max_size=30),
        capacity=st.integers(min_value=1, max_value=5),
    )
    def test_bounded_store_still_delivers_everything(self, items, capacity):
        sim = Simulator()
        store = Store(sim, capacity=capacity)
        received = []

        def producer(sim):
            for item in items:
                yield store.put(item)

        def consumer(sim):
            for _ in items:
                yield sim.timeout(0.1)
                value = yield store.get()
                received.append(value)

        sim.spawn(producer(sim))
        sim.spawn(consumer(sim))
        sim.run()
        assert received == items


#: Half-unit time grid: sums stay exact in binary floating point, so the
#: generated programs hit many exact (when) ties across calendar tiers.
_HALVES = st.integers(min_value=0, max_value=12).map(lambda n: n * 0.5)

_CALENDAR_OPS = st.one_of(
    st.tuples(st.just("timeout"), _HALVES, st.integers(0, 3)),
    st.tuples(st.just("far"), st.integers(40, 60).map(float),
              st.integers(0, 2)),
    st.tuples(st.just("batch"), _HALVES, st.integers(1, 6), _HALVES),
    st.tuples(st.just("at"), _HALVES),
    st.tuples(st.just("same"), st.integers(1, 3)),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("run"), st.one_of(st.none(), _HALVES)),
)


def _run_calendar_program(sim, program, drain_until):
    """Drive ``program`` on ``sim``; return everything observable.

    Works on the production kernel and on the frozen heap kernel, which
    has no ``schedule_batch``: there a batch is a per-entry loop of
    ``_schedule_at``, the equivalent schedule sequence. Callbacks fired
    by batch entries chain follow-up timeouts and same-time calls, so
    below-horizon inserts also happen mid-run. ``peek()`` is read after
    every operation.
    """
    log = []
    timeouts = []
    counter = [0]
    singles = [0]
    fast_runs = [0]

    def fresh_id():
        counter[0] += 1
        return counter[0]

    def waiter(tag):
        return lambda evt: log.append((sim.now, "wake", tag))

    def timeout(delay, n_waiters):
        tag = fresh_id()
        evt = sim.timeout(delay)
        for k in range(n_waiters):
            evt.add_callback(waiter((tag, k)))
        singles[0] += n_waiters == 1
        timeouts.append(evt)

    def on_batch(payload):
        log.append((sim.now, "batch", payload))
        if payload % 3 == 0 and payload < 400:
            timeout((payload % 5) * 0.5, 1 + payload % 2)
        elif payload % 3 == 1 and payload < 400:
            tag = fresh_id()
            sim._schedule_at(sim.now, lambda: log.append((sim.now, "at", tag)))

    def schedule_batch(whens, payloads):
        if hasattr(sim, "schedule_batch"):
            sim.schedule_batch(whens, on_batch, payloads)
        else:
            for when, payload in zip(whens, payloads):
                sim._schedule_at(when, lambda p=payload: on_batch(p))

    nows, peeks = [], []
    for op in program:
        kind = op[0]
        if kind in ("timeout", "far"):
            timeout(op[1], op[2])
        elif kind == "batch":
            _, offset, count, step = op
            start = sim.now + offset
            whens = [start + i * step for i in range(count)]
            schedule_batch(whens, [fresh_id() for _ in range(count)])
        elif kind == "at":
            tag = fresh_id()
            sim._schedule_at(sim.now + op[1],
                             lambda t=tag: log.append((sim.now, "at", t)))
        elif kind == "same":
            gate = sim.event()
            tag = fresh_id()
            for k in range(op[1]):
                gate.add_callback(waiter((tag, k)))
            gate.succeed()
            gate.add_callback(waiter((tag, "late")))
        elif kind == "cancel":
            if timeouts:
                timeouts[op[1] % len(timeouts)].cancel()
        elif kind == "run":
            if op[1] is None:
                fast_runs[0] += 1
                nows.append(sim.run())
            else:
                nows.append(sim.run(until=sim.now + op[1]))
        peeks.append(sim.peek())
    if drain_until:
        nows.append(sim.run(until=sim.now + 10_000.0))
    else:
        fast_runs[0] += 1
        nows.append(sim.run())
    peeks.append(sim.peek())
    return {
        "log": log,
        "nows": nows,
        "peeks": peeks,
        "now": sim.now,
        "events": sim.events_processed,
        "singles": singles[0],
        "fast_runs": fast_runs[0],
    }


class TestCalendarDifferential:
    """The three-tier calendar against the frozen binary-heap kernel.

    Random programs mix far-future timeouts, ``schedule_batch`` slices,
    below-horizon ``_schedule_at`` calls, same-time callbacks,
    multi-waiter events, cancellations and ``run(until=...)`` slices,
    with a ``peek()`` after every step. The firing sequence, every clock reading, every
    ``peek()`` value and the event count must match
    :class:`repro._perfref.Simulator` exactly.
    """

    @given(
        program=st.lists(_CALENDAR_OPS, min_size=1, max_size=40),
        drain_until=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_frozen_heap_kernel(self, program, drain_until):
        got = _run_calendar_program(Simulator(), program, drain_until)
        want = _run_calendar_program(_perfref.Simulator(), program,
                                     drain_until)
        assert got["log"] == want["log"]
        assert got["nows"] == want["nows"]
        assert got["peeks"] == want["peeks"]
        assert got["now"] == want["now"]
        assert got["peeks"][-1] is None
        if got["fast_runs"] and got["singles"]:
            # The fast loop dispatches a timeout's sole waiter inline
            # when nothing else is due at that instant, which pops one
            # calendar entry fewer than the heap kernel; every other
            # entry is popped (and counted) by both.
            assert (want["events"] - got["singles"]
                    <= got["events"] <= want["events"])
        else:
            assert got["events"] == want["events"]


class TestRandomStreamProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_fork_determinism(self, seed):
        a = RandomStream(seed).fork("child")
        b = RandomStream(seed).fork("child")
        assert a.uniform() == b.uniform()

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_items=st.integers(min_value=1, max_value=1000),
        skew=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=30)
    def test_zipf_indices_in_support(self, seed, n_items, skew):
        stream = RandomStream(seed)
        indices = stream.zipf_indices(n_items, skew, size=100)
        assert indices.min() >= 0
        assert indices.max() < n_items

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        low=st.integers(min_value=-100, max_value=100),
        width=st.integers(min_value=1, max_value=50),
    )
    def test_integer_bounds(self, seed, low, width):
        stream = RandomStream(seed)
        draw = stream.integer(low, low + width)
        assert low <= draw < low + width

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        items=st.lists(st.integers(), min_size=1, max_size=30),
    )
    def test_shuffle_is_permutation(self, seed, items):
        stream = RandomStream(seed)
        assert sorted(stream.shuffle(items)) == sorted(items)
