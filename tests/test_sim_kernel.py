"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.obs.trace import Tracer
from repro.sim.kernel import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_ties_broken_by_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("first"))
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_counts_from_the_current_clock(self):
        sim = Simulator()
        sim.advance(10.0)
        seen = []
        sim.schedule(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [12.0]

    def test_schedule_at_absolute_time(self):
        # The failure injectors place an event at an absolute instant as
        # ``schedule(time - now, ...)``, from whatever the clock reads.
        sim = Simulator()
        seen = []
        sim.advance(3.0)
        sim.schedule(7.0 - sim.now, lambda: seen.append(("a", sim.now)))
        sim.run(until=5.0)
        sim.schedule(6.0 - sim.now, lambda: seen.append(("b", sim.now)))
        sim.schedule(7.0 - sim.now, lambda: seen.append(("c", sim.now)))
        sim.run()
        assert seen == [("b", 6.0), ("a", 7.0), ("c", 7.0)]

    def test_tied_events_never_compare_callbacks(self):
        class Opaque:
            """A callback that refuses every comparison."""

            def __init__(self, tag, fired):
                self.tag, self.fired = tag, fired

            def __call__(self):
                self.fired.append(self.tag)

            def __eq__(self, other):
                raise AssertionError("callbacks compared")

            __lt__ = __le__ = __gt__ = __ge__ = __eq__
            __hash__ = object.__hash__

        sim = Simulator()
        fired = []
        for tag in range(50):
            sim.schedule(float(tag % 3), Opaque(tag, fired))
        assert sim.reach(1.0, fired.append, "leg") == 34
        assert sim.run() == 16
        assert fired == (
            [t for t in range(50) if t % 3 == 0]
            + [t for t in range(50) if t % 3 == 1]
            + ["leg"]
            + [t for t in range(50) if t % 3 == 2]
        )

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("chained"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "chained"]


class TestControl:
    def test_run_until_stops_early(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(10.0, lambda: seen.append(10))
        assert sim.run(until=5.0) == 1
        assert seen == [1]
        assert sim.now == 5.0
        # The later event is still queued and fires on the next run.
        assert sim.run() == 1
        assert seen == [1, 10] and sim.now == 10.0

    def test_determinism_per_seed(self):
        first = Simulator(seed=7).rng.random()
        second = Simulator(seed=7).rng.random()
        assert first == second

    def test_advance_moves_clock_without_dispatch(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.advance(0.5)
        assert sim.now == 0.5 and fired == []
        sim.run()
        assert fired == [1.0]

    def test_time_cannot_move_backwards(self):
        with pytest.raises(SimulationError):
            Simulator().advance(-1.0)

    def test_run_until_dispatches_events_at_the_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(sim.now))
        sim.schedule(2.0, lambda: sim.schedule(0.0, lambda: fired.append("chained")))
        sim.schedule(2.5, lambda: fired.append(sim.now))
        assert sim.run(until=2.0) == 3
        assert fired == [2.0, "chained"] and sim.now == 2.0

    def test_run_until_behind_the_clock_keeps_the_clock(self):
        sim = Simulator()
        fired = []
        sim.advance(5.0)
        sim.schedule(1.0, lambda: fired.append(sim.now))
        assert sim.run(until=3.0) == 0
        assert sim.now == 5.0 and fired == []
        assert sim.run() == 1 and fired == [6.0]

    def test_empty_run_returns_zero_and_keeps_the_clock(self):
        sim = Simulator()
        sim.advance(2.0)
        assert sim.run() == 0
        assert sim.now == 2.0
        assert sim.run(until=4.0) == 0
        assert sim.now == 4.0

    def test_callback_error_propagates_and_releases_the_guard(self):
        sim = Simulator()
        fired = []

        def boom():
            raise ValueError("boom")

        sim.schedule(1.0, boom)
        sim.schedule(2.0, lambda: fired.append(sim.now))
        with pytest.raises(ValueError):
            sim.run()
        assert sim.now == 1.0
        # The failing event is spent; the kernel runs what is left.
        assert sim.run() == 1
        assert fired == [2.0]


class TestDrain:
    def test_drain_dispatches_only_what_is_due(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append("now"))
        sim.schedule(1.0, lambda: fired.append("later"))
        assert sim.drain() == 1
        assert fired == ["now"] and sim.now == 0.0
        sim.advance(1.0)
        assert sim.drain() == 1
        assert fired == ["now", "later"] and sim.now == 1.0

    def test_drain_inside_a_dispatched_event_is_a_noop(self):
        sim = Simulator()
        drained = []
        sim.schedule(1.0, lambda: drained.append(sim.drain()))
        sim.schedule(1.0, lambda: drained.append("tie"))
        assert sim.run() == 2
        assert drained == [0, "tie"]


class TestTracing:
    def test_productive_batches_emit_one_sim_run_event_each(self):
        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        assert sim.run(until=0.5) == 0
        assert sim.reach(2.0, lambda: None) == 2
        assert sim.reach(2.5, lambda: None) == 0
        assert sim.run() == 1
        assert sim.drain() == 0
        assert [s.attrs for s in tracer.spans if s.name == "sim.run"] == [
            {"dispatched": 2},
            {"dispatched": 1},
        ]


class TestReach:
    """``reach`` runs a leg in place, in the turn a scheduled event would take."""

    def test_leg_runs_after_what_is_due_before_it(self):
        sim = Simulator()
        order = []
        sim.schedule(0.5, lambda: order.append(("early", sim.now)))
        sim.schedule(1.0, lambda: order.append(("tie", sim.now)))
        sim.schedule(3.0, lambda: order.append(("late", sim.now)))
        assert sim.reach(1.0, lambda tag: order.append((tag, sim.now)), "leg") == 2
        assert order == [("early", 0.5), ("tie", 1.0), ("leg", 1.0)]
        assert sim.now == 1.0
        assert sim.run() == 1
        assert order[-1] == ("late", 3.0)

    def test_events_scheduled_in_the_window_keep_their_turn(self):
        sim = Simulator()
        order = []
        # Scheduled during the window, at the leg's own instant: it takes
        # a later sequence number than the leg, so it fires after it.
        sim.schedule(0.5, lambda: sim.schedule(0.5, lambda: order.append("chained")))
        sim.reach(1.0, order.append, "leg")
        assert order == ["leg"]
        sim.run(until=1.0)
        assert order == ["leg", "chained"]

    def test_leg_runs_inside_the_reentrancy_guard(self):
        sim = Simulator()
        seen = []

        def leg():
            with pytest.raises(SimulationError):
                sim.run()
            assert sim.drain() == 0
            seen.append("leg")

        sim.schedule(0.0, lambda: seen.append("due"))
        sim.reach(2.0, leg)
        # The guard is released on return: the kernel runs again.
        sim.schedule(1.0, lambda: seen.append("after"))
        assert sim.run() == 1
        assert seen == ["due", "leg", "after"]

    def test_reach_refuses_the_past_and_reentry(self):
        sim = Simulator()
        sim.advance(3.0)
        with pytest.raises(SimulationError):
            sim.reach(2.0, lambda: None)
        sim.schedule(1.0, lambda: sim.reach(5.0, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_reach_at_the_current_instant_runs_due_events_first(self):
        sim = Simulator()
        sim.advance(2.0)
        order = []
        sim.schedule(0.0, lambda: order.append("due"))
        sim.schedule(0.5, lambda: order.append("later"))
        assert sim.reach(2.0, order.append, "leg") == 1
        assert order == ["due", "leg"] and sim.now == 2.0
        assert sim.run() == 1 and order[-1] == "later"
