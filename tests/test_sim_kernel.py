"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
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

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.advance(10.0)
        seen = []
        sim.schedule_at(12.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [12.0]

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
        sim.run(until=5.0)
        assert seen == [1]
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_max_events_cap(self):
        sim = Simulator()
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        assert sim.run(max_events=2) == 2

    def test_cancel(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(1.0, lambda: seen.append(1))
        sim.cancel(handle)
        sim.run()
        assert seen == []

    def test_determinism_per_seed(self):
        first = Simulator(seed=7).rng.random()
        second = Simulator(seed=7).rng.random()
        assert first == second

    def test_advance_moves_clock_without_dispatch(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.advance(0.5)
        assert sim.now == 0.5 and sim.pending == 1

    def test_time_cannot_move_backwards(self):
        with pytest.raises(SimulationError):
            Simulator().advance(-1.0)

    def test_max_events_does_not_warp_the_clock(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, lambda: fired.append(sim.now))
        sim.call_at(2.0, lambda: fired.append(sim.now))
        assert sim.run(until=10.0, max_events=1) == 1
        # The 2.0 event is still due: the clock must not jump past it.
        assert sim.now == 1.0 and sim.pending == 1
        sim.call_at(5.0, lambda: fired.append(sim.now))
        sim.run(until=10.0)
        assert fired == [1.0, 2.0, 5.0]
        assert sim.now == 10.0


class TestReach:
    """``reach`` runs a leg in place, in the turn a ``call_at`` would take."""

    def test_leg_runs_after_what_is_due_before_it(self):
        sim = Simulator()
        order = []
        sim.call_at(0.5, lambda: order.append(("early", sim.now)))
        sim.call_at(1.0, lambda: order.append(("tie", sim.now)))
        sim.call_at(3.0, lambda: order.append(("late", sim.now)))
        assert sim.reach(1.0, lambda tag: order.append((tag, sim.now)), "leg") == 2
        assert order == [("early", 0.5), ("tie", 1.0), ("leg", 1.0)]
        assert sim.now == 1.0 and sim.pending == 1

    def test_events_scheduled_in_the_window_keep_their_turn(self):
        sim = Simulator()
        order = []
        # Scheduled during the window, at the leg's own instant: it takes
        # a later sequence number than the leg, so it fires after it.
        sim.call_at(0.5, lambda: sim.call_at(1.0, lambda: order.append("chained")))
        sim.reach(1.0, order.append, "leg")
        assert order == ["leg"]
        sim.run(until=1.0)
        assert order == ["leg", "chained"]

    def test_leg_runs_inside_the_reentrancy_guard(self):
        sim = Simulator()
        seen = []

        def leg():
            seen.append(sim.dispatching)
            with pytest.raises(SimulationError):
                sim.run()
            assert sim.drain() == 0

        sim.reach(2.0, leg)
        assert seen == [True] and not sim.dispatching

    def test_reach_refuses_the_past_and_reentry(self):
        sim = Simulator()
        sim.advance(3.0)
        with pytest.raises(SimulationError):
            sim.reach(2.0, lambda: None)
        sim.call_at(4.0, lambda: sim.reach(5.0, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()
