"""Unit tests for the simulated network fabric."""

import pytest

from repro.errors import SimulationError
from repro.obs.trace import TraceListener, Tracer
from repro.sim.kernel import Simulator
from repro.sim.network import Network, Timeout


@pytest.fixture()
def net():
    return Network(Simulator(seed=1), n_sites=4, latency=1.0)


class TestCrashState:
    def test_sites_start_up(self, net):
        assert all(net.is_up(s) for s in range(4))

    def test_crash_and_recover(self, net):
        net.crash(2)
        assert not net.is_up(2)
        assert net.crashed_sites == {2}
        net.recover(2)
        assert net.is_up(2)

    def test_unknown_site_rejected(self, net):
        with pytest.raises(SimulationError):
            net.crash(9)


class TestReachability:
    def test_all_reachable_by_default(self, net):
        assert net.reachable(0, 3)

    def test_crashed_site_unreachable_both_ways(self, net):
        net.crash(1)
        assert not net.reachable(0, 1)
        assert not net.reachable(1, 0)

    def test_partition_splits_groups(self, net):
        net.partition({0, 1}, {2, 3})
        assert net.reachable(0, 1)
        assert net.reachable(2, 3)
        assert not net.reachable(0, 2)

    def test_implicit_rest_group(self, net):
        net.partition({0})
        assert not net.reachable(0, 1)
        assert net.reachable(1, 3)

    def test_heal_restores(self, net):
        net.partition({0}, {1, 2, 3})
        net.heal()
        assert net.reachable(0, 3)

    def test_self_always_reachable_unless_crashed(self, net):
        net.partition({0}, {1, 2, 3})
        assert net.reachable(0, 0)
        net.crash(0)
        assert not net.reachable(0, 0)

    def test_overlapping_groups_rejected(self, net):
        with pytest.raises(SimulationError):
            net.partition({0, 1}, {1, 2})


class TestRequest:
    def test_request_returns_handler_result(self, net):
        assert net.request(0, 1, lambda: "pong") == "pong"

    def test_request_charges_latency(self, net):
        before = net.sim.now
        net.request(0, 1, lambda: None)
        assert net.sim.now == before + 2.0  # there and back

    def test_request_to_crashed_site_times_out(self, net):
        net.crash(1)
        with pytest.raises(Timeout):
            net.request(0, 1, lambda: "pong")

    def test_request_across_partition_times_out(self, net):
        net.partition({0}, {1, 2, 3})
        with pytest.raises(Timeout):
            net.request(0, 1, lambda: "pong")

    def test_lossy_network_eventually_drops(self):
        net = Network(Simulator(seed=3), n_sites=2, drop_probability=0.5)
        outcomes = []
        for _ in range(40):
            try:
                net.request(0, 1, lambda: True)
                outcomes.append(True)
            except Timeout:
                outcomes.append(False)
        assert True in outcomes and False in outcomes
        assert net.messages_dropped > 0


class TestSend:
    def test_async_delivery_through_event_queue(self, net):
        delivered = []
        net.send(0, 1, lambda: delivered.append("msg"))
        assert delivered == []
        net.sim.run()
        assert delivered == ["msg"]

    def test_send_to_unreachable_dropped(self, net):
        net.crash(1)
        delivered = []
        net.send(0, 1, lambda: delivered.append("msg"))
        net.sim.run()
        assert delivered == []

    def test_crash_after_send_prevents_delivery(self, net):
        delivered = []
        net.send(0, 1, lambda: delivered.append("msg"))
        net.crash(1)
        net.sim.run()
        assert delivered == []


class TestTracedWave:
    """One ``gather`` wave under a tracer: where each ``rpc`` span closes."""

    @staticmethod
    def _wave(tracer):
        """Site 0 probes [3, 1, 2]: 1 is down, 2's reply meets a partition.

        Returns the network, the gather result, what each ``sim.run``
        dispatched, and the ``(name, site, outcome, end)`` of every span
        in the order a listener saw it close.
        """
        sim = Simulator(seed=1, tracer=tracer)
        net = Network(sim, n_sites=4, latency=1.0, tracer=tracer)
        dispatched, closes = [], []
        run = sim.run
        sim.run = lambda **kw: dispatched.append(run(**kw))
        if tracer is not None:
            tracer.bind_clock(sim)
            listener = TraceListener()
            listener.on_span_end = lambda span: closes.append(
                (span.name, span.site, span.outcome, span.end)
            )
            tracer.add_listener(listener)
        net.crash(1)
        sim.schedule(1.5, lambda: net.partition({0, 1, 3}, {2}))

        def handler(site):
            net.tracer.event("repo.write", site=site, object="q")
            return site * 10

        return net, net.gather(0, [3, 1, 2], handler), dispatched, closes

    def test_each_probe_closes_where_its_round_trip_ends(self):
        tracer = Tracer()
        _net, result, _dispatched, closes = self._wave(tracer)
        assert [reply.value for reply in result.replies] == [30]
        assert result.failed == frozenset({1, 2})
        rpcs = [span for span in tracer.spans if span.kind == "rpc"]
        # Opened at launch and in launch order (span 1 is the crash).
        assert [(s.span_id, s.site, s.start) for s in rpcs] == [
            (2, 3, 0.0), (3, 1, 0.0), (4, 2, 0.0),
        ]
        assert [(s.site, s.outcome, s.end) for s in rpcs] == [
            (3, "ok", 2.0),  # survivor: closes with its reply
            (1, "timeout", 1.0),  # crashed: closes when the request arrives
            (2, "timeout", 2.0),  # reply lost: closes when it was due
        ]
        # The handler ran at 3 and at 2; what it emitted is kept, lost
        # reply or not, and hangs under its own probe.
        writes = [span for span in tracer.spans if span.name == "repo.write"]
        assert [(w.site, w.parent_id, w.start) for w in writes] == [
            (3, 2, 1.0), (2, 4, 1.0),
        ]
        # Closes reach a listener in time order, launch order within an instant.
        assert [c for c in closes if c[0] in ("rpc", "repo.write")] == [
            ("repo.write", 3, "ok", 1.0),
            ("rpc", 1, "timeout", 1.0),
            ("repo.write", 2, "ok", 1.0),
            ("rpc", 3, "ok", 2.0),
            ("rpc", 2, "timeout", 2.0),
        ]
        # The one thing tracing used to change: what the kernel dispatched.
        assert [s.attrs for s in tracer.spans if s.name == "sim.run"] == [
            {"dispatched": 3}
        ]

    def test_tracing_changes_nothing_the_kernel_or_the_caller_sees(self):
        traced_net, traced, traced_dispatched, _closes = self._wave(Tracer())
        plain_net, plain, plain_dispatched, _closes = self._wave(None)
        # Arrival, the partition, delivery: three events, traced or not.
        assert traced_dispatched == plain_dispatched == [3]
        assert traced == plain
        for counter in ("messages_sent", "messages_dropped"):
            assert getattr(traced_net, counter) == getattr(plain_net, counter)
        assert traced_net.sim.now == plain_net.sim.now == 2.0
