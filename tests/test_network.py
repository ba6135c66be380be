"""Unit tests for the simulated network fabric."""

import hashlib
import json

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

        Returns the network, the gather result, what each ``sim.reach``
        and ``sim.run`` dispatched, and the ``(name, site, outcome, end)``
        of every span in the order a listener saw it close.
        """
        sim = Simulator(seed=1, tracer=tracer)
        net = Network(sim, n_sites=4, latency=1.0, tracer=tracer)
        dispatched, closes = [], []
        run, reach = sim.run, sim.reach
        sim.run = lambda **kw: dispatched.append(run(**kw))
        sim.reach = lambda *args: dispatched.append(reach(*args))
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
        # The legs run in place: the partition is the one kernel event.
        assert [s.attrs for s in tracer.spans if s.name == "sim.run"] == [
            {"dispatched": 1}
        ]

    def test_tracing_changes_nothing_the_kernel_or_the_caller_sees(self):
        traced_net, traced, traced_dispatched, _closes = self._wave(Tracer())
        plain_net, plain, plain_dispatched, _closes = self._wave(None)
        # Arrival leg, delivery leg (the partition fires on the way to
        # it), closing run: one kernel event, traced or not.
        assert traced_dispatched == plain_dispatched == [0, 1, 0]
        assert traced == plain
        for counter in ("messages_sent", "messages_dropped"):
            assert getattr(traced_net, counter) == getattr(plain_net, counter)
        assert traced_net.sim.now == plain_net.sim.now == 2.0


# -- failure events on a wave's own instants, pinned ------------------------------


def _tie_row(*, dsts, events=(), quorum=None, drop=0.0, seed=5, crashed=(),
             probes=None, traced=False):
    """One ``gather`` from site 0 with failure events on its waves' instants.

    Waves launch at 0, so the first one arrives at 1.0 and replies at
    2.0, the second arrives at 3.0 and replies at 4.0.  ``events`` are
    ``(time, how, label, action)`` scheduled before the call, where
    ``how`` is ``schedule``, ``call_at`` or ``cancelled`` (scheduled and
    then cancelled: a tombstone on that instant).  An action is
    ``("crash", site)``, ``("recover", site)``, ``("partition", groups)``,
    ``("heal",)``, ``("noop",)`` or ``("then", delay, label, action)``,
    which schedules another event from inside the dispatched callback.
    ``probes`` maps a site to the ``(delay, label, action)`` its handler
    schedules.  Returns the result, the counters, the clock when
    ``gather`` returned and the order every callback and handler fired in.
    """
    tracer = Tracer() if traced else None
    sim = Simulator(seed=seed, tracer=tracer)
    net = Network(sim, n_sites=5, latency=1.0, drop_probability=drop, tracer=tracer)
    if tracer is not None:
        tracer.bind_clock(sim)
    fired = []

    def event(label, action):
        def fire():
            fired.append([label, sim.now])
            kind, *args = action
            if kind == "then":
                delay, then_label, then_action = args
                sim.call_at(sim.now + delay, event(then_label, then_action))
            elif kind == "partition":
                net.partition(*args[0])
            elif kind != "noop":
                getattr(net, kind)(*args)

        return fire

    for site in crashed:
        net.crash(site)
    for time, how, label, action in events:
        if how == "call_at":
            sim.call_at(time, event(label, action))
        else:
            handle = sim.schedule_at(time, event(label, action))
            if how == "cancelled":
                sim.cancel(handle)

    def handler(site):
        fired.append(["probe", site, sim.now])
        if probes and site in probes:
            delay, label, action = probes[site]
            sim.call_at(sim.now + delay, event(label, action))
        return site * 10

    stop = None if quorum is None else (lambda got: len(got) >= quorum)
    result = net.gather(0, dsts, handler, stop=stop)
    returned_at = sim.now
    fired.append(["returned", returned_at])
    sim.run()
    return {
        "replies": [[r.site, r.value, r.completed_at] for r in result.replies],
        "attempted": list(result.attempted),
        "failed": sorted(result.failed),
        "sent": net.messages_sent,
        "dropped": net.messages_dropped,
        "returned_at": returned_at,
        "fired": fired,
        "now": sim.now,
    }


#: ``(name, inputs, sha256 of the row's fingerprint)``, taken while each
#: wave leg was still a kernel event (one arrival, one delivery), so the
#: tie order between a leg and an event on its instant is pinned here.
_TIE_ROWS = (
    ("crash-at-arrival",
     dict(dsts=[1, 2, 3], quorum=2,
          events=[(1.0, "schedule", "crash2", ("crash", 2))]),
     "546fc7136fe9637eddc5ca67d69d2cc12759359bd613fd370d3f2bd9dc29d8d5"),
    ("recover-at-arrival",
     dict(dsts=[2, 3], quorum=1, crashed=[2],
          events=[(1.0, "call_at", "recover2", ("recover", 2))]),
     "b365ba8df4e275d26de9aa030770b44801310c51d80af7d7c7a15424a54dd9ad"),
    ("crash-at-reply",
     dict(dsts=[1, 2, 3, 4], quorum=3,
          events=[(2.0, "schedule", "crash1", ("crash", 1))]),
     "b6bfdb236cba8ef99200c9e42c7ff641080f512cc32da989970c14ae7882d840"),
    ("partition-at-reply-heal-at-next-arrival",
     dict(dsts=[1, 2, 3, 4], quorum=2,
          events=[(2.0, "schedule", "cut", ("partition", [[0, 1], [2, 3, 4]])),
                  (3.0, "call_at", "heal", ("heal",))]),
     "c7726cfba215237b0e3ba809b9f7ada67cb69dcc7d134a5cf113da6cf8c18f8e"),
    ("partition-at-arrival-heal-at-last-reply",
     dict(dsts=[3, 1, 2], quorum=2,
          events=[(1.0, "schedule", "cut", ("partition", [[0, 1, 2], [3, 4]])),
                  (4.0, "schedule", "heal", ("heal",))]),
     "e00145bb91be04e754b67f41a36d89121b3c0a8dd4cdd7cbe52d310603311807"),
    ("chained-into-reply-instant",
     dict(dsts=[1, 2, 3], quorum=2,
          events=[(1.5, "schedule", "arm",
                   ("then", 0.5, "crash1", ("crash", 1)))]),
     "965fc23cb268db63148ea56e495270c31443aa90f55307307d755a39b46aa2b4"),
    ("chained-into-arrival-instant",
     dict(dsts=[1, 2, 3], quorum=2,
          events=[(0.5, "call_at", "arm",
                   ("then", 0.5, "crash2", ("crash", 2)))]),
     "d4b6c50ca27b0399861e406673ba5286fab723408d9d88b3916e9ca49ed5f6b5"),
    ("probe-schedules-into-reply",
     dict(dsts=[1, 2, 3], probes={1: (1.0, "crash3", ("crash", 3))}),
     "34c5c3e02833f3057461fb2cd673887e42bdb77c78b050342db09fdf0a8e7efd"),
    ("tombstones-on-both-instants",
     dict(dsts=[1, 2, 3], quorum=2,
          events=[(1.0, "cancelled", "never1", ("crash", 1)),
                  (2.0, "cancelled", "never2", ("crash", 2)),
                  (2.0, "schedule", "tick", ("noop",)),
                  (1.0, "call_at", "tock", ("noop",))]),
     "e5098d101305f4e932223355698aeef741e0b6f3cc09f5d0e1555cfdb70acedd"),
    ("whole-wave-lost-recover-on-reply",
     dict(dsts=[1, 2],
          events=[(1.0, "schedule", "crash1", ("crash", 1)),
                  (1.0, "schedule", "crash2", ("crash", 2)),
                  (1.5, "call_at", "arm", ("then", 0.5, "recover1", ("recover", 1))),
                  (2.0, "schedule", "late", ("noop",))]),
     "7db64509b911757d9f9962637af39ec4a898ec9376d553f058a10181e0782673"),
    ("same-instant-chains-and-far-events",
     dict(dsts=[1, 2], quorum=2,
          events=[(10.0, "schedule", "far", ("crash", 1)),
                  (2.0, "schedule", "at-reply", ("noop",)),
                  (2.0, "call_at", "arm-at-reply",
                   ("then", 0.0, "same-reply", ("noop",)))],
          probes={2: (0.0, "same-arrival", ("noop",))}),
     "4666a6318c0b7cf9d99cf7587ea87b9485040930fd7deab4935e212f82e5c0c7"),
    ("lossy-with-events",
     dict(dsts=[1, 2, 3, 4], quorum=3, drop=0.3, seed=2,
          events=[(1.0, "schedule", "crash4", ("crash", 4)),
                  (2.0, "call_at", "tick", ("noop",)),
                  (3.0, "schedule", "recover4", ("recover", 4)),
                  (4.0, "schedule", "cut", ("partition", [[0, 4], [1, 2, 3]]))],
          probes={2: (0.0, "same-arrival", ("noop",)),
                  3: (1.0, "on-reply", ("noop",))}),
     "8a0f6c4c81acf944d103cf92e344f7d64a2e39304f98b5141f69d15589586d40"),
)


def _tie_digest(inputs, traced=False):
    row = _tie_row(**inputs, traced=traced)
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()


class TestWaveTieOrderPins:
    """Failure events on a wave's arrival and reply instants, pinned rows.

    Each row pins who wins a tie between a wave leg and an event on the
    same instant: events scheduled before the call, events a callback in
    the window schedules, events a handler schedules, and tombstones.
    Tracing must not move a row.
    """

    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    @pytest.mark.parametrize(
        "inputs, digest",
        [row[1:] for row in _TIE_ROWS],
        ids=[row[0] for row in _TIE_ROWS],
    )
    def test_row_matches_its_pin(self, inputs, digest, traced):
        assert _tie_digest(inputs, traced) == digest


if __name__ == "__main__":
    for name, inputs, _digest in _TIE_ROWS:
        print(f"{name}: {_tie_digest(inputs)}")
