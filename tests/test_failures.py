"""Unit tests for failure injection."""

from repro.sim.failures import CrashInjector, PartitionInjector
from repro.sim.kernel import Simulator
from repro.sim.network import Network


def _net(seed=0, n=4):
    return Network(Simulator(seed=seed), n_sites=n)


class TestCrashInjector:
    def test_long_run_availability_near_analytic(self):
        net = _net(seed=11, n=1)
        mean_up, mean_down = 90.0, 10.0
        CrashInjector(net, mean_up, mean_down).install()
        up_time = 0.0
        total = 0.0
        step = 1.0
        for _ in range(20000):
            net.sim.run(until=net.sim.now + step)
            total += step
            if net.is_up(0):
                up_time += step
        measured = up_time / total
        analytic = mean_up / (mean_up + mean_down)
        assert abs(measured - analytic) < 0.05

    def test_injector_alternates_states(self):
        net = _net(seed=5, n=2)
        CrashInjector(net, 10.0, 10.0).install()
        saw_down = saw_up_again = False
        was_down = False
        for _ in range(500):
            net.sim.run(until=net.sim.now + 1.0)
            if not net.is_up(0):
                saw_down = True
                was_down = True
            elif was_down:
                saw_up_again = True
        assert saw_down and saw_up_again


class TestPartitionInjector:
    def test_partitions_come_and_go(self):
        net = _net(seed=9)
        PartitionInjector(net, mean_interval=5.0, mean_duration=5.0).install()
        saw_partition = saw_heal_after = False
        was_partitioned = False
        for _ in range(500):
            net.sim.run(until=net.sim.now + 1.0)
            connected = all(
                net.reachable(a, b) for a in range(4) for b in range(4)
            )
            if not connected:
                saw_partition = True
                was_partitioned = True
            elif was_partitioned:
                saw_heal_after = True
        assert saw_partition and saw_heal_after
