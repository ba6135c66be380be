"""Unit tests for Lamport clocks and timestamps."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clocks.lamport import LamportClock
from repro.clocks.timestamps import Timestamp
from repro.txn.ids import ActionId

#: A timestamp ordered before every timestamp any clock can produce
#: (sites are numbered from 0).
ZERO = Timestamp(0, -1)


class TestTimestamp:
    def test_ordering_by_counter_first(self):
        assert Timestamp(1, 5) < Timestamp(2, 0)

    def test_site_breaks_ties(self):
        assert Timestamp(3, 1) < Timestamp(3, 2)

    def test_total_order_is_strict(self):
        assert not Timestamp(3, 1) < Timestamp(3, 1)

    def test_equality(self):
        assert Timestamp(4, 2) == Timestamp(4, 2)
        assert Timestamp(4, 2) != Timestamp(4, 3)

    def test_zero_precedes_everything_generable(self):
        assert ZERO < Timestamp(0, 0)
        assert ZERO < Timestamp(1, -1 + 1)

    def test_hashable_and_usable_in_sets(self):
        assert len({Timestamp(1, 1), Timestamp(1, 1), Timestamp(1, 2)}) == 2

    @given(
        st.tuples(st.integers(0, 1000), st.integers(0, 50)),
        st.tuples(st.integers(0, 1000), st.integers(0, 50)),
    )
    def test_order_is_antisymmetric(self, a, b):
        first, second = Timestamp(*a), Timestamp(*b)
        if first < second:
            assert not second < first


@pytest.mark.parametrize(
    "kind, fields, text",
    [(Timestamp, ("counter", "site"), "7.3"), (ActionId, ("seq", "site"), "T7@3")],
    ids=["Timestamp", "ActionId"],
)
class TestValueTypes:
    """The two identifier types: tuples underneath, values on top."""

    def test_hash_is_the_plain_pairs(self, kind, fields, text):
        # Set iteration orders, and so every seeded fingerprint, depend
        # on these hash values.
        for first, second in ((7, 3), (0, -1), (12345, 0), (-2, 9)):
            assert hash(kind(first, second)) == hash((first, second))

    def test_fields_and_default_site(self, kind, fields, text):
        value = kind(7, 3)
        assert (getattr(value, fields[0]), getattr(value, fields[1])) == (7, 3)
        assert kind(7).site == 0

    @given(
        st.tuples(st.integers(-5, 50), st.integers(-2, 5)),
        st.tuples(st.integers(-5, 50), st.integers(-2, 5)),
    )
    def test_total_order_is_the_pairs(self, kind, fields, text, a, b):
        first, second = kind(*a), kind(*b)
        assert (first < second) == (a < b)
        assert (first <= second) == (a <= b)
        assert (first > second) == (a > b)
        assert (first == second) == (a == b)
        assert (first != second) == (a != b)
        assert sorted([first, second]) == [kind(*pair) for pair in sorted([a, b])]

    def test_equality_is_type_distinct(self, kind, fields, text):
        other = ActionId if kind is Timestamp else Timestamp
        value = kind(1, 0)
        assert value != (1, 0) and not value == (1, 0)
        assert value != other(1, 0) and not value == other(1, 0)
        assert (1, 0) != value and other(1, 0) != value
        assert len({value, (1, 0), other(1, 0)}) == 3

    def test_pickle_and_copy_round_trip(self, kind, fields, text):
        value = kind(7, 3)
        for copied in (
            pickle.loads(pickle.dumps(value)),
            copy.copy(value),
            copy.deepcopy(value),
        ):
            assert type(copied) is kind and copied == value

    def test_str_and_repr(self, kind, fields, text):
        assert str(kind(7, 3)) == text
        assert repr(kind(7, 3)) == f"{kind.__name__}({fields[0]}=7, {fields[1]}=3)"

    def test_immutable(self, kind, fields, text):
        value = kind(7, 3)
        for name in fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
        with pytest.raises(AttributeError):
            del value.site


class TestLamportClock:
    def test_tick_advances(self):
        clock = LamportClock(site=0)
        assert clock.tick() < clock.tick()

    def test_witness_jumps_past_remote(self):
        local = LamportClock(site=0)
        remote = Timestamp(100, 9)
        assert local.witness(remote) > remote

    def test_witness_of_old_timestamp_still_ticks(self):
        clock = LamportClock(site=0, start=50)
        before = clock.now
        after = clock.witness(Timestamp(1, 1))
        assert after > before

    def test_happens_before_embedded_in_timestamps(self):
        a, b, c = LamportClock(site=1), LamportClock(site=2), LamportClock(site=3)
        t1 = a.tick()
        t2 = b.witness(t1)  # a -> b
        t3 = c.witness(t2)  # b -> c
        assert t1 < t2 < t3

    def test_distinct_sites_never_collide(self):
        a, b = LamportClock(site=1), LamportClock(site=2)
        stamps = [a.tick() for _ in range(5)] + [b.tick() for _ in range(5)]
        assert len(set(stamps)) == 10

    def test_now_starts_at_the_start_counter_on_its_site(self):
        clock = LamportClock(site=4, start=7)
        assert clock.site == 4
        assert clock.now == Timestamp(7, 4)
        assert clock.tick() == clock.now == Timestamp(8, 4)

    def test_witnessing_an_equal_counter_still_advances(self):
        clock = LamportClock(site=1, start=5)
        assert clock.witness(Timestamp(5, 9)) == Timestamp(6, 1)

    def test_zero_precedes_every_stamp_a_clock_issues(self):
        clock = LamportClock(site=0)
        assert ZERO < clock.now
        assert all(ZERO < clock.tick() for _ in range(3))

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            LamportClock(site=0, start=-1)

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=30))
    def test_witnessing_any_sequence_stays_monotone(self, counters):
        clock = LamportClock(site=0)
        previous = clock.now
        for counter in counters:
            current = clock.witness(Timestamp(counter, 1))
            assert current > previous
            previous = current
