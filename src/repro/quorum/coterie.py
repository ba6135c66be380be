"""Coteries: collections of quorums over a fixed set of sites.

A coterie answers three questions the replication method needs:

* *membership* — is this set of live sites a superset of some quorum?
* *intersection* — does every quorum of this coterie intersect every
  quorum of another coterie?  (The paper's quorum-assignment
  constraints are exactly total-intersection requirements.)
* *availability* — given per-site up-probabilities, what is the
  probability that at least one quorum is fully up?

Two implementations cover the library's needs: the general
:class:`ExplicitCoterie` (any antichain of site sets) and the symmetric
:class:`SubsetThresholdCoterie` ("any k of these m sites"), for which
intersection and availability have closed forms;
:class:`ThresholdCoterie` is its full-replication case, m = every site.
:class:`EmptyCoterie` represents operations that need no quorum at all —
e.g. the final quorum of an event no invocation depends on, which the
paper's PROM example exploits to give Read a final quorum of zero sites.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import combinations
from typing import AbstractSet, Iterable, Iterator

from repro.errors import QuorumError


class Coterie(ABC):
    """An abstract collection of quorums over sites ``0..n_sites-1``."""

    def __init__(self, n_sites: int):
        if n_sites < 0:
            raise QuorumError("site count must be non-negative")
        self.n_sites = n_sites
        self._universe = frozenset(range(n_sites))

    @property
    def universe(self) -> frozenset[int]:
        return self._universe

    @abstractmethod
    def quorums(self) -> Iterator[frozenset[int]]:
        """Yield the minimal quorums."""

    @abstractmethod
    def has_quorum(self, live: AbstractSet[int]) -> bool:
        """Is some quorum contained in the live set?"""

    @abstractmethod
    def smallest_quorum_size(self) -> int | None:
        """Size of the smallest quorum, or ``None`` for an unsatisfiable coterie."""

    def pick_quorum(self, live: frozenset[int]) -> frozenset[int] | None:
        """Return some minimal quorum within ``live``, or ``None``."""
        for quorum in self.quorums():
            if quorum <= live:
                return quorum
        return None

    def intersects(self, other: "Coterie") -> bool:
        """Does *every* quorum of ``self`` intersect *every* quorum of ``other``?

        An unsatisfiable coterie (no quorums at all) intersects anything
        vacuously; an :class:`EmptyCoterie` (one empty quorum) intersects
        nothing except an unsatisfiable coterie.
        """
        fast = self._intersects_fast(other)
        if fast is not None:
            return fast
        return all(q1 & q2 for q1 in self.quorums() for q2 in other.quorums())

    def _intersects_fast(self, other: "Coterie") -> bool | None:
        """Optional closed-form intersection; ``None`` means fall back."""
        return None


class ExplicitCoterie(Coterie):
    """A coterie given by an explicit list of quorums.

    Non-minimal quorums (supersets of other quorums) are discarded; the
    stored representation is the antichain of minimal quorums.
    """

    def __init__(self, n_sites: int, quorums: Iterable[Iterable[int]]):
        super().__init__(n_sites)
        candidate = {frozenset(q) for q in quorums}
        for quorum in candidate:
            if not quorum <= self.universe:
                raise QuorumError(f"quorum {sorted(quorum)} outside universe")
        self._quorums = tuple(
            sorted(
                (q for q in candidate if not any(q > other for other in candidate)),
                key=lambda q: (len(q), sorted(q)),
            )
        )

    def quorums(self) -> Iterator[frozenset[int]]:
        return iter(self._quorums)

    def has_quorum(self, live: AbstractSet[int]) -> bool:
        return any(q <= live for q in self._quorums)

    def smallest_quorum_size(self) -> int | None:
        if not self._quorums:
            return None
        return len(self._quorums[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sets = ", ".join("{" + ",".join(map(str, sorted(q))) + "}" for q in self._quorums)
        return f"ExplicitCoterie(n={self.n_sites}, [{sets}])"


class SubsetThresholdCoterie(Coterie):
    """"Any ``threshold`` of these ``members``" — threshold quorums over a
    replica set of the site universe.

    An object placed at a subset of the cluster's sites draws its quorums
    from that subset while front-end spans, auditors, and assignments
    keep speaking *global* site ids.  The universe stays at ``n_sites``
    (so :class:`~repro.quorum.assignment.QuorumAssignment` validation and
    observed-quorum checks are unchanged) but only member sites count
    toward the threshold — a non-member's reply never helps a quorum
    form, which is the routing half of genuine partial replication.
    Full replication is the case ``members`` = every site
    (:class:`ThresholdCoterie`).  ``threshold`` may be 0: the single
    quorum is then empty, as for an :class:`EmptyCoterie`.
    """

    def __init__(self, n_sites: int, members: Iterable[int], threshold: int):
        super().__init__(n_sites)
        self.members = frozenset(members)
        if not self.members <= self.universe:
            raise QuorumError(
                f"members {sorted(self.members)} outside the "
                f"{n_sites}-site universe"
            )
        if not 0 <= threshold <= len(self.members):
            raise QuorumError(
                f"threshold {threshold} out of range for "
                f"{len(self.members)} member sites"
            )
        self.threshold = threshold

    def quorums(self) -> Iterator[frozenset[int]]:
        for quorum in combinations(sorted(self.members), self.threshold):
            yield frozenset(quorum)

    def has_quorum(self, live: AbstractSet[int]) -> bool:
        return len(live & self.members) >= self.threshold

    def smallest_quorum_size(self) -> int:
        return self.threshold

    def _intersects_fast(self, other: Coterie) -> bool | None:
        if self.threshold == 0 or isinstance(other, EmptyCoterie):
            return False
        if not isinstance(other, SubsetThresholdCoterie):
            return None
        # Worst case: other's quorum takes every site outside our members
        # first, so only the rest of it lands where ours can be forced.
        inside = max(0, other.threshold - len(other.members - self.members))
        return other.threshold > 0 and inside + self.threshold > len(self.members)

    def __repr__(self) -> str:
        if self.members == self.universe:
            return f"ThresholdCoterie({self.threshold} of {self.n_sites})"
        members = ",".join(map(str, sorted(self.members)))
        return (
            f"SubsetThresholdCoterie({self.threshold} of "
            f"{{{members}}} in {self.n_sites} sites)"
        )


class ThresholdCoterie(SubsetThresholdCoterie):
    """"Any ``threshold`` of ``n_sites`` sites" — the full-replication case."""

    def __init__(self, n_sites: int, threshold: int):
        super().__init__(n_sites, range(n_sites), threshold)


class EmptyCoterie(Coterie):
    """The coterie whose single quorum is the empty set.

    Used for final quorums of events no invocation depends on: the
    front-end need not write the new log entry anywhere beyond its own
    bookkeeping, and such an operation is always available.
    """

    def quorums(self) -> Iterator[frozenset[int]]:
        yield frozenset()

    def has_quorum(self, live: AbstractSet[int]) -> bool:
        return True

    def smallest_quorum_size(self) -> int:
        return 0

    def _intersects_fast(self, other: Coterie) -> bool | None:
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EmptyCoterie(n={self.n_sites})"


def majority(n_sites: int) -> ThresholdCoterie:
    """The majority coterie: any ⌈(n+1)/2⌉ of n sites."""
    return ThresholdCoterie(n_sites, n_sites // 2 + 1)
