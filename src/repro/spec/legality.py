"""Legality and equivalence of serial histories, with memoization.

The dependency-relation searches replay enormous numbers of serial
histories that share long common prefixes.  :class:`LegalityOracle`
stores replay results in a trie keyed by events, so each distinct prefix
is replayed against the data type exactly once.

For a (possibly nondeterministic) specification, the replay state is a
*frontier*: the set of states the object could be in after exhibiting the
history.  A history is legal iff its frontier is non-empty.  Two legal
histories are equivalent (``h ≡ h'`` — indistinguishable by any future
computation, paper Section 5) whenever their frontiers have equal
canonical key sets; this check is sound in general and exact for all the
built-in types, whose states are canonical value representations.

The derivations (alphabets, Theorem 6, Definition 8) ask nothing of a
prefix but its frontier, so they walk :class:`MergedFrontiers` — one
node per distinct frontier — and cost what the type's states cost.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

from repro.histories.events import Event, Invocation, Response, SerialHistory
from repro.spec.datatype import SerialDataType, State


class _TrieNode:
    """One replay frontier, plus memoized children per event."""

    __slots__ = ("frontier", "children", "responses")

    def __init__(self, frontier: dict[Hashable, State] | None):
        #: canonical-key -> representative state; ``None`` marks illegal.
        self.frontier = frontier
        self.children: dict[Event, _TrieNode] = {}
        #: Memoized invocation -> legal responses at this frontier; built
        #: lazily because most interior nodes are only ever stepped through.
        self.responses: dict[Invocation, frozenset[Response]] | None = None


class LegalityCursor:
    """A position in the replay trie with O(1) single-event steps.

    The searches that walk the whole bounded history universe — shared-pass
    commutativity, alphabet fusion, history enumeration — re-extend the
    *same* prefix over and over.  Replaying through
    :meth:`LegalityOracle.is_legal` costs O(len(history)) trie hops per
    query; a cursor pins the prefix node once, so each extension is a
    single memoized hop.
    """

    __slots__ = ("_oracle", "_node")

    def __init__(self, oracle: "LegalityOracle", node: _TrieNode):
        self._oracle = oracle
        self._node = node

    @property
    def legal(self) -> bool:
        """True iff the history this cursor sits on is legal."""
        return self._node.frontier is not None

    def step(self, event: Event) -> "LegalityCursor":
        """The cursor for this history extended by one event."""
        return LegalityCursor(self._oracle, self._oracle._step(self._node, event))

    def frontier_key(self) -> frozenset[Hashable] | None:
        """Canonical frontier keys here (None if the history is illegal)."""
        frontier = self._node.frontier
        if frontier is None:
            return None
        return frozenset(frontier)

    def responses(self, invocation: Invocation) -> frozenset[Response]:
        """Legal responses for ``invocation`` at this position (memoized).

        The returned set is the trie's own memo — treat it as immutable.
        """
        return self._oracle._node_responses(self._node, invocation)


class LegalityOracle:
    """Memoized legality, frontier, and equivalence queries for one type."""

    def __init__(self, datatype: SerialDataType):
        self._dt = datatype
        initial = datatype.initial_state()
        self._root = _TrieNode({datatype.canonical(initial): initial})
        #: Memoized replay roots for non-initial base states (used when a
        #: log prefix has been compacted into a snapshot state).
        self._base_roots: dict[Hashable, _TrieNode] = {}
        #: depth -> invocation -> responses reachable within that depth
        #: (memo for :meth:`_event_responses`; one BFS serves every
        #: invocation at a given depth).
        self._suffix_responses: dict[int, dict[Invocation, set[Response]]] = {}
        #: Trie nodes allocated since the last :meth:`trim_cache` (the
        #: initial root counts as one).  Maintained incrementally so
        #: long-running callers can bound the memo without walking it.
        self._cache_nodes = 1
        #: Cumulative :meth:`trim_cache` invocations, for run reports.
        self.cache_trims = 0

    @property
    def datatype(self) -> SerialDataType:
        return self._dt

    def _root_for(self, base_state: State | None) -> _TrieNode:
        if base_state is None:
            return self._root
        key = self._dt.canonical(base_state)
        root = self._base_roots.get(key)
        if root is None:
            root = _TrieNode({key: base_state})
            self._base_roots[key] = root
            self._cache_nodes += 1
        return root

    # -- cache bounding --------------------------------------------------------

    def cache_nodes(self) -> int:
        """Trie nodes currently reachable from the oracle's roots.

        The memo is append-only between trims: every distinct replayed
        prefix and every distinct compacted base state allocates nodes
        that are never dropped.  Bounded-memory drivers (the soak
        maintenance loop) watch this and call :meth:`trim_cache` past a
        threshold.
        """
        return self._cache_nodes

    def trim_cache(self) -> None:
        """Drop the replay memo, keeping correctness and the suffix BFS.

        The trie is a pure cache: every public query rebuilds any node
        it needs from the datatype, so discarding it only costs replay
        time on the next queries.  Outstanding :class:`LegalityCursor`
        objects keep their (now detached) nodes alive and stay valid.
        The depth-bounded ``_suffix_responses`` memo is retained — it is
        small and independent of replayed history.
        """
        initial = self._dt.initial_state()
        self._root = _TrieNode({self._dt.canonical(initial): initial})
        self._base_roots.clear()
        self._cache_nodes = 1
        self.cache_trims += 1

    # -- replay internals ----------------------------------------------------

    def _step(self, node: _TrieNode, event: Event) -> _TrieNode:
        child = node.children.get(event)
        if child is not None:
            return child
        if node.frontier is None:
            child = _TrieNode(None)
        else:
            next_frontier: dict[Hashable, State] = {}
            for state in node.frontier.values():
                for response, next_state in self._dt.apply(state, event.inv):
                    if response == event.res:
                        next_frontier[self._dt.canonical(next_state)] = next_state
            child = _TrieNode(next_frontier if next_frontier else None)
        node.children[event] = child
        self._cache_nodes += 1
        return child

    def _node(
        self, history: SerialHistory, base_state: State | None = None
    ) -> _TrieNode:
        node = self._root_for(base_state)
        for event in history:
            node = self._step(node, event)
            if node.frontier is None:
                return node
        return node

    def _node_responses(
        self, node: _TrieNode, invocation: Invocation
    ) -> frozenset[Response]:
        """Legal responses for ``invocation`` at ``node``, memoized per node."""
        if node.frontier is None:
            return frozenset()
        cache = node.responses
        if cache is None:
            cache = node.responses = {}
        found = cache.get(invocation)
        if found is None:
            found = frozenset(
                response
                for state in node.frontier.values()
                for response, _next_state in self._dt.apply(state, invocation)
            )
            cache[invocation] = found
        return found

    # -- cursors ---------------------------------------------------------------

    def cursor(self, history: SerialHistory = ()) -> LegalityCursor:
        """A :class:`LegalityCursor` positioned after ``history``."""
        return LegalityCursor(self, self._node(history))

    # -- replay from a snapshot state -----------------------------------------

    def is_legal_from(self, base_state: State, history: SerialHistory) -> bool:
        """Legality of ``history`` replayed from ``base_state``.

        Used when a log prefix has been compacted: the snapshot state
        stands in for the folded events.
        """
        return self._node(history, base_state).frontier is not None

    def responses_from(
        self, base_state: State, history: SerialHistory, invocation: Invocation
    ) -> set[Response]:
        """Responses legal for ``invocation`` after ``base_state · history``."""
        return set(self._node_responses(self._node(history, base_state), invocation))

    # -- public queries --------------------------------------------------------

    def is_legal(self, history: SerialHistory) -> bool:
        """True iff ``history`` is in the type's serial specification."""
        return self._node(history).frontier is not None

    def is_legal_extension(self, history: SerialHistory, suffix: Iterable[Event]) -> bool:
        """True iff ``history`` followed by ``suffix`` is legal."""
        node = self._node(history)
        for event in suffix:
            if node.frontier is None:
                return False
            node = self._step(node, event)
        return node.frontier is not None

    def frontier_key(self, history: SerialHistory) -> frozenset[Hashable] | None:
        """Canonical keys of all states reachable via ``history`` (None if illegal)."""
        frontier = self._node(history).frontier
        if frontier is None:
            return None
        return frozenset(frontier)

    def responses(self, history: SerialHistory, invocation: Invocation) -> set[Response]:
        """Every response legal for ``invocation`` after ``history``."""
        return set(self._node_responses(self._node(history), invocation))

    def equivalent(self, first: SerialHistory, second: SerialHistory) -> bool:
        """``h ≡ h'``: both legal and indistinguishable by future events.

        Implemented as equality of canonical frontier key sets, which is
        sound (equal frontiers admit exactly the same futures) and exact
        for canonical state representations.
        """
        key_first = self.frontier_key(first)
        if key_first is None:
            return False
        return key_first == self.frontier_key(second)

    def distinguishing_suffix(
        self, first: SerialHistory, second: SerialHistory, depth: int
    ) -> SerialHistory | None:
        """Search for a suffix legal after exactly one of the histories.

        This is the *observational* inequivalence test from the paper's
        definition (``h*s`` legal iff ``h'*s`` legal for all ``s``),
        bounded to suffixes of at most ``depth`` events over the
        generator alphabet.  Returns a witness suffix or ``None``.  Used
        in tests to validate :meth:`equivalent`.
        """
        alphabet = [
            Event(inv, res)
            for inv in self._dt.invocations()
            for res in self._event_responses(inv, depth)
        ]

        def search(sfx: tuple[Event, ...], remaining: int) -> SerialHistory | None:
            legal_first = self.is_legal_extension(first, sfx)
            legal_second = self.is_legal_extension(second, sfx)
            if legal_first != legal_second:
                return sfx
            if remaining == 0 or not (legal_first or legal_second):
                return None
            for event in alphabet:
                witness = search(sfx + (event,), remaining - 1)
                if witness is not None:
                    return witness
            return None

        return search((), depth)

    def _event_responses(self, invocation: Invocation, depth: int) -> set[Response]:
        """All responses ``invocation`` can receive in states reachable in ``depth`` steps.

        Memoized by depth: one reachable-state BFS records the response
        sets for *every* invocation, so :meth:`distinguishing_suffix` —
        which used to re-run the BFS per invocation on every call — pays
        for it at most once per depth over the oracle's lifetime.
        """
        by_invocation = self._suffix_responses.get(depth)
        if by_invocation is None:
            invocations = list(self._dt.invocations())
            by_invocation = {inv: set() for inv in invocations}
            seen: set[Hashable] = set()
            frontier = [self._dt.initial_state()]
            for _ in range(depth + 1):
                next_frontier: list[State] = []
                for state in frontier:
                    key = self._dt.canonical(state)
                    if key in seen:
                        continue
                    seen.add(key)
                    for inv in invocations:
                        for response, next_state in self._dt.apply(state, inv):
                            by_invocation[inv].add(response)
                            next_frontier.append(next_state)
                frontier = next_frontier
            self._suffix_responses[depth] = by_invocation
        return by_invocation[invocation]


class MergedFrontiers:
    """An oracle's replay trie with equivalent prefixes merged.

    Theorems 6 and 10 and the alphabets read a prefix only through the
    states it can be in, so ``h ≡ h'`` (equal frontier keys) makes every
    question about ``h`` a question about ``h'``.  This view names one
    trie node per distinct ``frozenset(frontier)`` — the first one met —
    and answers every step with that *canonical* node, so a derivation
    walks the type's reachable frontiers instead of the histories that
    reach them, and ``is`` on two nodes is frontier-key equality.  Every
    hop is one :meth:`LegalityOracle._step` from a canonical node; the
    trie therefore grows by at most one child per (frontier, event).
    """

    def __init__(self, oracle: LegalityOracle):
        self._oracle = oracle
        #: The canonical node of the empty history.
        self.root = oracle._root
        self._canonical = {frozenset(self.root.frontier): self.root}
        self._moves: dict[_TrieNode, tuple[tuple[Event, _TrieNode], ...]] = {}

    def after(self, node: _TrieNode, event: Event) -> _TrieNode | None:
        """The canonical node of ``node``'s histories extended by ``event``
        (``None`` if the extension is illegal)."""
        child = self._oracle._step(node, event)
        if child.frontier is None:
            return None
        return self._canonical.setdefault(frozenset(child.frontier), child)

    def enabled(self, node: _TrieNode) -> list[Event]:
        """The generator-alphabet events legal at ``node``, in string order
        per invocation (the order :func:`legal_serial_histories` extends in)."""
        responses = self._oracle._node_responses
        return [
            Event(inv, res)
            for inv in self._oracle.datatype.invocations()
            for res in sorted(responses(node, inv), key=str)
        ]

    def moves(self, node: _TrieNode) -> tuple[tuple[Event, _TrieNode], ...]:
        """``(event, after(node, event))`` per enabled event, memoized."""
        found = self._moves.get(node)
        if found is None:
            found = self._moves[node] = tuple(
                (event, self.after(node, event)) for event in self.enabled(node)
            )
        return found

    def levels(
        self, depth: int, starts: list[_TrieNode] | None = None
    ) -> Iterator[list[_TrieNode]]:
        """Breadth-first from ``starts`` (default the root): for each
        ``d = 0 … depth`` the nodes first reached by ``d`` generator events.

        A frontier's shallowest depth is where it has the most events
        left, and everything the derivations ask of a frontier is
        monotone in the events left — so visiting it there, once, is
        visiting every history that reaches it.
        """
        level = [self.root] if starts is None else list(dict.fromkeys(starts))
        seen = set(level)
        for left in range(depth, -1, -1):
            yield level
            if left:
                reached = [child for node in level for _, child in self.moves(node)]
                level = [node for node in dict.fromkeys(reached) if node not in seen]
                seen.update(level)
