"""Legality and equivalence of serial histories, with memoization.

The dependency-relation searches replay enormous numbers of serial
histories that share long common prefixes.  :class:`LegalityOracle`
stores replay results in a trie keyed by events, so each distinct prefix
is replayed against the data type exactly once.

For a (possibly nondeterministic) specification, the replay state is a
*frontier*: the states the object could be in after exhibiting the
history, kept as a tuple of states with distinct canonical keys.  A
history is legal iff its frontier is non-empty.  Two legal histories are
equivalent (``h ≡ h'`` — indistinguishable by any future computation,
paper Section 5) whenever their frontiers have equal canonical key sets;
this check is sound in general and exact for all the built-in types,
whose states are canonical value representations.

A step that yields one state — every step of a deterministic type —
neither calls ``canonical`` nor hashes the state: the runtime replays
long Queue states through the trie, and only a frontier's key set,
built on first use (:meth:`LegalityOracle._keys`), pays for hashing.

The derivations (alphabets, Theorem 6, Definition 8) ask nothing of a
prefix but its frontier, so they walk :class:`MergedFrontiers` — one
node per distinct frontier — and cost what the type's states cost.
"""

from __future__ import annotations

from typing import Hashable, Iterator

from repro.histories.events import Event, Invocation, Response, SerialHistory
from repro.spec.datatype import SerialDataType, State


class _TrieNode:
    """One replay frontier, plus memoized children per event."""

    __slots__ = ("frontier", "keys", "children", "responses", "successors")

    def __init__(self, frontier: tuple[State, ...] | None):
        #: States with distinct canonical keys; ``None`` marks illegal.
        self.frontier = frontier
        #: The frontier's canonical keys, built on demand
        #: (:meth:`LegalityOracle._keys`).
        self.keys: frozenset[Hashable] | None = None
        self.children: dict[Event, _TrieNode] = {}
        #: Memoized invocation -> legal responses at this frontier; built
        #: lazily because most interior nodes are only ever stepped through.
        self.responses: dict[Invocation, frozenset[Response]] | None = None
        #: Memoized invocation -> ``(event, child)`` per legal response
        #: (:meth:`LegalityOracle._successors`, runtime only).
        self.successors: dict[Invocation, tuple] | None = None


class LegalityOracle:
    """Memoized legality, frontier, and equivalence queries for one type."""

    def __init__(self, datatype: SerialDataType):
        self._dt = datatype
        self._root = _TrieNode((datatype.initial_state(),))
        #: Memoized replay roots for non-initial base states (used when a
        #: log prefix has been compacted into a snapshot state).
        self._base_roots: dict[Hashable, _TrieNode] = {}
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
            root = _TrieNode((base_state,))
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
        """Drop the replay memo, keeping correctness.

        The trie is a pure cache: every public query rebuilds any node
        it needs from the datatype, so discarding it only costs replay
        time on the next queries.  Nodes held outside the oracle stay
        valid, detached.
        """
        self._root = _TrieNode((self._dt.initial_state(),))
        self._base_roots.clear()
        self._cache_nodes = 1
        self.cache_trims += 1

    # -- replay internals ----------------------------------------------------

    def _keys(self, node: _TrieNode) -> frozenset[Hashable] | None:
        """``node``'s canonical frontier keys (None if illegal), cached."""
        keys = node.keys
        if keys is None and node.frontier is not None:
            keys = node.keys = frozenset(map(self._dt.canonical, node.frontier))
        return keys

    def _child(self, states: list[State]) -> _TrieNode:
        """A node over ``states``, deduplicated by canonical key.

        One state is the frontier as it stands, unhashed (:meth:`_step`,
        the runtime's hottest miss, builds that node inline).  Of
        several, the last state per key is kept, at its key's first
        position.
        """
        if len(states) == 1:
            return _TrieNode((states[0],))
        if not states:
            return _TrieNode(None)
        distinct = {self._dt.canonical(state): state for state in states}
        child = _TrieNode(tuple(distinct.values()))
        child.keys = frozenset(distinct)
        return child

    def _step(self, node: _TrieNode, event: Event) -> _TrieNode:
        child = node.children.get(event)
        if child is not None:
            return child
        states = []
        if node.frontier is not None:
            wanted = event.res
            for state in node.frontier:
                for response, next_state in self._dt.apply(state, event.inv):
                    if response is wanted or response == wanted:
                        states.append(next_state)
        child = node.children[event] = (
            _TrieNode((states[0],)) if len(states) == 1 else self._child(states)
        )
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
                for state in node.frontier
                for response, _next_state in self._dt.apply(state, invocation)
            )
            cache[invocation] = found
        return found

    def _successors(
        self, node: _TrieNode, invocation: Invocation
    ) -> tuple[tuple[Event, _TrieNode], ...]:
        """``(event, child)`` per legal response for ``invocation`` at ``node``.

        In sorted-render order (the runtime's deterministic choice order),
        memoized per node.  One pass over the frontier lists the
        responses *and* builds each child — the node :meth:`_step` would
        build — so the step that follows a chosen response is a memo hit.
        The runtime's schemes ask this; the derivations keep
        :meth:`_node_responses`, which builds no children.
        """
        memo = node.successors
        if memo is None:
            memo = node.successors = {}
        found = memo.get(invocation)
        if found is not None:
            return found
        frontiers: dict[Response, list[State]] = {}
        if node.frontier is not None:
            for state in node.frontier:
                for response, next_state in self._dt.apply(state, invocation):
                    frontiers.setdefault(response, []).append(next_state)
        ordered = sorted(frontiers, key=str) if len(frontiers) > 1 else frontiers
        children = node.children
        steps = []
        for response in ordered:
            event = Event(invocation, response)
            child = children.get(event)
            if child is None:
                child = children[event] = self._child(frontiers[response])
                self._cache_nodes += 1
            steps.append((event, child))
        found = memo[invocation] = tuple(steps)
        return found

    # -- public queries --------------------------------------------------------

    def is_legal(self, history: SerialHistory) -> bool:
        """True iff ``history`` is in the type's serial specification."""
        return self._node(history).frontier is not None

    def frontier_key(self, history: SerialHistory) -> frozenset[Hashable] | None:
        """Canonical keys of all states reachable via ``history`` (None if illegal)."""
        return self._keys(self._node(history))

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


class MergedFrontiers:
    """An oracle's replay trie with equivalent prefixes merged.

    Theorems 6 and 10 and the alphabets read a prefix only through the
    states it can be in, so ``h ≡ h'`` (equal frontier keys) makes every
    question about ``h`` a question about ``h'``.  This view names one
    trie node per distinct frontier key set — the first one met —
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
        self._canonical = {oracle._keys(self.root): self.root}
        self._moves: dict[_TrieNode, tuple[tuple[Event, _TrieNode], ...]] = {}

    def after(self, node: _TrieNode, event: Event) -> _TrieNode | None:
        """The canonical node of ``node``'s histories extended by ``event``
        (``None`` if the extension is illegal)."""
        child = self._oracle._step(node, event)
        if child.frontier is None:
            return None
        return self._canonical.setdefault(self._oracle._keys(child), child)

    def enabled(self, node: _TrieNode) -> list[Event]:
        """The generator-alphabet events legal at ``node``, in string order
        per invocation."""
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
