"""The dependency relations and witness histories stated in the paper.

Everything here is transcribed from the paper and cross-checked by the
test suite against the machine searches:

* the unique minimal static dependency relation for Queue (Theorem 11),
  and the extra ``Enq ≥ Enq`` pair strong dynamic atomicity adds;
* the hybrid dependency relation ``≥H`` for PROM (Section 4), and the
  two pairs the minimal *static* relation adds;
* the required core of every hybrid dependency relation for FlagSet and
  its two alternative completions (Section 4);
* the minimal dynamic dependency relation for DoubleBuffer
  (Theorem 12);
* the paper's explicit counterexample histories (Theorems 5 and 12).
"""

from __future__ import annotations

from repro.dependency.relation import DependencyRelation, SchemaPair
from repro.histories.behavioral import Begin, BehavioralHistory, Commit, Op
from repro.histories.events import Event, event, ok
from repro.spec.datatype import SerialDataType
from repro.spec.enumerate import event_alphabet
from repro.spec.legality import LegalityOracle


def ground(
    datatype: SerialDataType,
    schemas: tuple[SchemaPair, ...],
    depth: int = 5,
    oracle: LegalityOracle | None = None,
    events: tuple[Event, ...] | None = None,
) -> DependencyRelation:
    """Ground a schema-level relation over a type's bounded alphabet."""
    if events is None:
        events = event_alphabet(datatype, depth, oracle)
    return DependencyRelation.from_schemas(schemas, datatype.invocations(), events)


# -- Queue (Sections 3 and 5, Theorem 11) -----------------------------------

#: The unique minimal static dependency relation for Queue.  The paper's
#: distinct variable names (``Enq(x) ≥s Deq();Ok(y)``) are significant:
#: enqueuing ``x`` never invalidates a dequeue *of the same value*, so
#: the ground pair exists only for distinct values.
QUEUE_STATIC = (
    SchemaPair("Enq", "Deq", "Ok", distinct=True),  # Enq(x) ≥s Deq();Ok(y)
    SchemaPair("Enq", "Deq", "Empty"),              # Enq(x) ≥s Deq();Empty()
    SchemaPair("Deq", "Enq", "Ok"),                 # Deq() ≥s Enq(x);Ok()
    SchemaPair("Deq", "Deq", "Ok"),                 # Deq() ≥s Deq();Ok(x)
)

#: The unique minimal dynamic dependency relation for Queue (Theorem 10).
#: Strong dynamic atomicity introduces ``Enq(x) ≥D Enq(y);Ok()`` — the
#: constraint Theorem 11 highlights — while *dropping* ``Enq ≥ Deq;Ok``
#: (an enqueue commutes with any already-legal successful dequeue), so
#: the two relations are incomparable, as Figure 1-2 depicts.
QUEUE_DYNAMIC = (
    SchemaPair("Enq", "Enq", "Ok", distinct=True),  # Enq(x) ≥D Enq(y);Ok()
    SchemaPair("Enq", "Deq", "Empty"),              # Enq(x) ≥D Deq();Empty()
    SchemaPair("Deq", "Enq", "Ok"),                 # Deq() ≥D Enq(x);Ok()
    SchemaPair("Deq", "Deq", "Ok"),                 # Deq() ≥D Deq();Ok(x)
)


# -- PROM (Section 4, Theorem 5) ---------------------------------------------

#: The hybrid dependency relation ≥H claimed for PROM.
PROM_HYBRID = (
    SchemaPair("Seal", "Write", "Ok"),      # Seal() ≥H Write(x);Ok()
    SchemaPair("Seal", "Read", "Disabled"),  # Seal() ≥H Read();Disabled()
    SchemaPair("Read", "Seal", "Ok"),       # Read() ≥H Seal();Ok()
    SchemaPair("Write", "Seal", "Ok"),      # Write(x) ≥H Seal();Ok()
)

#: The two additional constraints static atomicity imposes on PROM.
PROM_STATIC_EXTRAS = (
    SchemaPair("Read", "Write", "Ok"),  # Read() ≥s Write(x);Ok()
    # Write(x) ≥s Read();Ok(y): re-writing the value a read already
    # returned is harmless, so the ground pairs hold for y ≠ x only.
    SchemaPair("Write", "Read", "Ok", distinct=True),
)

#: The minimal static dependency relation for PROM per Section 4.
PROM_STATIC = PROM_HYBRID + PROM_STATIC_EXTRAS


def prom_theorem5_witness() -> tuple[BehavioralHistory, BehavioralHistory, Op]:
    """The paper's Theorem 5 counterexample, verbatim.

    Returns ``(H, G, appended)`` where ``G`` is ``H`` without its last
    event and ``appended`` is ``[Write(y);Ok() B]``: all of ``H``, ``G``,
    and ``G·appended`` lie in ``Static(PROM)``, but ``H·appended`` does
    not — showing ``≥H`` is not a static dependency relation.
    """
    history = BehavioralHistory.build(
        Begin("A"),
        Begin("B"),
        Begin("C"),
        Begin("D"),
        Op(event("Write", ("x",)), "A"),
        Commit("A"),
        Op(event("Seal"), "C"),
        Commit("C"),
        Op(event("Read", (), ok("x")), "D"),
    )
    subhistory = BehavioralHistory(history.entries[:-1])
    appended = Op(event("Write", ("y",)), "B")
    return history, subhistory, appended


# -- FlagSet (Section 4) -----------------------------------------------------

#: Dependencies that must be included in any hybrid relation for FlagSet.
FLAGSET_CORE = (
    SchemaPair("Open", "Shift", "Disabled"),  # Open() ≥ Shift(n);Disabled()
    SchemaPair("Open", "Open", "Ok"),          # Open() ≥ Open();Ok()
    SchemaPair("Close", "Shift", "Ok"),        # Close() ≥ Shift(n);Ok()
    SchemaPair("Close", "Open", "Ok"),         # Close() ≥ Open();Ok()
    SchemaPair("Shift", "Open", "Ok"),         # Shift(n) ≥ Open();Ok()
    SchemaPair("Shift", "Close", "Ok"),        # Shift(n) ≥ Close();Ok(x)
    SchemaPair("Shift", "Shift", "Ok", inv_args=(3,), ev_args=(2,)),
)

#: First completion: Shift(3) sees Shift(1) directly.
FLAGSET_ALTERNATIVE_DIRECT = SchemaPair(
    "Shift", "Shift", "Ok", inv_args=(3,), ev_args=(1,)
)

#: Second completion: Shift(1) reaches Shift(3) transitively through Shift(2).
FLAGSET_ALTERNATIVE_TRANSITIVE = SchemaPair(
    "Shift", "Shift", "Ok", inv_args=(2,), ev_args=(1,)
)

FLAGSET_HYBRID_A = FLAGSET_CORE + (FLAGSET_ALTERNATIVE_DIRECT,)
FLAGSET_HYBRID_B = FLAGSET_CORE + (FLAGSET_ALTERNATIVE_TRANSITIVE,)


# -- DoubleBuffer (Section 5, Theorem 12) ------------------------------------

#: The minimal dynamic dependency relation for DoubleBuffer (Theorem 10).
DOUBLEBUFFER_DYNAMIC = (
    SchemaPair("Produce", "Produce", "Ok", distinct=True),  # Produce(x) ≥D Produce(y);Ok()
    SchemaPair("Produce", "Transfer", "Ok"),  # Produce(x) ≥D Transfer();Ok()
    SchemaPair("Transfer", "Produce", "Ok"),  # Transfer() ≥D Produce(x);Ok()
    SchemaPair("Consume", "Transfer", "Ok"),  # Consume() ≥D Transfer();Ok()
    SchemaPair("Transfer", "Consume", "Ok"),  # Transfer() ≥D Consume();Ok(x)
)


def doublebuffer_theorem12_witness() -> tuple[BehavioralHistory, BehavioralHistory, Op]:
    """The paper's Theorem 12 counterexample, verbatim.

    Returns ``(H, G, appended)`` with ``appended = [Consume();Ok(x) D]``:
    ``H``, ``G``, and ``G·appended`` are in ``Hybrid(DoubleBuffer)`` and
    ``G`` is closed under ``≥D`` for the Consume invocation, but
    ``H·appended`` is not hybrid atomic — an illegal serialization
    results if the active actions commit in the order B, C, D.
    """
    history = BehavioralHistory.build(
        Begin("A"),
        Begin("B"),
        Begin("C"),
        Begin("D"),
        Op(event("Produce", ("x",)), "A"),
        Op(event("Transfer"), "A"),
        Commit("A"),
        Op(event("Transfer"), "C"),
        Op(event("Produce", ("y",)), "B"),
    )
    subhistory = BehavioralHistory(history.entries[:-1])
    appended = Op(event("Consume", (), ok("x")), "D")
    return history, subhistory, appended
