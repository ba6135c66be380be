"""Serial specifications as executable state machines.

A *serial specification* for an object is a set of possible serial
histories (paper, Section 3.1).  This subpackage represents serial
specifications operationally: a :class:`~repro.spec.datatype.SerialDataType`
is a (possibly nondeterministic) state machine whose traces are exactly
the legal serial histories.  :class:`~repro.spec.legality.LegalityOracle`
answers legality and equivalence queries with memoization, and
:mod:`repro.spec.enumerate` derives the bounded event and response
alphabets the model-checking kernel runs over.
"""

from repro.spec.datatype import SerialDataType
from repro.spec.legality import LegalityOracle
from repro.spec.enumerate import alphabets, event_alphabet

__all__ = [
    "SerialDataType",
    "LegalityOracle",
    "alphabets",
    "event_alphabet",
]
