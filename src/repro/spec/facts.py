"""Type facts, derived once per process per data type *value*.

A conflict table, a grounded dependency relation, the set of operations
that never change state: each is a function of a type's serial
specification alone, so every object of that type, in every cluster
built in the process, can share one result.  :func:`derived_once` is the
memo the runtime's build path consults; the pure derivations underneath
(:mod:`repro.spec.enumerate`, :mod:`repro.dependency.dynamic_dep`,
:mod:`repro.compute`) and the theorem battery never do, so they keep
measuring — and testing — cold derivations.

Two data types have the same *value* when they are instances of the same
class with equal constructor state (every type in :mod:`repro.types` is
a class over tuples).  A subclass is a different value even with
identical attributes: it may override ``apply``.  State that cannot be
hashed falls back to one memo per instance.  Results are shared by
reference, so whatever is stored here must be immutable.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, TypeVar
from weakref import WeakKeyDictionary

from repro.spec.datatype import SerialDataType

T = TypeVar("T")

_BY_VALUE: dict[Hashable, dict[Hashable, Any]] = {}
_BY_INSTANCE: "WeakKeyDictionary[SerialDataType, dict[Hashable, Any]]" = (
    WeakKeyDictionary()
)


def value_key(datatype: SerialDataType) -> Hashable:
    """What memos of type facts key on: the data type's *value*.

    Its class and sorted constructor state; the instance itself when that
    state cannot be hashed.
    """
    key = (type(datatype), tuple(sorted(vars(datatype).items())))
    try:
        hash(key)
    except TypeError:
        return datatype
    return key


def derived_once(
    datatype: SerialDataType, fact: Hashable, derive: Callable[[], T]
) -> T:
    """``derive()``, computed on first request for ``(datatype value, fact)``.

    ``fact`` names what is derived and every parameter besides the data
    type it depends on (a depth, a relation); ``derive`` must be a pure
    function of those and return an immutable result.
    """
    key = value_key(datatype)
    facts = (_BY_INSTANCE if key is datatype else _BY_VALUE).setdefault(key, {})
    try:
        return facts[fact]
    except KeyError:
        result = facts[fact] = derive()
        return result
