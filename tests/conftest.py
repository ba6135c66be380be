"""Shared fixtures: data types and their legality oracles.

Oracles are session-scoped because their replay tries only grow — reuse
across tests is a large speedup and has no cross-test effects.
"""

from __future__ import annotations

import pytest

from repro.spec.legality import LegalityOracle
from repro.types import (
    PROM,
    Account,
    Bag,
    Counter,
    Directory,
    DoubleBuffer,
    FlagSet,
    LogObject,
    Queue,
    Register,
    SemiQueue,
    Stack,
)


@pytest.fixture(scope="session")
def queue():
    return Queue()


@pytest.fixture(scope="session")
def prom():
    return PROM()


@pytest.fixture(scope="session")
def flagset():
    return FlagSet()


@pytest.fixture(scope="session")
def doublebuffer():
    return DoubleBuffer()


@pytest.fixture(scope="session")
def register():
    return Register()


@pytest.fixture(scope="session")
def counter():
    return Counter()


@pytest.fixture(scope="session")
def queue_oracle(queue):
    return LegalityOracle(queue)


@pytest.fixture(scope="session")
def prom_oracle(prom):
    return LegalityOracle(prom)


@pytest.fixture(scope="session")
def flagset_oracle(flagset):
    return LegalityOracle(flagset)


@pytest.fixture(scope="session")
def doublebuffer_oracle(doublebuffer):
    return LegalityOracle(doublebuffer)


@pytest.fixture(scope="session")
def register_oracle(register):
    return LegalityOracle(register)


@pytest.fixture(scope="session")
def counter_oracle(counter):
    return LegalityOracle(counter)


@pytest.fixture(scope="session")
def all_types():
    return (
        Queue(),
        PROM(),
        FlagSet(),
        DoubleBuffer(),
        Register(),
        Counter(),
        Bag(),
        Directory(),
        Account(),
        Stack(),
        SemiQueue(),
        LogObject(),
    )
