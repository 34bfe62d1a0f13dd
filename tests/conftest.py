"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.config import ProtocolConfig
from repro.crypto.signatures import PKI
from repro.crypto.threshold import ThresholdScheme
from repro.runtime import LocalTransport
from repro.sim.events import Simulator

# Tier-1 draws the same examples on every run: each @given test's examples
# follow from a hash of the test, so its cost and its verdict repeat.  The
# "explore" profile draws fresh ones, from the seed --hypothesis-seed names
# (CI runs every @given test under it at the same example counts).
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")


@pytest.fixture
def protocol_config() -> ProtocolConfig:
    """A small n=4 (f=1) system with Delta=1."""
    return ProtocolConfig(n=4, delta=1.0, x=4)


@pytest.fixture
def larger_config() -> ProtocolConfig:
    """An n=7 (f=2) system."""
    return ProtocolConfig(n=7, delta=1.0, x=4)


@pytest.fixture
def simulator() -> Simulator:
    return Simulator(seed=42)


@pytest.fixture
def transport(simulator: Simulator) -> LocalTransport:
    """An in-memory transport bound to the ``simulator`` fixture."""
    transport = LocalTransport(delay=0.1)
    transport.bind(simulator)
    return transport


@pytest.fixture
def pki_and_keys(protocol_config: ProtocolConfig):
    pki, signing_keys = PKI.setup(protocol_config.processor_ids)
    return pki, signing_keys


@pytest.fixture
def scheme(pki_and_keys) -> ThresholdScheme:
    pki, _ = pki_and_keys
    return ThresholdScheme(pki)
