"""Shared fixtures.

Session-scoped underlays: generation + all-pairs latency is the expensive
part, and the objects are read-only in the tests that share them.  Tests
that mutate state build their own.

Hypothesis profiles: ``ci`` (the default) is derandomized, so a run
passes or fails the same way every time; ``dev`` runs many more
examples to hunt for bugs::

    python -m pytest --hypothesis-profile=dev

Commit every failure it finds as a permanent ``@example``.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.sim import Simulation
from repro.underlay import Underlay, UnderlayConfig
from repro.underlay.topology import TopologyConfig

settings.register_profile("ci", derandomize=True, database=None, deadline=None)
settings.register_profile("dev", max_examples=1000, deadline=None)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def small_underlay() -> Underlay:
    """40 hosts over the default topology — read-only."""
    return Underlay.generate(UnderlayConfig(n_hosts=40, seed=3))


@pytest.fixture(scope="session")
def dense_underlay() -> Underlay:
    """90 hosts over few ASes (dense per-AS population) — read-only."""
    return Underlay.generate(
        UnderlayConfig(
            topology=TopologyConfig(n_tier1=3, n_tier2=6, n_stub=9, n_regions=3),
            n_hosts=90,
            seed=7,
        )
    )


@pytest.fixture()
def sim() -> Simulation:
    return Simulation()
