"""Shared fixtures for the tier-1 suite."""

from __future__ import annotations

import pytest

from repro.sim import environment


@pytest.fixture
def sim_kernel(monkeypatch):
    """Select the event-queue kernel of every Environment built without one.

    Ensembles and workload runners build their own environment, so a
    whole-system run is replayed on the heap kernel (the executable
    specification) only through this test-side switch; the program
    itself always runs the calendar kernel unless a caller passes
    ``kernel=``.
    """
    def select(kernel: str) -> None:
        monkeypatch.setattr(environment, "DEFAULT_KERNEL", kernel)
    return select
