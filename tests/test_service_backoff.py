"""Respawn backoff of the parse service, computed without any worker."""

from __future__ import annotations

import random

import pytest

from repro.service import ParseService, ServiceConfig
from repro.service.supervisor import _WorkerSlot


def _bare_service(config: ServiceConfig) -> ParseService:
    # Only the attributes _backoff_locked reads: no pool, no processes.
    service = ParseService.__new__(ParseService)
    service.config = config
    service._rng = random.Random(config.seed)
    return service


@pytest.mark.parametrize(
    "failures, doublings", [(1, 0), (2, 1), (1025, None), (10**6, None)]
)
def test_backoff_stays_finite_and_capped(failures, doublings):
    config = ServiceConfig()
    service = _bare_service(config)
    delay = service._backoff_locked(_WorkerSlot(0, consecutive_failures=failures))
    # None: so many failures in a row that the delay sits at the cap.
    expected = (
        config.spawn_backoff_cap
        if doublings is None
        else min(config.spawn_backoff_cap, config.spawn_backoff_base * 2**doublings)
    )
    assert expected <= delay <= expected * 1.25
    assert delay <= config.spawn_backoff_cap * 1.25


def test_zero_backoff_stays_zero_after_long_churn():
    service = _bare_service(ServiceConfig(spawn_backoff_base=0.0, spawn_backoff_cap=0.0))
    assert service._backoff_locked(_WorkerSlot(0, consecutive_failures=10**6)) == 0.0
