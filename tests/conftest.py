"""Shared fixtures for the test suite.

Expensive fixtures (the dots stack, the US-map database) are session-scoped:
they are read-only from the tests' perspective, and rebuilding them per test
would dominate the suite's runtime.

With ``REPRO_LOCKWATCH=1`` in the environment (CI sets it on the smoke
jobs) every test runs under :mod:`repro.analysis.lockwatch`: every lock
created after session start is instrumented, the global
lock-acquisition-order graph accumulates across tests, and each test ends
by verifying the graph is acyclic with no unguarded-write violations.
"""

from __future__ import annotations

import pytest

from repro.analysis import lockwatch
from repro.bench.apps import build_dots_backend, default_config
from repro.config import KyrixConfig
from repro.datagen.synthetic import DotDatasetSpec, tiny_spec
from repro.storage.database import Database


@pytest.fixture(scope="session", autouse=True)
def _lockwatch_session():
    if not lockwatch.watching_requested() or lockwatch.installed():
        yield None
        return
    watch = lockwatch.install()
    try:
        yield watch
    finally:
        lockwatch.uninstall()
        watch.verify()


@pytest.fixture(autouse=True)
def _lockwatch_verify(_lockwatch_session):
    yield
    if _lockwatch_session is not None:
        _lockwatch_session.verify()


@pytest.fixture()
def database() -> Database:
    """A fresh, empty embedded database."""
    return Database()


@pytest.fixture(scope="session")
def tiny_uniform_spec() -> DotDatasetSpec:
    """A small Uniform dataset spec used across server/client tests."""
    return tiny_spec("uniform", num_points=5_000, seed=11)


@pytest.fixture(scope="session")
def tiny_skewed_spec() -> DotDatasetSpec:
    return tiny_spec("skewed", num_points=5_000, seed=13)


@pytest.fixture(scope="session")
def dots_stack(tiny_uniform_spec):
    """A fully built dots application over the tiny Uniform dataset.

    Session-scoped because loading + indexing the dataset takes a measurable
    fraction of a second; tests must not mutate the underlying tables.
    """
    config = default_config(viewport=512)
    return build_dots_backend(tiny_uniform_spec, config=config, tile_sizes=(512,))


@pytest.fixture(scope="session")
def skewed_stack(tiny_skewed_spec):
    config = default_config(viewport=512)
    return build_dots_backend(tiny_skewed_spec, config=config, tile_sizes=(512,))


@pytest.fixture()
def small_config() -> KyrixConfig:
    """A small-viewport configuration for frontend tests."""
    return default_config(viewport=512)
