"""Fixtures for the telemetry tests.

The tracer and registry are process-wide singletons; every test in this
package gets them freshly enabled and leaves them disabled, so enabling
tracing here can never leak into the rest of the suite.
"""

from __future__ import annotations

import pytest

from repro.telemetry import configure, get_registry, get_tracer


@pytest.fixture()
def tracer():
    """The process tracer, enabled; disabled on teardown."""
    tracer = configure(enabled=True)
    yield tracer
    configure(enabled=False)


@pytest.fixture()
def registry(tracer):
    return get_registry()


@pytest.fixture()
def disabled_tracer():
    """The process tracer, explicitly disabled (the default state)."""
    yield configure(enabled=False)
    configure(enabled=False)
