"""The deprecated ``backend="compiled"`` alias still solves correctly.

The compiled kernels were folded into the ``vectorized`` engine, whose
speed over ``simulate`` is gated by ``test_backend_speedup.py``.  What
stays here is the smoke check (always on, including
``--benchmark-disable``): a solve requested under the alias agrees
bit-for-bit with the cycle-accurate simulator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ArraySpec, ExecutionOptions, Solver


def test_compiled_agrees_smoke(rng):
    """Solves under the ``compiled`` alias match simulate bit for bit."""
    w = 4
    a = rng.normal(size=(24, 17))
    x = rng.normal(size=17)
    b = rng.normal(size=24)
    simulated = Solver(
        ArraySpec(w=w), options=ExecutionOptions(backend="simulate")
    ).solve("matvec", a, x, b)
    with pytest.warns(DeprecationWarning, match="compiled"):
        options = ExecutionOptions(backend="compiled")
    compiled = Solver(ArraySpec(w=w), options=options).solve("matvec", a, x, b)
    assert np.array_equal(compiled.values, simulated.values)
    assert compiled.measured_steps == simulated.measured_steps
    assert compiled.measured_utilization == simulated.measured_utilization
