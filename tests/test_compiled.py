"""The deprecated ``backend="compiled"`` alias and the plan store.

``compiled`` is a one-cycle alias normalized to ``vectorized`` (with a
:class:`DeprecationWarning`); the kernels it used to select now back the
``vectorized`` engine.  Plans requested under the alias must still
round-trip through :class:`~repro.store.PlanStore` and fail open to
recompilation when an artifact is corrupt.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ArraySpec, ExecutionOptions, Solver
from repro.store import PlanStore


def _alias_options() -> ExecutionOptions:
    with pytest.warns(DeprecationWarning, match="compiled"):
        options = ExecutionOptions(backend="compiled")
    assert options.backend == "vectorized"
    return options


class TestCompiledPersistence:
    W = 3

    def test_compiled_plan_round_trips_through_store(self, tmp_path, rng):
        a = rng.standard_normal((9, 7))
        x = rng.standard_normal(7)
        writer = Solver(
            ArraySpec(self.W),
            options=_alias_options(),
            store=PlanStore(tmp_path),
        )
        first = writer.solve("matvec", a, x)
        reader = Solver(
            ArraySpec(self.W),
            options=_alias_options(),
            store=PlanStore(tmp_path, readonly=True),
        )
        second = reader.solve("matvec", a, x)
        assert np.array_equal(second.values, first.values)
        assert reader.store.stats.hits == 1

    def test_corrupt_artifact_fails_open_to_recompile(self, tmp_path, rng):
        a = rng.standard_normal((6, 6))
        x = rng.standard_normal(6)
        store = PlanStore(tmp_path)
        writer = Solver(
            ArraySpec(self.W),
            options=_alias_options(),
            store=store,
        )
        expected = writer.solve("matvec", a, x)
        for artifact in tmp_path.iterdir():
            artifact.write_bytes(b"garbage")
        reader = Solver(
            ArraySpec(self.W),
            options=_alias_options(),
            store=PlanStore(tmp_path),
        )
        solution = reader.solve("matvec", a, x)
        assert np.array_equal(solution.values, expected.values)
        assert reader.store.stats.errors >= 1
