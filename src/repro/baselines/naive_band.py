"""The naive strategy the paper argues against: dense blocks as full bands.

Kung's arrays are designed for band matrices.  The straightforward way to
run a *dense* problem on them — and the reason the paper says those arrays
"suffer a throughput decrease when dense matrices are operated" — is to
treat every ``w x w`` dense block as a band matrix of full bandwidth
``2w - 1``, run the blocks one after another, and add the per-block partial
results outside the array:

* the array must be almost twice as large (``2w - 1`` cells instead of
  ``w`` for matrix-vector; ``(2w-1) x (2w-1)`` instead of ``w x w`` for
  matrix-matrix),
* the blocks cannot be chained, so the pipeline drains between blocks, and
* the partial results have to be accumulated by a host outside the array.

The classes here implement exactly that strategy on the same cycle-accurate
simulators used by the DBT pipelines, so the benchmark X1 can compare
utilization, external operation counts and array sizes on equal footing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..backends.registry import VECTORIZED, resolve_backend
from ..backends.vectorized import (
    full_band_block_matmul,
    full_band_block_matvec,
    hex_structural_metrics,
)
from ..errors import ShapeError
from ..matrices.banded import BandMatrix
from ..matrices.blocks import BlockGrid
from ..matrices.dense import as_matrix, as_vector
from ..matrices.padding import validate_array_size
from ..systolic.feedback import ExternalSource
from ..systolic.hex_array import CTokenPlan, HexagonalArray
from ..systolic.linear_array import LinearContraflowArray, LinearProblem

__all__ = ["NaiveBaselineResult", "NaiveBlockMatVec", "NaiveBlockMatMul"]


@dataclass
class NaiveBaselineResult:
    """Aggregate measurements of a naive block-by-block execution."""

    result: np.ndarray
    processing_elements: int
    total_steps: int
    mac_operations: int
    external_additions: int
    block_runs: int

    @property
    def utilization(self) -> float:
        """Overall PE utilization across the whole block sequence."""
        if self.total_steps == 0:
            return 0.0
        return self.mac_operations / (self.processing_elements * self.total_steps)


class NaiveBlockMatVec:
    """``y = A x + b`` computed block by block on a ``2w - 1`` cell array."""

    def __init__(self, w: int, backend: str = "simulate"):
        self._w = validate_array_size(w)
        self._backend = resolve_backend(backend)

    @property
    def w(self) -> int:
        return self._w

    @property
    def array_size(self) -> int:
        """Cells needed to hold a full ``w x w`` block as a band: ``2w - 1``."""
        return 2 * self._w - 1

    def solve(
        self, matrix: np.ndarray, x: np.ndarray, b: Optional[np.ndarray] = None
    ) -> NaiveBaselineResult:
        matrix = as_matrix(matrix, "matrix")
        x = as_vector(x, "x")
        if x.shape[0] != matrix.shape[1]:
            raise ShapeError(
                f"x has length {x.shape[0]} but the matrix has {matrix.shape[1]} columns"
            )
        n, m = matrix.shape
        w = self._w
        grid = BlockGrid(matrix, w)
        x_padded = np.zeros(grid.block_cols * w, dtype=float)
        x_padded[:m] = x
        y_padded = np.zeros(grid.block_rows * w, dtype=float)
        if b is not None:
            b = as_vector(b, "b")
            if b.shape[0] != n:
                raise ShapeError(f"b has length {b.shape[0]}, expected {n}")
            y_padded[:n] = b

        array = LinearContraflowArray(self.array_size)
        total_steps = 0
        total_macs = 0
        external_additions = 0
        runs = 0
        for i in range(grid.block_rows):
            for j in range(grid.block_cols):
                block = grid.block(i, j)
                if self._backend == VECTORIZED:
                    partial = full_band_block_matvec(
                        block, x_padded[j * w : (j + 1) * w]
                    )
                    # A full-bandwidth w x w block on 2w - 1 cells: last
                    # of the w rows injected at cycle 2 (w - 1), then
                    # 2w - 1 cells; all w^2 band positions compute.
                    total_steps += 2 * (w - 1) + self.array_size
                    total_macs += w * w
                else:
                    band = BandMatrix.from_dense(block, lower=w - 1, upper=w - 1)
                    sources: List[object] = [
                        ExternalSource(value=0.0, tag=("b", i * w + offset))
                        for offset in range(w)
                    ]
                    problem = LinearProblem(
                        band=band,
                        x=x_padded[j * w : (j + 1) * w],
                        y_sources=sources,
                    )
                    run = array.run(problem)
                    total_steps += run.total_cycles
                    total_macs += run.report.mac_operations
                    partial = run.y_per_problem[0]
                runs += 1
                # The host adds the block's partial result into y.
                y_padded[i * w : (i + 1) * w] += partial
                external_additions += w

        return NaiveBaselineResult(
            result=y_padded[:n].copy(),
            processing_elements=self.array_size,
            total_steps=total_steps,
            mac_operations=total_macs,
            external_additions=external_additions,
            block_runs=runs,
        )


class NaiveBlockMatMul:
    """``C = A B + E`` computed block by block on a ``(2w-1) x (2w-1)`` array."""

    def __init__(self, w: int, backend: str = "simulate"):
        self._w = validate_array_size(w)
        self._backend = resolve_backend(backend)
        if self._backend == VECTORIZED:
            band = self._w - 1  # each dense block runs as a full band
            self._block_metrics = hex_structural_metrics(
                self._w, self._w, band, band, self._w, self._w, band, band
            )
        else:
            self._block_metrics = None

    @property
    def w(self) -> int:
        return self._w

    @property
    def array_size(self) -> int:
        return 2 * self._w - 1

    def solve(
        self, a: np.ndarray, b: np.ndarray, e: Optional[np.ndarray] = None
    ) -> NaiveBaselineResult:
        a = as_matrix(a, "A")
        b = as_matrix(b, "B")
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}")
        n, p = a.shape
        m = b.shape[1]
        w = self._w
        a_grid = BlockGrid(a, w)
        b_grid = BlockGrid(b, w)
        c_padded = np.zeros((a_grid.block_rows * w, b_grid.block_cols * w), dtype=float)
        if e is not None:
            e = as_matrix(e, "E")
            if e.shape != (n, m):
                raise ShapeError(f"E must have shape {(n, m)}, got {e.shape}")
            c_padded[:n, :m] = e

        array = HexagonalArray(self.array_size, self.array_size)
        total_steps = 0
        total_macs = 0
        external_additions = 0
        runs = 0
        for i in range(a_grid.block_rows):
            for j in range(b_grid.block_cols):
                for k in range(a_grid.block_cols):
                    if self._block_metrics is not None:
                        product = full_band_block_matmul(
                            a_grid.block(i, k), b_grid.block(k, j)
                        )
                        total_steps += self._block_metrics.c_stream_cycles
                        total_macs += self._block_metrics.mac_operations
                    else:
                        band_a = BandMatrix.from_dense(
                            a_grid.block(i, k), lower=w - 1, upper=w - 1
                        )
                        band_b = BandMatrix.from_dense(
                            b_grid.block(k, j), lower=w - 1, upper=w - 1
                        )
                        run = array.run(band_a, band_b, c_plan=CTokenPlan())
                        total_steps += run.c_stream_cycles
                        total_macs += run.report.mac_operations
                        product = run.c_band.to_dense()
                    runs += 1
                    # The host accumulates the block product into C.
                    c_padded[i * w : (i + 1) * w, j * w : (j + 1) * w] += product
                    external_additions += w * w

        return NaiveBaselineResult(
            result=c_padded[:n, :m].copy(),
            processing_elements=self.array_size ** 2,
            total_steps=total_steps,
            mac_operations=total_macs,
            external_additions=external_additions,
            block_runs=runs,
        )
