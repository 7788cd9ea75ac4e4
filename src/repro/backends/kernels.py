"""Numeric kernel bodies of the vectorized linear-array sweep.

:class:`~repro.backends.vectorized.LinearSweepPlan` holds only geometry;
the kernels here stream operand values through it.  Row ``r`` of the
padded problem consumes padded columns cyclically from ``s_r = r mod w``,
and rows with equal ``s_r`` share a lane of the ``(N_bar, w, M_pad)``
view, so the NumPy kernels rotate into consumption order with strided
slices per lane — never a gather, never an O(N_pad * M_pad) index
tensor.

Two bodies exist for the float sweep:

* a pure-NumPy body that multiplies each lane directly into a
  ``b``-seeded accumulator and folds it with one in-place
  ``np.add.accumulate`` prefix sum (always available), and
* a Numba ``@njit`` body compiled lazily on first use when Numba is
  importable (no ``fastmath`` — the sequential fold order is the whole
  bit-identity contract).

Both replay the simulator's exact left fold ``((b + p_0) + p_1) + ...``
per padded row, so their results are bit-identical to each other and to
the ``simulate`` backend (asserted by ``tests/test_backends.py``).  The
int8 path needs no fold order — integer addition is associative — and
reduces each pass with one einsum.  Numba use can be vetoed without
uninstalling it by setting the :data:`NUMBA_DISABLE_ENV` environment
variable (the CI matrix runs one leg each way).
"""

from __future__ import annotations

import os
from typing import Tuple

import numpy as np

__all__ = [
    "NUMBA_AVAILABLE",
    "NUMBA_DISABLE_ENV",
    "numba_enabled",
    "float_linear_sweep",
    "int_linear_sweep",
]

try:  # pragma: no cover - exercised only on the Numba-installed CI leg
    from numba import njit as _njit  # type: ignore[import]

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the Numba-free leg
    _njit = None
    NUMBA_AVAILABLE = False

#: Set to ``1``/``true`` to force the pure-NumPy kernels even when Numba
#: is importable (parity testing, debugging, reproducibility audits).
NUMBA_DISABLE_ENV = "REPRO_DISABLE_NUMBA"


def numba_enabled() -> bool:
    """Whether the Numba-specialized kernel bodies are in use."""
    veto = os.environ.get(NUMBA_DISABLE_ENV, "").strip().lower()
    return NUMBA_AVAILABLE and veto not in ("1", "true", "yes", "on")


def _band_order(snapshots: np.ndarray, n_bar: int, w: int) -> np.ndarray:
    """Per-row ``(N_pad, M_bar)`` pass snapshots in the simulator's band-row order."""
    m_bar = snapshots.shape[1]
    return snapshots.reshape(n_bar, w, m_bar).transpose(0, 2, 1).reshape(-1)


def _sweep_numpy(
    a_pad: np.ndarray,
    x_pad: np.ndarray,
    b_pad: np.ndarray,
    w: int,
    n_bar: int,
    m_bar: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused multiply-rotate-fold with per-pass snapshots.

    Each lane's products are written *already rotated* into columns
    ``1..M_pad`` of a ``b``-seeded accumulator (two strided slice
    products per lane, no intermediate product array).
    ``np.add.accumulate`` is a sequential accumulate (each output is the
    previous output plus the next input, never a pairwise tree), so one
    in-place prefix sum along the contiguous axis is the simulator's
    per-row fold verbatim; column ``(j + 1) w`` is then exactly the
    pass-``j`` partial snapshot.
    """
    n_pad = n_bar * w
    m_pad = m_bar * w
    acc = np.empty((n_pad, m_pad + 1), dtype=np.float64)
    acc[:, 0] = b_pad
    acc3 = acc.reshape(n_bar, w, m_pad + 1)
    a3 = a_pad.reshape(n_bar, w, m_pad)
    np.multiply(a3[:, 0, :], x_pad, out=acc3[:, 0, 1:])
    for lane in range(1, w):
        split = m_pad - lane
        np.multiply(
            a3[:, lane, lane:], x_pad[lane:], out=acc3[:, lane, 1 : split + 1]
        )
        np.multiply(
            a3[:, lane, :lane], x_pad[:lane], out=acc3[:, lane, split + 1 :]
        )
    np.add.accumulate(acc, axis=1, out=acc)
    return _band_order(acc[:, w::w], n_bar, w), acc[:, -1].copy()


# One compiled dispatcher per process, built on first use.  Numba
# dispatchers don't pickle, so plan objects never hold them — they reach
# this module-level cache at call time instead.
_NUMBA_SWEEP = None


def _numba_sweep():  # pragma: no cover - Numba-installed leg only
    global _NUMBA_SWEEP
    if _NUMBA_SWEEP is None:

        @_njit(cache=False)
        def sweep(a_pad, x_pad, b_pad, w, n_bar, m_bar):
            n_pad = n_bar * w
            m_pad = m_bar * w
            y = b_pad.copy()
            partials = np.empty((m_bar, n_pad), dtype=np.float64)
            for r in range(n_pad):
                shift = r % w
                acc = y[r]
                for t in range(m_pad):
                    c = t + shift
                    if c >= m_pad:
                        c -= m_pad
                    acc = acc + a_pad[r, c] * x_pad[c]
                    if (t + 1) % w == 0:
                        partials[(t + 1) // w - 1, r] = acc
                y[r] = acc
            return partials, y

        _NUMBA_SWEEP = sweep
    return _NUMBA_SWEEP


def float_linear_sweep(
    a_pad: np.ndarray,
    x_pad: np.ndarray,
    b_pad: np.ndarray,
    w: int,
    n_bar: int,
    m_bar: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(band_outputs, y_padded)`` of one float mat-vec sweep.

    Operands arrive padded to ``w`` multiples as contiguous float64
    arrays.
    """
    if numba_enabled():  # pragma: no cover - Numba-installed leg only
        partials, y = _numba_sweep()(a_pad, x_pad, b_pad, w, n_bar, m_bar)
        return _band_order(partials.T, n_bar, w), y
    return _sweep_numpy(a_pad, x_pad, b_pad, w, n_bar, m_bar)


def int_linear_sweep(
    a_pad: np.ndarray,
    x_pad: np.ndarray,
    b_pad: np.ndarray,
    w: int,
    n_bar: int,
    m_bar: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(band_outputs, y_padded)`` of one int32-accumulate mat-vec sweep.

    The operands are rotated into consumption order *before* the
    multiply — the (typically int8) matrix per lane, ``x`` once per lane
    — so the only full-size int32 array is the product itself.  Pass
    ``j`` is then the contiguous column block ``[j w, (j+1) w)``: one
    einsum contraction over the ``(N_pad, M_bar, w)`` view plus a small
    prefix sum reproduces every snapshot.  Integer addition is
    associative, so these are the same int32 values the simulator's
    accumulators hold (the caller guarantees no overflow).
    """
    m_pad = m_bar * w
    a3 = a_pad.reshape(n_bar, w, m_pad)
    a_rot = np.empty_like(a3)
    x_rot = np.empty((w, m_pad), dtype=x_pad.dtype)
    a_rot[:, 0] = a3[:, 0]
    x_rot[0] = x_pad
    for lane in range(1, w):
        a_rot[:, lane, :-lane] = a3[:, lane, lane:]
        a_rot[:, lane, -lane:] = a3[:, lane, :lane]
        x_rot[lane, :-lane] = x_pad[lane:]
        x_rot[lane, -lane:] = x_pad[:lane]
    products = np.multiply(a_rot, x_rot, dtype=np.int32)
    partials = np.einsum(
        "rjt->rj", products.reshape(n_bar * w, m_bar, w), dtype=np.int32
    )
    np.cumsum(partials, axis=1, out=partials)
    partials += b_pad[:, None]
    return _band_order(partials, n_bar, w), partials[:, -1].copy()
