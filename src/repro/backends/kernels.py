"""Numeric kernel bodies of the vectorized linear-array sweep.

:class:`~repro.backends.vectorized.LinearSweepPlan` holds only geometry;
the kernels here stream operand values through it.  Row ``r`` of the
padded problem consumes padded columns cyclically from ``s_r = r mod w``,
and rows with equal ``s_r`` share a lane of the ``(N_bar, w, M_pad)``
view, so the NumPy kernels rotate into consumption order with strided
slices per lane — never a gather, never an O(N_pad * M_pad) index
tensor.

The float sweep takes a stack of ``k`` same-geometry problems (a single
solve is ``k = 1``); callers cut long stacks into chunks whose
accumulators fit :data:`CHUNK_BYTES` (:func:`chunk_problems`).  Two
bodies exist for it:

* a pure-NumPy body that multiplies each lane of every problem in the
  chunk directly into a ``b``-seeded accumulator and folds it with one
  in-place ``np.add.accumulate`` prefix sum (always available), and
* a Numba ``@njit`` body with the batch axis as its outer loop, compiled
  lazily on first use when Numba is importable (no ``fastmath`` — the
  sequential fold order is the whole bit-identity contract).

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
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "NUMBA_AVAILABLE",
    "NUMBA_DISABLE_ENV",
    "numba_enabled",
    "CHUNK_BYTES",
    "chunk_problems",
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


#: Byte budget of one chunk's float64 accumulator.  A stack is swept in
#: chunks of as many problems as fit (at least one).  Unchunked, 16
#: 512x512 problems (a 33 MB accumulator) ran at 0.6-0.8x the speed of
#: 16 separate sweeps.  The budget is also glibc's default mmap
#: threshold: larger chunk temporaries are mapped afresh per call, and a
#: 16 x 48x48 stack in one 300 KB chunk paid ~180 page faults (~0.5 ms)
#: per sweep; at 128 KiB they are recycled from the heap.
CHUNK_BYTES = 128 * 1024


def chunk_problems(n_pad: int, m_pad: int) -> int:
    """Problems per swept chunk: the most whose accumulators fit the budget."""
    return max(1, CHUNK_BYTES // (n_pad * (m_pad + 1) * 8))


def _band_order(snapshots: np.ndarray, out: np.ndarray, n_bar: int, w: int) -> None:
    """Write ``(k, N_pad, M_bar)`` pass snapshots into ``out`` in band-row order.

    ``out`` is the ``(k, N_pad * M_bar)`` slice of the band-output stack;
    band row ``(block, pass, lane)`` holds row ``block * w + lane``'s
    snapshot after pass ``pass`` (the simulator's ``y_per_problem`` order).
    """
    k, _n_pad, m_bar = snapshots.shape
    out.reshape(k, n_bar, m_bar, w)[...] = snapshots.reshape(
        k, n_bar, w, m_bar
    ).transpose(0, 1, 3, 2)


def _sweep_numpy(
    a_pad: np.ndarray,
    x_pad: np.ndarray,
    b_pad: np.ndarray,
    w: int,
    n_bar: int,
    m_bar: int,
    bands: np.ndarray,
    y: np.ndarray,
) -> None:
    """Fused multiply-rotate-fold of one stack, with per-pass snapshots.

    The stack's block rows are laid end to end, ``k * N_bar`` of them, so
    each lane's products are two strided slice products for the whole
    stack, written *already rotated* into columns ``1..M_pad`` of a
    ``b``-seeded accumulator (no intermediate product array).  Every block
    row needs its own problem's ``x``: a lone problem broadcasts it, a
    stack repeats it per block row.  ``np.add.accumulate`` is a sequential
    accumulate (each output is the previous output plus the next input,
    never a pairwise tree), so one in-place prefix sum along the
    contiguous axis is the simulator's per-row fold verbatim; column
    ``(j + 1) w`` is then exactly the pass-``j`` partial snapshot.
    """
    k = a_pad.shape[0]
    n_pad = n_bar * w
    m_pad = m_bar * w
    acc = np.empty((k * n_pad, m_pad + 1), dtype=np.float64)
    acc[:, 0] = b_pad.reshape(-1)
    acc3 = acc.reshape(k * n_bar, w, m_pad + 1)
    a3 = a_pad.reshape(k * n_bar, w, m_pad)
    xs = x_pad[0] if k == 1 else np.repeat(x_pad, n_bar, axis=0)
    np.multiply(a3[:, 0, :], xs, out=acc3[:, 0, 1:])
    for lane in range(1, w):
        split = m_pad - lane
        np.multiply(
            a3[:, lane, lane:], xs[..., lane:], out=acc3[:, lane, 1 : split + 1]
        )
        np.multiply(
            a3[:, lane, :lane], xs[..., :lane], out=acc3[:, lane, split + 1 :]
        )
    np.add.accumulate(acc, axis=1, out=acc)
    _band_order(acc[:, w::w].reshape(k, n_pad, m_bar), bands, n_bar, w)
    y[...] = acc[:, -1].reshape(k, n_pad)


def _sweep_loops(a_pad, x_pad, b_pad, w, n_bar, m_bar):
    """Scalar body of the Numba kernel: one left fold per padded row.

    Returns ``(partials, y)`` with ``partials[p, j, r]`` the pass-``j``
    snapshot of row ``r`` of problem ``p``.  Plain Python runs it too
    (slowly), which is how its logic is checked where Numba is absent.
    """
    k = a_pad.shape[0]
    n_pad = n_bar * w
    m_pad = m_bar * w
    y = b_pad.copy()
    partials = np.empty((k, m_bar, n_pad), dtype=np.float64)
    for p in range(k):
        for r in range(n_pad):
            shift = r % w
            acc = y[p, r]
            for t in range(m_pad):
                c = t + shift
                if c >= m_pad:
                    c -= m_pad
                acc = acc + a_pad[p, r, c] * x_pad[p, c]
                if (t + 1) % w == 0:
                    partials[p, (t + 1) // w - 1, r] = acc
            y[p, r] = acc
    return partials, y


# One compiled dispatcher per process, built on first use.  Numba
# dispatchers don't pickle, so plan objects never hold them — they reach
# this module-level cache at call time instead.
_NUMBA_SWEEP = None


def _numba_sweep():  # pragma: no cover - Numba-installed leg only
    global _NUMBA_SWEEP
    if _NUMBA_SWEEP is None:
        _NUMBA_SWEEP = _njit(cache=False)(_sweep_loops)
    return _NUMBA_SWEEP


def float_linear_sweep(
    a_pad: np.ndarray,
    x_pad: np.ndarray,
    b_pad: np.ndarray,
    w: int,
    n_bar: int,
    m_bar: int,
    out: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(band_outputs, y_padded)`` of a stack of ``k`` float mat-vec sweeps.

    Operands arrive padded to ``w`` multiples as contiguous float64
    stacks of shapes ``(k, N_pad, M_pad)``, ``(k, M_pad)`` and
    ``(k, N_pad)``; the results are ``(k, band_rows)`` and ``(k, N_pad)``
    arrays, written into ``out`` when given.  Row ``p`` of each result is
    bit-identical to sweeping problem ``p`` alone (a single solve is the
    ``k = 1`` stack): every padded row keeps its own sequential fold.
    Callers keep stacks within :func:`chunk_problems`.
    """
    k = a_pad.shape[0]
    n_pad = n_bar * w
    if out is None:
        out = (
            np.empty((k, n_pad * m_bar), dtype=np.float64),
            np.empty((k, n_pad), dtype=np.float64),
        )
    bands, y = out
    if numba_enabled():  # pragma: no cover - Numba-installed leg only
        partials, y[...] = _numba_sweep()(a_pad, x_pad, b_pad, w, n_bar, m_bar)
        _band_order(partials.transpose(0, 2, 1), bands, n_bar, w)
    else:
        _sweep_numpy(a_pad, x_pad, b_pad, w, n_bar, m_bar, bands, y)
    return bands, y


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
    bands = np.empty((1, partials.size), dtype=partials.dtype)
    _band_order(partials[None], bands, n_bar, w)
    return bands[0], partials[:, -1].copy()
