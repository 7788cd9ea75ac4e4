"""Execution backends: how a compiled plan turns operand values into results.

The plan/execute split of :mod:`repro.api` compiles everything
shape-determined once; *backends* are the interchangeable engines that
stream values through a compiled plan:

* ``simulate`` — the register-level simulators of :mod:`repro.systolic`
  (cycle-accurate; the only backend that records data-flow traces);
* ``vectorized`` — NumPy diagonal-sweep engines that replay the same MAC
  order without per-cycle state (bit-identical values and metrics,
  orders of magnitude faster on large problems; optional Numba kernel
  bodies);
* ``auto`` — the resolution rule: vectorized for values, simulator when
  a trace is requested.

See :mod:`repro.backends.registry` for the registry,
:mod:`repro.backends.vectorized` for the sweep engines and
:mod:`repro.backends.kernels` for their numeric kernel bodies.
"""

from .registry import (
    AUTO_BACKEND,
    SIMULATE,
    VECTORIZED,
    BackendSpec,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)

__all__ = [
    "AUTO_BACKEND",
    "SIMULATE",
    "VECTORIZED",
    "BackendSpec",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
]
