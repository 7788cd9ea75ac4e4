"""The execution-backend registry.

The package can *execute* a compiled plan in more than one way:

``simulate``
    The register-level / cycle-faithful simulators in
    :mod:`repro.systolic`.  Authoritative for anything cycle-level —
    data-flow traces, output streams, per-cell activity — and the
    reference the fast engine is checked against.

``vectorized``
    The NumPy diagonal-sweep engines in
    :mod:`repro.backends.vectorized`.  They replay the *same* sequence
    of multiply-accumulates each array cell would perform — on the
    linear array one lane-rotated multiply and one sequential prefix-sum
    fold per row (optionally a Numba body, see
    :mod:`repro.backends.kernels`), on the hexagonal array a few
    fancy-indexed folds per chain depth — so the recovered values are
    bit-identical to the simulator's, and the step/utilization metrics
    are produced from the same structural quantities.  No per-cycle
    state is kept, which makes large-``N`` solves orders of magnitude
    faster.

``auto``
    Resolution rule, not an engine: ``simulate`` when a cycle-level
    artifact (a data-flow trace) was requested, ``vectorized``
    otherwise.

The former ``compiled`` engine's kernels now *are* ``vectorized``:
``"compiled"`` is still accepted for one release as a deprecated alias
(:func:`canonical_backend_name` normalizes it, with a
:class:`DeprecationWarning`), but it is not a registered engine.

Backends are registered as :class:`BackendSpec` descriptors so that new
engines (a GPU sweep, a distributed executor) plug in without touching
the plan code: register a spec, teach the plans to dispatch on its name.
"""

from __future__ import annotations

import difflib
import threading
import warnings
from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import BackendError

__all__ = [
    "BackendSpec",
    "AUTO_BACKEND",
    "SIMULATE",
    "VECTORIZED",
    "register_backend",
    "get_backend",
    "available_backends",
    "canonical_backend_name",
    "resolve_backend",
]

#: Name of the resolution pseudo-backend.
AUTO_BACKEND = "auto"
#: Name of the cycle-accurate simulator backend.
SIMULATE = "simulate"
#: Name of the NumPy diagonal-sweep backend.
VECTORIZED = "vectorized"


@dataclass(frozen=True)
class BackendSpec:
    """Descriptor of one execution backend.

    ``supports_trace`` declares whether the backend can produce the
    cycle-by-cycle data-flow artifacts (:class:`~repro.systolic.trace.DataFlowTrace`,
    tagged output streams); ``auto`` resolution falls back to a
    trace-capable backend whenever a trace is requested.
    """

    name: str
    description: str
    supports_trace: bool = False


_REGISTRY: Dict[str, BackendSpec] = {}
# Registration can race with option validation / plan builds once the
# service layer's shard threads are running; one lock keeps the registry
# consistent without slowing the (dict-read) lookup hot path.
_REGISTRY_LOCK = threading.Lock()


def register_backend(spec: BackendSpec) -> BackendSpec:
    """Register a backend descriptor under its name (last one wins).

    Thread-safe: a custom engine may be registered while service shard
    workers are already executing plans.
    """
    if not spec.name or spec.name == AUTO_BACKEND:
        raise BackendError(f"invalid backend name {spec.name!r}")
    with _REGISTRY_LOCK:
        _REGISTRY[spec.name] = spec
    return spec


def get_backend(name: str) -> BackendSpec:
    """The descriptor for ``name``; raises :class:`BackendError` if unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        with _REGISTRY_LOCK:
            names = sorted(_REGISTRY) + [AUTO_BACKEND]
        message = f"unknown execution backend {name!r}; available: {', '.join(names)}"
        close = difflib.get_close_matches(str(name), names, n=1)
        if close:
            message += f"; did you mean {close[0]!r}?"
        raise BackendError(message) from None


def available_backends() -> Tuple[str, ...]:
    """All registered backend names, sorted (``auto`` is a rule, not a backend)."""
    with _REGISTRY_LOCK:
        return tuple(sorted(_REGISTRY))


#: Deprecated backend names still accepted, and the engine each now means.
_ALIASES = {"compiled": VECTORIZED}


def canonical_backend_name(name: str, stacklevel: int = 2) -> str:
    """``name``, or the engine a deprecated alias stands for (with a warning)."""
    target = _ALIASES.get(name)
    if target is None:
        return name
    warnings.warn(
        f"backend={name!r} is deprecated: its kernels are now the "
        f"{target!r} backend; use backend={target!r} or {AUTO_BACKEND!r}",
        DeprecationWarning,
        stacklevel=stacklevel + 1,
    )
    return target


def resolve_backend(name: str = AUTO_BACKEND, record_trace: bool = False) -> str:
    """Resolve a requested backend name into a concrete engine name.

    ``auto`` picks ``vectorized`` for plain value/metric execution and
    ``simulate`` when a data-flow trace is requested.  An explicit
    backend that cannot produce a requested trace raises
    :class:`~repro.errors.BackendError` instead of silently dropping the
    trace.
    """
    if name == AUTO_BACKEND:
        return SIMULATE if record_trace else VECTORIZED
    spec = get_backend(canonical_backend_name(name, stacklevel=3))
    if record_trace and not spec.supports_trace:
        raise BackendError(
            f"backend {name!r} cannot record a data-flow trace; use "
            f"backend={SIMULATE!r} (or backend={AUTO_BACKEND!r}) when "
            f"record_trace is set"
        )
    return spec.name


register_backend(
    BackendSpec(
        name=SIMULATE,
        description="register-level cycle-accurate array simulators",
        supports_trace=True,
    )
)
register_backend(
    BackendSpec(
        name=VECTORIZED,
        description="NumPy diagonal-sweep engines (bit-identical values, no cycle state)",
        supports_trace=False,
    )
)
