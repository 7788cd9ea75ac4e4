"""Configuration objects for the unified solver façade.

The seed exposed one bespoke class per problem, each with its own
constructor kwargs (``record_trace``, ``overlapped``, ``verify_structure``,
``tolerance``, ...).  The api layer replaces that scatter with two frozen
— therefore hashable, therefore cache-key-able — dataclasses:

* :class:`ArraySpec` describes the hardware: the systolic array size ``w``
  (the linear array has ``w`` cells, the hexagonal array ``w x w``).
* :class:`ExecutionOptions` gathers every execution knob of every problem
  kind.  Irrelevant knobs are simply ignored by a kind (e.g.
  ``overlapped`` by matmul), mirroring how serving configs work; the
  options object participates in the plan key as a whole, which keeps the
  keying rule trivially correct.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..backends.registry import AUTO_BACKEND, canonical_backend_name, get_backend
from ..errors import ArraySizeError
from ..iterative.criteria import ConvergenceCriteria
from ..matrices.padding import validate_array_size

__all__ = ["ArraySpec", "ExecutionOptions"]


@dataclass(frozen=True)
class ArraySpec:
    """The fixed-size systolic array a :class:`~repro.api.solver.Solver` targets.

    ``w`` is the paper's array size: the bandwidth of every transformed
    band, the number of cells of the linear array and the side of the
    hexagonal array.
    """

    w: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", validate_array_size(self.w))

    @classmethod
    def of(cls, spec: "ArraySpec | int") -> "ArraySpec":
        """Coerce an ``ArraySpec`` or a bare array size into an ``ArraySpec``."""
        if isinstance(spec, ArraySpec):
            return spec
        try:
            return cls(w=spec)
        except ArraySizeError:
            raise
        except TypeError:
            raise ArraySizeError(
                f"expected an ArraySpec or an integer array size, got {spec!r}"
            )


@dataclass(frozen=True)
class ExecutionOptions:
    """Every execution knob of every registered problem kind, in one place.

    Fields (consumers in parentheses):

    backend
        Execution engine streaming values through a compiled plan (all
        kinds): ``"simulate"`` for the cycle-accurate simulators,
        ``"vectorized"`` for the NumPy diagonal-sweep engines (identical
        values and metrics, no cycle-level artifacts), or ``"auto"`` (the
        default): ``simulate`` iff a data-flow trace is requested, else
        ``vectorized``.  ``"compiled"`` is a deprecated alias, normalized
        to ``"vectorized"`` with a :class:`DeprecationWarning`.
    record_trace
        Record the cycle-by-cycle data-flow trace (matvec; forces the
        simulator backend under ``backend="auto"``).
    overlapped
        Split the transformed problem at an original block-row boundary
        and interleave the halves on the idle cycles (matvec).
    verify_structure
        Audit the DBT structural conditions; with the plan/execute split
        this runs once at *plan* time, since the conditions are purely
        structural (matmul).
    sparse_tolerance
        Magnitude below which a ``w x w`` block counts as zero (sparse).
    gs_tolerance / gs_max_iterations
        Legacy convergence control (gauss_seidel); superseded by
        ``criteria`` for the :mod:`repro.iterative` kinds.
    criteria
        :class:`~repro.iterative.criteria.ConvergenceCriteria` for the
        iterative kinds (jacobi, sor, cg, refine, power).  Frozen and
        hashable, so it participates in the plan key like every other
        option.
    sor_omega
        Relaxation factor for the ``sor`` kind (``1.0`` is Gauss-Seidel;
        convergence needs ``0 < omega < 2``).
    dtype_mode
        Numeric datapath of the NN kinds (:mod:`repro.nn`):
        ``"float64"`` (the default, and what every classic kind uses) or
        ``"int8"`` — int8 operands accumulated in int32, the quantized
        inference datapath.  Participates in the plan key like every
        other option, so float and int8 plans for the same shape never
        collide.
    """

    record_trace: bool = False
    overlapped: bool = False
    verify_structure: bool = False
    sparse_tolerance: float = 0.0
    gs_tolerance: float = 1e-10
    gs_max_iterations: int = 200
    criteria: ConvergenceCriteria = ConvergenceCriteria()
    sor_omega: float = 1.0
    backend: str = AUTO_BACKEND
    dtype_mode: str = "float64"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "backend", canonical_backend_name(self.backend, stacklevel=3)
        )
        if self.backend != AUTO_BACKEND:
            get_backend(self.backend)  # raises BackendError for unknown names
        if self.sparse_tolerance < 0.0:
            raise ValueError(
                f"sparse_tolerance must be >= 0, got {self.sparse_tolerance}"
            )
        if self.gs_tolerance <= 0.0:
            raise ValueError(f"gs_tolerance must be > 0, got {self.gs_tolerance}")
        if self.gs_max_iterations < 1:
            raise ValueError(
                f"gs_max_iterations must be >= 1, got {self.gs_max_iterations}"
            )
        if not isinstance(self.criteria, ConvergenceCriteria):
            raise ValueError(
                f"criteria must be a ConvergenceCriteria, got {self.criteria!r}"
            )
        if not 0.0 < self.sor_omega < 2.0:
            raise ValueError(
                f"sor_omega must satisfy 0 < omega < 2, got {self.sor_omega}"
            )
        if self.dtype_mode not in ("float64", "int8"):
            raise ValueError(
                f"dtype_mode must be 'float64' or 'int8', got {self.dtype_mode!r}"
            )

    def merged(self, **overrides) -> "ExecutionOptions":
        """A copy with the given fields replaced (unknown names raise)."""
        return replace(self, **overrides)
