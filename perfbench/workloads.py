"""The benchmark's three workloads: frozen sizes, seeded operands, mixes.

Every workload is a list of *signatures* -- one problem shape routed
through one public entry point of ``repro`` -- with a traffic weight.
The seed only chooses operand values and the order of the stream; the
sizes, the shares of the mix and the array size ``W`` are frozen here,
so two seeds measure the same work and a change to the program cannot
change the workload.  Inputs are generated here, never by
``repro.soak``.

Why each workload exists (which layer it isolates):

* ``solve-small`` -- per-call overhead (``api``, ``graph``, ``nn``)
  dominates: a warm n=32 solve is ~100 us against ~2 us for NumPy.
* ``solve-large`` -- the kernel does >90% of the work, so kernel and
  backend changes show here and overhead changes do not.
* ``plan-churn`` -- more distinct plan shapes than the plan cache holds,
  behind a ``PlanStore``: the only workload where plan builds and the
  store do the work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
from repro import (
    MLP, ConvergenceCriteria, Graph, GraphCompiler, Jacobi, MatMul, MatVec,
)

#: The array size of every workload.  At w=4 the overlapped mat-vecs
#: with n = 10, 12 and 20 have an odd number of block rows, whose
#: measured step counts differ from the paper's closed form (53/53/125
#: against 42/42/106 at seed); solve-small keeps them so the gap stays
#: visible in ``paper_step_mismatch``.
W = 4

#: Operand value variants per signature (shapes fixed, values rotate).
VARIANTS = 3

#: ``solve_batch`` group size.
BATCH = 16

#: Operations per pass of a workload's seeded deck.
DECK = 512

#: Jacobi runs a fixed sweep budget under a tolerance it never meets, so
#: every solve costs exactly this many sweeps.
SMALL_SWEEPS = 6
LARGE_SWEEPS = 8

#: Traffic share of each kind of operation in solve-small and
#: solve-large, copied from the repo's stated service traffic mix
#: (``KIND_MIX`` in ``repro/soak/workload.py``) and frozen here, so a
#: change to the program cannot move it.  Within a kind the share is
#: split equally over the workload's signatures of that kind.
KIND_MIX = {"matvec": 0.55, "matmul": 0.15, "jacobi": 0.10, "graph": 0.10, "nn": 0.10}

#: plan-churn: matvec shapes n x m with n, m drawn from this range
#: (3249 shapes, far more than the 128-entry default plan cache), one
#: new shape every ``CHURN_NEW_EVERY`` operations, repeats Zipf-skewed
#: towards the shapes introduced first.  These are design choices, not
#: measured traffic: they keep hits, store loads and cold builds all in
#: the stream, and no source for real plan-churn traffic exists.
CHURN_RANGE = (8, 64)
CHURN_NEW_EVERY = 8
CHURN_ZIPF_S = 1.1


def _rng(seed: int, *salt: Any) -> np.random.Generator:
    """An independent generator per (seed, salt) -- salts are strings."""
    text = ":".join(str(part) for part in (seed,) + salt)
    return np.random.default_rng(list(text.encode()))


def _diag_dominant(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    return a


def _close(values: Any, reference: np.ndarray, tol: Any = 1e-9) -> bool:
    values = np.asarray(values, dtype=float)
    if values.shape != reference.shape:
        return False
    scale = np.maximum(np.abs(reference), 1.0)
    return bool(np.all(np.abs(values - reference) <= tol * scale))


# -- signatures ---------------------------------------------------------------


class Signature:
    """One problem shape behind one public call.

    Subclasses build ``variants`` (operand tuples) and implement
    :meth:`solve` (direct call on a ``Solver``), :meth:`values` and
    :meth:`check` (against a NumPy reference).
    """

    kind = ""

    def __init__(self, label: str):
        self.label = label
        self.variants: List[Tuple[Any, ...]] = []

    def solve(self, solver: Any, variant: int) -> Any:
        raise NotImplementedError

    # verification ----------------------------------------------------------
    def values(self, result: Any) -> Any:
        return result.values

    def check(self, variant: int, values: Any) -> bool:
        raise NotImplementedError

    def solutions(self, result: Any) -> Sequence[Any]:
        """The ``Solution`` objects whose step counts the paper predicts."""
        return (result,)

    # sizes ---------------------------------------------------------------------
    def flops(self) -> int:
        """Useful floating-point operations of one call (computed)."""
        raise NotImplementedError

    def nbytes(self) -> int:
        """Operand and result bytes of one call (computed)."""
        raise NotImplementedError


class MatVecSig(Signature):
    kind = "matvec"

    def __init__(self, seed: int, n: int, m: int, overlapped: bool = False):
        super().__init__(f"matvec{'-ovl' if overlapped else ''} {n}x{m}")
        if overlapped:
            self.kind = "overlapped"
        self.n, self.m, self.overlapped = n, m, overlapped
        rng = _rng(seed, self.label)
        self.variants = [
            (rng.standard_normal((n, m)), rng.standard_normal(m),
             rng.standard_normal(n))
            for _ in range(VARIANTS)
        ]

    def problem(self, variant: int) -> Any:
        a, x, b = self.variants[variant]
        return MatVec(a, x, b, overlapped=True if self.overlapped else None)

    def solve(self, solver, variant):
        return solver.solve(self.problem(variant))

    def submit(self, service: Any, variant: int) -> Any:
        """The same call through a ``SolverService`` (a future)."""
        return service.submit(self.problem(variant))

    def check(self, variant, values):
        a, x, b = self.variants[variant]
        return _close(values, a @ x + b)

    def flops(self):
        return 2 * self.n * self.m

    def nbytes(self):
        return 8 * (self.n * self.m + self.m + 2 * self.n)


class BatchSig(MatVecSig):
    """``solve_batch`` of ``BATCH`` same-shape mat-vecs (one call)."""

    kind = "batch"

    def __init__(self, seed: int, n: int, m: int):
        Signature.__init__(self, f"batch{BATCH} {n}x{m}")
        self.n, self.m, self.overlapped = n, m, False
        rng = _rng(seed, self.label)
        self.variants = [
            tuple(
                (rng.standard_normal((n, m)), rng.standard_normal(m),
                 rng.standard_normal(n))
                for _ in range(BATCH)
            )
            for _ in range(VARIANTS)
        ]

    def solve(self, solver, variant):
        return solver.solve_batch(MatVec, list(self.variants[variant]))

    def values(self, result):
        return [solution.values for solution in result]

    def check(self, variant, values):
        return len(values) == BATCH and all(
            _close(y, a @ x + b)
            for y, (a, x, b) in zip(values, self.variants[variant])
        )

    def solutions(self, result):
        return result

    def flops(self):
        return BATCH * super().flops()

    def nbytes(self):
        return BATCH * super().nbytes()


class MatMulSig(Signature):
    kind = "matmul"

    def __init__(self, seed: int, n: int, p: int, m: int):
        super().__init__(f"matmul {n}x{p}x{m}")
        self.n, self.p, self.m = n, p, m
        rng = _rng(seed, self.label)
        self.variants = [
            (rng.standard_normal((n, p)), rng.standard_normal((p, m)))
            for _ in range(VARIANTS)
        ]

    def problem(self, variant):
        return MatMul(*self.variants[variant])

    def solve(self, solver, variant):
        return solver.solve(self.problem(variant))

    def check(self, variant, values):
        a, b = self.variants[variant]
        return _close(values, a @ b)

    def flops(self):
        return 2 * self.n * self.p * self.m

    def nbytes(self):
        return 8 * (self.n * self.p + self.p * self.m + self.n * self.m)


class JacobiSig(Signature):
    kind = "jacobi"

    def __init__(self, seed: int, n: int, sweeps: int):
        super().__init__(f"jacobi {n} x{sweeps}")
        self.n, self.sweeps = n, sweeps
        rng = _rng(seed, self.label)
        self.variants = [
            (_diag_dominant(rng, n), rng.standard_normal(n))
            for _ in range(VARIANTS)
        ]
        self._references: Dict[int, np.ndarray] = {}

    def problem(self, variant):
        a, b = self.variants[variant]
        # atol far below float64 resolution: the budget always runs out.
        criteria = ConvergenceCriteria(atol=1e-300, max_iter=self.sweeps)
        return Jacobi(a, b, criteria=criteria)

    def solve(self, solver, variant):
        return solver.solve(self.problem(variant))

    def reference(self, variant: int) -> np.ndarray:
        if variant not in self._references:
            a, b = self.variants[variant]
            diagonal = np.diag(a)
            off = a - np.diag(diagonal)
            x = np.zeros(self.n)
            for _ in range(self.sweeps):
                x = (b - off @ x) / diagonal
            self._references[variant] = x
        return self._references[variant]

    def check(self, variant, values):
        return _close(values, self.reference(variant))

    def solutions(self, result):
        return ()  # no closed form for iterative step counts

    def flops(self):
        return self.sweeps * 2 * self.n * self.n

    def nbytes(self):
        return 8 * (self.n * self.n + 3 * self.n)


class GraphSig(Signature):
    """A typed-problem graph run through ``GraphCompiler.run``."""

    def graph(self, variant: int) -> Any:
        raise NotImplementedError

    def solve(self, solver, variant):
        return GraphCompiler(solver).run(self.graph(variant))

    def solutions(self, result):
        return result.solutions


class ChainSig(GraphSig):
    """Two dependent mat-vec stages: ``y = M2 (M1 x)``."""

    kind = "graph"

    def __init__(self, seed: int, sizes: Tuple[int, int, int]):
        n2, n1, n0 = sizes
        super().__init__(f"chain {n2}<-{n1}<-{n0}")
        self.sizes = sizes
        rng = _rng(seed, self.label)
        self.m1 = rng.standard_normal((n1, n0))
        self.m2 = rng.standard_normal((n2, n1))
        self.variants = [(rng.standard_normal(n0),) for _ in range(VARIANTS)]

    def graph(self, variant):
        return Graph(MatVec(self.m2, MatVec(self.m1, self.variants[variant][0])))

    def check(self, variant, values):
        return _close(values, self.m2 @ (self.m1 @ self.variants[variant][0]))

    def flops(self):
        n2, n1, n0 = self.sizes
        return 2 * (n1 * n0 + n2 * n1)

    def nbytes(self):
        n2, n1, n0 = self.sizes
        return 8 * (n1 * n0 + n2 * n1 + n0 + n1 + n2)


class MLPSig(GraphSig):
    """A float64 or int8 MLP forward pass (one compiled graph)."""

    def __init__(self, seed: int, widths: Sequence[int], int8: bool):
        super().__init__(
            f"mlp{'-int8' if int8 else ''} {'-'.join(map(str, widths))}"
        )
        self.kind = "mlp_int8" if int8 else "mlp"
        self.widths, self.int8 = tuple(widths), int8
        # Weights and inputs do not depend on int8, so the float and
        # int8 twins of one size share their network.
        rng = _rng(seed, "mlp", *widths)
        self.layers = [
            (
                rng.standard_normal((widths[i + 1], widths[i]))
                / np.sqrt(widths[i]),
                rng.standard_normal(widths[i + 1]) * 0.1,
            )
            for i in range(len(widths) - 1)
        ]
        self.variants = [(rng.standard_normal(widths[0]),) for _ in range(VARIANTS)]
        mlp = MLP(self.layers)
        self.model = mlp.quantized([x for (x,) in self.variants]) if int8 else mlp
        self._references: Dict[int, np.ndarray] = {}

    def graph(self, variant):
        return self.model.graph(self.variants[variant][0])

    def reference(self, variant: int) -> np.ndarray:
        if variant not in self._references:
            x = self.variants[variant][0]
            self._references[variant] = (
                self._int8_reference(x) if self.int8 else self._float_reference(x)
            )
        return self._references[variant]

    def _float_reference(self, h: np.ndarray) -> np.ndarray:
        for index, (weights, bias) in enumerate(self.layers):
            h = weights @ h + bias
            if index < len(self.layers) - 1:
                h = np.maximum(h, 0.0)
        return h

    def _int8_reference(self, x: np.ndarray) -> np.ndarray:
        """The int8 datapath in plain NumPy integer arithmetic.

        Only the model's parameters (weight codes and scales) come from
        the program: quantize the input, int64 matmul of the codes,
        dequantize with the product of the two scales, bias, ReLU and
        requantize to the next layer's parameters.  A wrong code anywhere
        moves the logits by about one quantization step, far beyond the
        tolerance of :func:`_close`.
        """
        model = self.model

        def quantize(values: np.ndarray, params: Any) -> np.ndarray:
            codes = np.rint(values / params.scale) + params.zero_point
            return np.clip(codes, -128, 127).astype(np.int64)

        params = model.input_params
        codes = quantize(x, params)
        last = len(self.layers) - 1
        for index, (_weights, bias) in enumerate(self.layers):
            accumulator = model.weight_codes[index].astype(np.int64) @ (
                codes - params.zero_point
            )
            h = model.weight_params[index].scale * params.scale * accumulator + bias
            if index == last:
                return h
            params = model.activation_params[index]
            codes = quantize(np.maximum(h, 0.0), params)
        raise AssertionError("unreachable: an MLP has at least one layer")

    def check(self, variant, values):
        return _close(values, self.reference(variant))

    def flops(self):
        return sum(2 * a * b for a, b in zip(self.widths[1:], self.widths[:-1]))

    def nbytes(self):
        weight_bytes = 1 if self.int8 else 8
        return sum(
            weight_bytes * a * b + 8 * (a + b)
            for a, b in zip(self.widths[1:], self.widths[:-1])
        )


# -- workloads --------------------------------------------------------------------


@dataclass
class Workload:
    """A frozen mix of signatures plus the seeded order of its stream."""

    name: str
    seed: int
    mix: List[Tuple[Signature, float]]
    #: The signatures the traced ladder times (the most frequent plain
    #: mat-vec of the mix, its graph, its MLP twins and its Jacobi).
    ladder_matvec: MatVecSig
    ladder_graph: GraphSig
    ladder_mlp: Tuple[MLPSig, MLPSig]
    ladder_jacobi: JacobiSig
    #: plan-churn's stream, which replaces the deck when set.
    stream: Optional["ChurnStream"] = None

    @property
    def signatures(self) -> List[Signature]:
        return [sig for sig, _weight in self.mix]

    def deck(self, size: int = DECK) -> List[Tuple[Signature, int]]:
        """One seeded cycle of the stream: exact mix shares, shuffled.

        The loop replays the deck until its time is up, so every seed
        runs the same shares of the same work in a different order.
        """
        total = sum(weight for _sig, weight in self.mix)
        exact = [weight / total * size for _sig, weight in self.mix]
        counts = [int(share) for share in exact]
        by_remainder = sorted(
            range(len(exact)), key=lambda i: exact[i] - counts[i], reverse=True
        )
        for i in by_remainder[: size - sum(counts)]:
            counts[i] += 1
        rng = random.Random(f"{self.seed}:{self.name}:deck")
        deck = [
            (sig, rng.randrange(VARIANTS))
            for (sig, _weight), count in zip(self.mix, counts)
            for _ in range(count)
        ]
        rng.shuffle(deck)
        return deck


def _mix(kinds: Dict[str, Sequence[Signature]]) -> List[Tuple[Signature, float]]:
    """Each kind's ``KIND_MIX`` share, split equally over its signatures."""
    assert set(kinds) == set(KIND_MIX), sorted(kinds)
    return [
        (sig, KIND_MIX[kind] / len(sigs))
        for kind, sigs in kinds.items()
        for sig in sigs
    ]


def _small_parts(seed: int) -> Dict[str, Any]:
    plain = [MatVecSig(seed, n, m) for n, m in
             ((12, 12), (24, 20), (32, 32), (40, 48), (56, 56), (64, 64))]
    overlapped = [MatVecSig(seed, n, n, overlapped=True) for n in (10, 12, 16, 20)]
    matmul = [MatMulSig(seed, 8, 8, 8), MatMulSig(seed, 12, 12, 12)]
    jacobi = [JacobiSig(seed, 12, SMALL_SWEEPS), JacobiSig(seed, 24, SMALL_SWEEPS)]
    chain = ChainSig(seed, (12, 16, 20))
    mlp = MLPSig(seed, (16, 12, 8), int8=False)
    mlp_int8 = MLPSig(seed, (16, 12, 8), int8=True)
    return dict(plain=plain, overlapped=overlapped, matmul=matmul,
                jacobi=jacobi, chain=chain, mlp=mlp, mlp_int8=mlp_int8)


def solve_small(seed: int) -> Workload:
    """Small problems; the mat-vec share includes overlapped and batch."""
    p = _small_parts(seed)
    mix = _mix({
        "matvec": p["plain"] + p["overlapped"] + [BatchSig(seed, 48, 48)],
        "matmul": p["matmul"],
        "jacobi": p["jacobi"],
        "graph": [p["chain"]],
        "nn": [p["mlp"], p["mlp_int8"]],
    })
    return Workload(
        "solve-small", seed, mix, ladder_matvec=p["plain"][2],
        ladder_graph=p["chain"], ladder_mlp=(p["mlp"], p["mlp_int8"]),
        ladder_jacobi=p["jacobi"][0],
    )


def solve_large(seed: int) -> Workload:
    plain = [MatVecSig(seed, 512, 512), MatVecSig(seed, 640, 640)]
    jacobi = JacobiSig(seed, 256, LARGE_SWEEPS)
    mlp = MLPSig(seed, (512, 128, 16), int8=False)
    mlp_int8 = MLPSig(seed, (512, 128, 16), int8=True)
    mix = _mix({
        "matvec": plain,
        "matmul": [MatMulSig(seed, 32, 32, 32)],
        "jacobi": [jacobi],
        "graph": [ChainSig(seed, (128, 512, 512))],
        "nn": [mlp, mlp_int8],
    })
    return Workload(
        "solve-large", seed, mix, ladder_matvec=plain[0], ladder_graph=mlp,
        ladder_mlp=(mlp, mlp_int8), ladder_jacobi=jacobi,
    )


class ChurnStream:
    """plan-churn's seeded, skewed stream of mat-vec shapes.

    Every ``CHURN_NEW_EVERY``-th operation introduces the next shape of a
    fixed permutation of the ``CHURN_RANGE`` grid (a cold plan build and
    store writes); like the other workloads' sizes, the shape order does
    not depend on the seed, which picks operand values and repeats.  The others repeat an already introduced shape, drawn
    Zipf-skewed towards the shapes introduced first: the head stays in
    the LRU plan cache (hits) while the tail outgrows it (store loads).
    Operands are generated per operation, outside the timed region, and
    dropped once checked, so the benchmark's own memory does not grow
    with the number of operations (``peak_rss_mb``).
    """

    def __init__(self, seed: int):
        lo, hi = CHURN_RANGE
        grid = [(n, m) for n in range(lo, hi + 1) for m in range(lo, hi + 1)]
        rng = random.Random("plan-churn:shapes")
        rng.shuffle(grid)
        self.seed = seed
        self.shapes = grid
        self._rng = random.Random(f"{seed}:plan-churn:stream")
        self._introduced = 0
        self._position = 0
        self._weights: List[float] = []

    def take(self, count: int) -> List[Tuple[MatVecSig, int]]:
        """The next ``count`` operations (signature, variant)."""
        ops = []
        for _ in range(count):
            if self._position % CHURN_NEW_EVERY == 0 or not self._introduced:
                index = self._introduced
                self._introduced += 1
                self._weights.append(1.0 / (index + 1) ** CHURN_ZIPF_S)
            else:
                index = self._rng.choices(
                    range(self._introduced), self._weights
                )[0]
            self._position += 1
            shape = self.shapes[index % len(self.shapes)]
            sig = MatVecSig(self.seed, *shape)
            ops.append((sig, self._rng.randrange(VARIANTS)))
        return ops


def plan_churn(seed: int) -> Workload:
    p = _small_parts(seed)
    # The static mix is only what warm-up, the traced ladder and the
    # simulate sample use: one shape just outside the churn grid, so
    # warming it builds none of the stream's plans.
    outside = MatVecSig(seed, CHURN_RANGE[1] + 6, CHURN_RANGE[1] + 6)
    return Workload(
        "plan-churn", seed, [(outside, 1.0)], ladder_matvec=outside,
        ladder_graph=p["chain"], ladder_mlp=(p["mlp"], p["mlp_int8"]),
        ladder_jacobi=p["jacobi"][0], stream=ChurnStream(seed),
    )


WORKLOADS = {
    "solve-small": solve_small,
    "solve-large": solve_large,
    "plan-churn": plan_churn,
}


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        raise ValueError(f"unknown workload {name!r}; one of: {known}")
    return WORKLOADS[name](seed)
