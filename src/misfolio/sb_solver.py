"""Ballistic simulated-bifurcation (bSB) solver for Ising problems.

Each of ``n`` oscillators carries a position/momentum pair ``(x_i, p_i)``.
One time step, in order:

1. coupling stage: ``mm_i = sum_j J_ij x_j`` (one matrix-vector
   product per run; all runs share one matrix-matrix product, see below)
2. momentum: ``p_i += dt * (-(alpha0 - alpha_k) x_i + c0 * (h_i + mm_i))``
3. position: ``x_i += dt * p_i``
4. perfectly inelastic walls at +/-1: where ``|x_i| > 1``, set
   ``x_i <- sgn(x_i)`` and ``p_i <- 0``

``alpha_k`` ramps linearly from 0 at the first step to ``alpha0`` at the
last.  After ``n_steps`` steps the spins are ``sgn(x_i)`` with
``sgn(0) = +1``.  ``dt = 0.2`` and ``alpha0 = 1.0`` are fixed and ``c0``
follows from ``J`` (below); ``SbParams`` sets n_steps, restarts and seed.

Coupling scale
--------------
The scale ``c0`` is not universal; it is always derived from the problem:

    c0 = 1.5 / (rms * sqrt(n)),   rms = root-mean-square of the
                                  off-diagonal entries of J

(falling back to 1.0 when J is empty), chosen empirically for the
independent-set workloads this package targets.  The bias shares ``c0``
with the couplings, so the digitized landscape keeps the problem's
coupling-to-bias ratio.

Determinism and restarts
------------------------
Run ``r`` draws its initial positions and momenta from Philox4x64 keyed
by ``(seed << 64) | r``, both uniform in [-1, 1].  Full-range
initialization matters: with near-zero starts, the deterministic drift
from the bias swamps the initial differences and every restart funnels
into the same attractor, wasting the multi-start budget (measured: exact
hit rates on 20-node test graphs rise from ~93% to ~99% with full-range
starts).

All restarts advance together: run ``r`` is row ``r`` of an ``(R, n)``
state, and the coupling stage of every row is one matrix-matrix product
``X @ J`` per step (``J`` is symmetric, so row ``r`` of ``X @ J`` is
``J @ x_r``).  The other stages are element-wise on the whole array.  The
step is a fixed sequence of operations, so the same problem, params and
seed give bit-identical results.  A restart's last bits can depend on
``restarts``, though: the BLAS blocks the product by the row count, and
summation order follows the blocking (with OpenBLAS 0.3.31 at n=2048,
``(X @ J)[:1]`` differs from ``X[:1] @ J`` in the last bits).

Skipping pinned spins
---------------------
A position that hits a wall is set to exactly +/-1 with ``p = 0``, and
most stay there: in a 2,048-node independent-set solve, on average 86% of
the columns of ``X`` sit at a wall in every restart.  For such a column
the coupling product repeats work whose inputs have not changed, so
``sb_solve`` may split it:

    X @ J = X[:, free] @ J[free] + pinned_x @ J

A column is pinned when it is at a wall in every restart, ``free`` are
the others, and ``pinned_x`` is ``X`` with the free columns zeroed.
``pinned_x @ J`` is kept from step to step by adding
``delta[:, changed] @ J[changed]`` over the columns whose pinned value
changed, gathering ``_GATHER_ROWS`` rows of ``J`` at a time so the scratch
memory stays small.

The split is exact when every nonzero entry of ``J`` is +/- the same
power of two ``2**e``, as in the independent-set encoding (0 or
``-PENALTY/4 = -0.5``): every term of the kept sums is a small multiple
of ``2**e`` and every partial sum lies far below ``2**(53 + e)``, so each
is exact in float64 whatever the order.  The kept product therefore
equals ``pinned_x @ J`` bit for bit at every step, with no drift.  Only
the free part is rounded, in another order than the dense product's, so
a restart's last bits can differ from the dense path's, as they can with
the BLAS blocking (above); on the graphs tested the spins are the same.
``sb_solve`` splits a problem with at least ``_SPLIT_MIN_SPINS`` spins
(the measured crossover) and such a ``J``; any other problem takes the
dense product, unchanged.

Input validation
----------------
The walls hold every position in [-1, 1] and ``|(J x)_i| <= sqrt(n) |J|_F``,
so one momentum kick is at most
``dt * (alpha0 + c0 * sqrt(n) * |J|_F) + max |bias step|``.
``IsingProblem`` rejects non-finite values, and ``sb_solve`` rejects a
problem whose kicks over ``n_steps`` could overflow.
A run's state therefore stays finite, and no step checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .market_graph import MarketGraph
from .mis_qubo import (
    IsingProblem,
    MisSolution,
    decode,
    ising_energy,
    qubo_to_ising,
    repair as repair_solution,
    select_best,
    to_qubo,
    verify,
)

_MASK64 = (1 << 64) - 1
DEFAULT_COUPLING_KAPPA = 1.5
DT = 0.2  # time step
ALPHA0 = 1.0  # pump amplitude that alpha_k ramps up to
#: smallest n for which the pinned/free split beats the dense product (measured, see CHANGES.md)
_SPLIT_MIN_SPINS = 300
#: J rows gathered at once by the split; bounds its scratch memory to this many rows
_GATHER_ROWS = 64


@dataclass(frozen=True)
class SbParams:
    """Solver knobs; defaults match the reference setting for MIS runs."""

    n_steps: int = 1000
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class SbRunResult:
    """One restart: final spins, energy, decoded candidate set."""

    spins: np.ndarray
    energy: float
    decoded: MisSolution
    run_index: int
    #: always False, since inputs are validated before a run; the benchmark's solve check still reads it
    failed: bool = False


def default_coupling_scale(problem: IsingProblem) -> float:
    n = problem.n_spins
    if n < 2:
        return 1.0
    # J has a zero diagonal, so the sum of all squares is the off-diagonal one
    rms = math.sqrt(float(np.vdot(problem.j, problem.j)) / (n * (n - 1)))
    if rms == 0.0:
        return 1.0
    return DEFAULT_COUPLING_KAPPA / (rms * math.sqrt(n))


def _setup(problem: IsingProblem, params: SbParams):
    """Per-step constants: the bias increment and the coupling scale.

    Raises ValueError if the momentum could overflow (module docstring).
    """
    c0 = default_coupling_scale(problem)
    bias_step = (DT * c0) * problem.h
    mm_bound = math.sqrt(problem.n_spins * float(np.vdot(problem.j, problem.j)))
    kick = DT * (ALPHA0 + c0 * mm_bound) + float(np.max(np.abs(bias_step), initial=0.0))
    # |p| <= 1 + n_steps * kick, and x moves by dt * p before the walls
    if not math.isfinite(max(1.0, DT) * (1.0 + params.n_steps * kick)):
        raise ValueError(f"bSB state could overflow: momentum kick bound {kick:g} over {params.n_steps} steps")
    return bias_step, c0


class _PinnedSplit:
    """Coupling stage ``mm = X @ J`` that skips the columns pinned at a wall.

    A column is pinned when it sits at a wall (``|x| == 1``) in every
    restart.  ``pinned_x`` is ``X`` with every other column zeroed, and
    ``pinned_mm`` is ``pinned_x @ J``, kept by adding the change of
    ``pinned_x`` times the J rows of the columns that changed.  Exact only
    under :func:`_split_pays`'s condition on J (module docstring).
    """

    def __init__(self, j: np.ndarray, shape):
        self.j = j
        self.pinned_x = np.zeros(shape)
        self.pinned_mm = np.zeros(shape)

    def __call__(self, x: np.ndarray, mm: np.ndarray) -> None:
        pinned = (np.abs(x) == 1.0).all(axis=0)
        pinned_x = np.where(pinned, x, 0.0)
        delta = pinned_x - self.pinned_x
        self._accumulate(delta, delta.any(axis=0).nonzero()[0], self.pinned_mm)
        self.pinned_x = pinned_x
        np.copyto(mm, self.pinned_mm)
        self._accumulate(x, (~pinned).nonzero()[0], mm)

    def _accumulate(self, x: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
        """``out += x[:, rows] @ J[rows]``, gathering the J rows in fixed-size blocks."""
        for start in range(0, len(rows), _GATHER_ROWS):
            block = rows[start : start + _GATHER_ROWS]
            out += x[:, block] @ self.j[block]


def _split_pays(j: np.ndarray) -> bool:
    """True when J is large enough for the split to win and it is exact on J:
    every nonzero entry is +/- one power of two."""
    n = len(j)
    if n < _SPLIT_MIN_SPINS:
        return False
    top = max(float(np.max(j)), -float(np.min(j)))
    # frexp is (0.5, e) exactly for 2**(e-1), and (0.0, 0) for a J of zeros
    if math.frexp(top)[0] != 0.5:
        return False
    # in row blocks, so the bool temporaries stay small beside J
    blocks = (j[start : start + _GATHER_ROWS] for start in range(0, n, _GATHER_ROWS))
    return all(np.count_nonzero(b) == np.count_nonzero(b == top) + np.count_nonzero(b == -top) for b in blocks)


def _advance(x, p, mm, scratch, k, j, bias_step, c0, params, split=None) -> None:
    """One in-place bSB step on the ``(R, n)`` state (x, p).

    ``split`` (a :class:`_PinnedSplit` over ``j``) replaces the dense
    coupling product; every other stage is the same.
    """
    if params.n_steps > 1:
        alpha_k = ALPHA0 * (k / (params.n_steps - 1))
    else:
        alpha_k = 0.0
    if split is None:
        np.matmul(x, j, out=mm)
    else:
        split(x, mm)
    np.multiply(x, DT * (alpha_k - ALPHA0), out=scratch)
    p += scratch
    p += bias_step
    np.multiply(mm, DT * c0, out=scratch)
    p += scratch
    np.multiply(p, DT, out=scratch)
    x += scratch
    # the clip writes exactly +/-1, which the split reads as "pinned"
    np.copyto(p, 0.0, where=np.abs(x) > 1.0)
    np.clip(x, -1.0, 1.0, out=x)


def run_seed_key(seed: int, run_index: int) -> int:
    """128-bit Philox key for restart ``run_index`` of base ``seed``."""
    return ((seed & _MASK64) << 64) | (run_index & _MASK64)


def digitize(x: np.ndarray) -> np.ndarray:
    """Spins from positions; the sign of exactly 0 resolves to +1."""
    return np.where(x >= 0.0, 1, -1).astype(np.int8)


def sb_solve(problem: IsingProblem, params: SbParams) -> list[SbRunResult]:
    """Run ``params.restarts`` restarts as one batch; results in run order."""
    bias_step, c0 = _setup(problem, params)
    rngs = [np.random.Generator(np.random.Philox(key=run_seed_key(params.seed, r))) for r in range(params.restarts)]
    x = np.stack([rng.uniform(-1.0, 1.0, problem.n_spins) for rng in rngs])
    p = np.stack([rng.uniform(-1.0, 1.0, problem.n_spins) for rng in rngs])
    mm, scratch = np.empty_like(x), np.empty_like(x)
    split = _PinnedSplit(problem.j, x.shape) if _split_pays(problem.j) else None
    for k in range(params.n_steps):
        _advance(x, p, mm, scratch, k, problem.j, bias_step, c0, params, split)

    return [
        SbRunResult(spins=s, energy=ising_energy(problem, s), decoded=decode(s), run_index=r)
        for r, s in enumerate(map(digitize, x))
    ]


def solve_mis_sb_runs(
    graph: MarketGraph, params: SbParams, repair: bool = False
) -> tuple[MisSolution, list[SbRunResult]]:
    """Full pipeline: encode, solve, verify each run, keep the best.

    Infeasible runs are discarded unless ``repair`` is set, in which case
    they are patched (drop a violating endpoint, extend greedily) first.
    """
    problem = qubo_to_ising(to_qubo(graph))
    runs = sb_solve(problem, params)
    for run in runs:
        ok, _ = verify(graph, run.decoded.selected)
        sol = replace(run.decoded, feasible=ok)
        if repair and not ok:
            sol = repair_solution(graph, sol)
        run.decoded = sol
    return select_best(run.decoded for run in runs), runs


def solve_mis_sb(graph: MarketGraph, params: SbParams) -> MisSolution:
    """Largest independent set over the restarts, each repaired if infeasible.

    Always feasible; :func:`solve_mis_sb_runs` gives the unrepaired runs.
    """
    best, _ = solve_mis_sb_runs(graph, params, repair=True)
    return best
