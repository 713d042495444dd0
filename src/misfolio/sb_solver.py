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

Precision
---------
The state, ``J`` (``IsingProblem`` takes it only as float32), the bias step
and every buffer of the step are float32, the only dtype the solver
steps in.  Apart from the element-wise stages, a step is one product
over ``J``, and at large n that product is bound by reading ``J``, so 4
bytes per entry instead of 8 halve its traffic.  ``c0``, the overflow
bound and the energies are float64 sums over the float32 values, so no
float64 copy of ``J`` is made.  Before the first step ``J`` is read only
twice, by the ``IsingProblem`` constructor; ``c0``, the overflow bound and
the split test (below) read its ``squared_norm`` and ``coupling_magnitude``.

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
by ``(seed << 64) | r``, both uniform in [-1, 1] (drawn in float64 and
rounded to float32).  Full-range
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
``(X @ J)[:1]`` differs from ``X[:1] @ J`` in the last bits).  The
energies of all restarts are computed from their spins after the run,
in one pass over ``J``.

Skipping pinned spins
---------------------
A position that hits a wall is set to exactly +/-1 with ``p = 0``, and
most stay there: in the 576-748-spin kernels that the 2,048-node
independent-set solves of ``solve_2048`` (seeds 0-3) reduce to, on
average 72-74% of the columns of ``X`` sit at a wall in every restart.  For such a column
the coupling product repeats work whose inputs have not changed, so
``sb_solve`` may split it:

    X @ J = X[:, free] @ J[free] + pinned_x @ J

A column is pinned when it is at a wall in every restart, ``free`` are
the others, and ``pinned_x`` is ``X`` with the free columns zeroed.
``pinned_x @ J`` is kept from step to step by adding
``delta[:, changed] @ J[changed]`` over the columns whose pinned value
changed, gathering ``_BLOCK_ROWS`` rows of ``J`` at a time so the scratch
memory stays small.

The free set hardly moves from one step to the next (at n=2048, after
the first 20 steps about one column enters and one leaves per step), so
the ``J`` rows of the free columns stay resident: a buffer allocated
once per solve holds ``J[slots]``, at most n rows, no more than ``J``
itself.  Each step a column that became pinned gives up its slot, the
last rows in use move into the holes, and newly free columns take the
next slots, so only the rows that changed are gathered.
``X[:, free] @ J[free]`` is then one product over the slots.

The split is exact when every nonzero entry of ``J`` is +/- the same
power of two ``2**e``, as in the independent-set encoding (0 or
``-PENALTY/4 = -0.5``): every term of the kept sums is ``2**e`` times
an integer in [-2, 2], and every partial sum, at most about ``1.5 n``
times ``2**e`` in size, lies far below ``2**(24 + e)`` (for the MIS
``J``, multiples of 0.5 far below 2**23), so each is exact in float32
whatever the order.  The kept product therefore equals
``pinned_x @ J`` bit for bit at every step, with no drift.  Only the
free part is rounded, in slot order rather than the dense product's
column order, so a restart's last bits can differ from the dense path's,
as they can with the BLAS blocking (above); on the ``solve_2048``
kernels the spins are the same, on some larger unreduced graphs a few differ.
``sb_solve`` splits a problem with at least ``_SPLIT_MIN_SPINS`` spins
(the measured crossover) whose ``coupling_magnitude`` is such a power of
two; any other problem takes the dense product, unchanged.

Reduced graphs
--------------
``solve_mis_sb_runs`` first reduces a graph of ``_SPLIT_MIN_SPINS`` nodes
or more (:func:`~misfolio.mis_qubo.reduce`: isolated nodes are forced in,
dominated nodes dropped) and steps only the kernel that is left, one
induced graph; an empty kernel takes no step.  Each run is mapped back to
the whole graph, forced nodes +1 and dropped nodes -1, with the whole
problem's energy.  On the 2,048-node graphs of ``solve_2048`` (seeds
0-11) the kernel has 523-903 nodes, and the reduction takes 0.04-0.11 s
and 4.6 MiB at its peak (2-core Xeon, OpenBLAS 0.3.31).

Input validation
----------------
The walls hold every position in [-1, 1] and ``|(J x)_i| <= sqrt(n) |J|_F``,
so one momentum kick is at most
``dt * (alpha0 + c0 * sqrt(n) * |J|_F) + max |bias step|``.
``IsingProblem`` takes only a float32 ``J`` and rejects non-finite
values, and ``sb_solve`` rejects a problem whose momentum
over ``n_steps`` kicks, whose coupling product or whose factor
``dt * c0`` could exceed float32's largest value.
A run's state therefore stays finite, and no step checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .market_graph import _BLOCK_ROWS, MarketGraph
from .mis_qubo import (
    IsingProblem,
    MisSolution,
    _ising_offset,
    decode,
    ising_energy,
    qubo_to_ising,
    reduce,
    repair as repair_solution,
    select_best,
    to_qubo,
    verify,
)
from .timeseries import SEED_LIMIT, check_int

DEFAULT_COUPLING_KAPPA = 1.5
DT = 0.2  # time step
ALPHA0 = 1.0  # pump amplitude that alpha_k ramps up to
#: smallest n for which the pinned/free split beats the dense product (measured, see CHANGES.md),
#: and the smallest graph solve_mis_sb_runs reduces: from here a step is bound by the coupling
#: product, so a smaller problem pays; below, a step is call overhead and a non-empty kernel
#: solves no faster (and the tests of perfbench/test_perfbench.py that pin full-graph bSB use
#: 6-node graphs, whose kernels are empty)
_SPLIT_MIN_SPINS = 300


@dataclass(frozen=True)
class SbParams:
    """Solver knobs; defaults match the reference setting for MIS runs."""

    n_steps: int = 1000
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("n_steps", "restarts"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        object.__setattr__(self, "seed", check_int("seed", self.seed, lo=0, below=SEED_LIMIT))


@dataclass
class SbRunResult:
    """One restart: final spins, energy, decoded candidate set."""

    spins: np.ndarray
    energy: float
    decoded: MisSolution
    run_index: int
    #: always False, since inputs are validated before a run; the benchmark's solve check still reads it
    failed: bool = False


def _setup(problem: IsingProblem, params: SbParams):
    """Per-step constants: the float32 bias increment and the coupling scale.

    Raises ValueError if the float32 state could overflow (module docstring).
    """
    n = problem.n_spins
    # J has a zero diagonal, so the sum of all squares is the off-diagonal one
    rms = math.sqrt(problem.squared_norm / (n * (n - 1))) if n >= 2 else 0.0
    c0 = DEFAULT_COUPLING_KAPPA / (rms * math.sqrt(n)) if rms else 1.0
    bias_step = (DT * c0) * problem.h
    mm_bound = math.sqrt(n * problem.squared_norm)
    kick = DT * (ALPHA0 + c0 * mm_bound) + float(np.max(np.abs(bias_step), initial=0.0))
    # |p| <= 1 + n_steps * kick, and x moves by dt * p before the walls; the
    # float32 product J x and the factor dt * c0 must fit as well
    bound = max(max(1.0, DT) * (1.0 + params.n_steps * kick), mm_bound, DT * c0)
    if not bound <= float(np.finfo(np.float32).max):
        raise ValueError(
            f"bSB state could overflow float32: momentum kick bound {kick:g} over {params.n_steps} steps, "
            f"|J x| bound {mm_bound:g}, dt * c0 = {DT * c0:g}"
        )
    return bias_step.astype(np.float32), c0


class _PinnedSplit:
    """Coupling stage ``mm = X @ J`` that skips the columns pinned at a wall.

    A column is pinned when it sits at a wall (``|x| == 1``) in every
    restart.  ``pinned_x`` is ``X`` with every other column zeroed, and
    ``pinned_mm`` is ``pinned_x @ J``, kept by adding the change of
    ``pinned_x`` times the J rows of the columns that changed.  Exact only
    under :func:`_split_pays`'s condition on J (module docstring).

    The J rows of the free columns stay in ``rows`` from step to step:
    ``rows[:k]`` holds ``J[slots[:k]]``, at most n rows, no more than J.
    """

    def __init__(self, j: np.ndarray, shape):
        self.j = j
        self.pinned_x = np.zeros(shape, dtype=np.float32)
        self.pinned_mm = np.zeros(shape, dtype=np.float32)
        self.rows = np.empty(j.shape, dtype=np.float32)
        self.slots = np.empty(len(j), dtype=np.intp)
        self.k = 0

    def __call__(self, x: np.ndarray, mm: np.ndarray) -> None:
        pinned = (np.abs(x) == 1.0).all(axis=0)
        pinned_x = np.where(pinned, x, 0.0)
        delta = pinned_x - self.pinned_x
        changed = delta.any(axis=0).nonzero()[0]
        for start in range(0, len(changed), _BLOCK_ROWS):
            block = changed[start : start + _BLOCK_ROWS]
            self.pinned_mm += delta[:, block] @ self.j[block]
        self.pinned_x = pinned_x
        self._update_slots(pinned)
        np.matmul(x[:, self.slots[: self.k]], self.rows[: self.k], out=mm)
        mm += self.pinned_mm

    def _update_slots(self, pinned: np.ndarray) -> None:
        """Release the slots of newly pinned columns and give every newly free column a slot."""
        gone = pinned[self.slots[: self.k]]
        k = self.k - np.count_nonzero(gone)
        # the last used rows that stay move into the holes below k, a block
        # at a time, so the gathered copy stays _BLOCK_ROWS rows; holes and
        # movers lie on either side of k, so no block overwrites another's source
        holes = gone[:k].nonzero()[0]
        movers = k + (~gone[k:]).nonzero()[0]
        for start in range(0, len(holes), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            self.rows[holes[block]] = self.rows[movers[block]]
        self.slots[holes] = self.slots[movers]
        unslotted = ~pinned
        unslotted[self.slots[:k]] = False
        arrivals = unslotted.nonzero()[0]
        self.k = k + len(arrivals)
        # mode="raise" would gather into a temporary as large as out and copy
        # it over; the indices come from nonzero, so they are in range
        np.take(self.j, arrivals, axis=0, out=self.rows[k : self.k], mode="clip")
        self.slots[k : self.k] = arrivals


def _split_pays(problem: IsingProblem) -> bool:
    """True when the split wins and is exact: every nonzero coupling is +/- one power of two."""
    m = problem.coupling_magnitude  # frexp is (0.5, e) exactly for 2**(e-1)
    return problem.n_spins >= _SPLIT_MIN_SPINS and m is not None and math.frexp(m)[0] == 0.5


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
    return (seed << 64) | run_index


def digitize(x: np.ndarray) -> np.ndarray:
    """Spins from positions; the sign of exactly 0 resolves to +1."""
    return np.where(x >= 0.0, 1, -1).astype(np.int8)


def sb_solve(problem: IsingProblem, params: SbParams) -> list[SbRunResult]:
    """Run ``params.restarts`` restarts as one batch; results in run order."""
    bias_step, c0 = _setup(problem, params)
    rngs = [np.random.Generator(np.random.Philox(key=run_seed_key(params.seed, r))) for r in range(params.restarts)]
    # drawn in float64 and rounded, so each restart keeps its Philox stream
    x = np.array([rng.uniform(-1.0, 1.0, problem.n_spins) for rng in rngs], dtype=np.float32)
    p = np.array([rng.uniform(-1.0, 1.0, problem.n_spins) for rng in rngs], dtype=np.float32)
    mm, scratch = np.empty_like(x), np.empty_like(x)
    split = _PinnedSplit(problem.j, x.shape) if _split_pays(problem) else None
    for k in range(params.n_steps):
        _advance(x, p, mm, scratch, k, problem.j, bias_step, c0, params, split)

    spins = digitize(x)
    energies = ising_energy(problem, spins)
    return [
        SbRunResult(spins=s, energy=float(e), decoded=decode(s), run_index=r)
        for r, (s, e) in enumerate(zip(spins, energies))
    ]


def _solve_reduced(graph: MarketGraph, params: SbParams) -> list[SbRunResult]:
    """``sb_solve`` on the kernel of :func:`~misfolio.mis_qubo.reduce`, each run
    mapped back to ``graph``: forced nodes +1, dropped nodes -1, and the
    energy that of the full problem.

    No edge joins a forced node to the kernel, so the full QUBO cost is the
    kernel's minus one per forced node; every term is a multiple of 1/4,
    so the energy is exact and equals ``ising_energy`` on the full problem.
    """
    forced, kernel = reduce(graph)
    spins = np.full((params.restarts, graph.n_nodes), -1, dtype=np.int8)
    spins[:, forced] = 1
    costs = np.zeros(params.restarts)
    if len(kernel):
        sub = graph.adjacency_matrix[np.ix_(kernel, kernel)]
        tickers = tuple(graph.tickers[i] for i in kernel)
        problem = qubo_to_ising(to_qubo(MarketGraph(tickers=tickers, theta=graph.theta, adjacency_matrix=sub)))
        runs = sb_solve(problem, params)
        spins[:, kernel] = [run.spins for run in runs]
        costs += [run.energy + problem.offset for run in runs]
    offset = _ising_offset(graph.n_nodes, graph.n_edges)
    return [
        SbRunResult(spins=s, energy=cost - len(forced) - offset, decoded=decode(s), run_index=r)
        for r, (s, cost) in enumerate(zip(spins, costs))
    ]


def solve_mis_sb_runs(
    graph: MarketGraph, params: SbParams, repair: bool = False
) -> tuple[MisSolution, list[SbRunResult]]:
    """Full pipeline: encode, solve, verify each run, keep the best.

    A graph of ``_SPLIT_MIN_SPINS`` nodes or more is reduced first, and bSB
    runs on its kernel only (:func:`_solve_reduced`); each run's spins and
    energy are still those of the whole graph.  Infeasible runs are
    discarded unless ``repair`` is set, in which case they are patched
    (drop a violating endpoint, extend greedily) first.
    """
    if graph.n_nodes >= _SPLIT_MIN_SPINS:
        runs = _solve_reduced(graph, params)
    else:
        runs = sb_solve(qubo_to_ising(to_qubo(graph)), params)
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
