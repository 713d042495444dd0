import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_bit_configs, er_graph, sb_stepper
from misfolio import sb_solver
from misfolio.market_graph import build_graph, graph_from_edges
from misfolio.mis_qubo import NO_FEASIBLE, IsingProblem, ising_energy, qubo_to_ising, solve_exact, to_qubo, verify
from misfolio.sb_solver import (
    ALPHA0,
    DT,
    SbParams,
    default_coupling_scale,
    digitize,
    run_seed_key,
    sb_solve,
    solve_mis_sb,
    solve_mis_sb_runs,
)
from misfolio.timeseries import correlation, log_returns, synth_panel


def ising(j, h, offset=0.0):
    j = np.asarray(j, dtype=float)
    h = np.asarray(h, dtype=float)
    return IsingProblem(j=j, h=h, offset=offset)


def random_problem(n, seed):
    rng = np.random.default_rng(seed)
    j = rng.uniform(-1, 1, (n, n))
    j = (j + j.T) / 2
    np.fill_diagonal(j, 0.0)
    return ising(j, rng.uniform(-1, 1, n))


def brute_force_min_energy(problem):
    spins = 2 * all_bit_configs(problem.n_spins) - 1
    e = -0.5 * np.einsum("bi,ij,bj->b", spins, problem.j, spins) - spins @ problem.h
    return float(e.min())


# --- parameters ---------------------------------------------------------------

def test_params_defaults():
    p = SbParams()
    assert [f.name for f in dataclasses.fields(p)] == ["n_steps", "restarts", "seed"]
    assert (p.n_steps, p.restarts, p.seed) == (1000, 10, 0)
    assert (DT, ALPHA0) == (0.2, 1.0)


# the ids are the case numbers from when the table also held dt, alpha0 and coupling_scale cases
@pytest.mark.parametrize(
    "kwargs", [pytest.param({"n_steps": 0}, id="kwargs0"), pytest.param({"restarts": 0}, id="kwargs5")]
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        SbParams(**kwargs)


def masked_coupling_scale(problem):
    """The prescription as stated: rms over the off-diagonal entries of J."""
    n = problem.n_spins
    off = problem.j[~np.eye(n, dtype=bool)]
    rms = math.sqrt(float(np.mean(off * off)))
    return 1.5 / (rms * math.sqrt(n))


def test_default_coupling_scale_prescription():
    g = er_graph(10, 0.4, seed=0)
    problem = qubo_to_ising(to_qubo(g))
    assert default_coupling_scale(problem) == pytest.approx(masked_coupling_scale(problem))
    # MIS couplings square to 0.25 or 0, so every sum is exact
    problem = qubo_to_ising(to_qubo(er_graph(300, 0.3, seed=1)))
    assert default_coupling_scale(problem) == masked_coupling_scale(problem)
    problem = random_problem(300, seed=2)
    assert default_coupling_scale(problem) == pytest.approx(masked_coupling_scale(problem), rel=1e-15)
    # degenerate case: no couplings at all
    assert default_coupling_scale(ising(np.zeros((3, 3)), np.ones(3))) == 1.0


# --- single-step dynamics (the step kernel on one-row states) -------------------

def test_zero_problem_zero_state_is_fixed_point():
    problem = ising(np.zeros((4, 4)), np.zeros(4))
    x, p = np.zeros((1, 4)), np.zeros((1, 4))
    step = sb_stepper(problem, SbParams(n_steps=50), x, p)
    for k in range(50):
        step(k)
    assert np.array_equal(x, np.zeros((1, 4)))
    assert np.array_equal(p, np.zeros((1, 4)))


def test_single_spin_reaches_positive_wall_and_sticks():
    # scalar reference of the same dynamics (the bias coefficient is c0,
    # which is 1 for a problem with no couplings)
    n_steps, dt, alpha0 = 200, 0.2, 1.0
    h = 1.0
    x_ref, p_ref = 0.01, 0.0
    ref_hit = None
    for k in range(n_steps):
        a_k = alpha0 * k / (n_steps - 1)
        p_ref += dt * (-(alpha0 - a_k) * x_ref + h)
        x_ref += dt * p_ref
        if abs(x_ref) > 1.0:
            if ref_hit is None:
                ref_hit = k
            x_ref = math.copysign(1.0, x_ref)
            p_ref = 0.0
    assert ref_hit is not None and x_ref == 1.0

    problem = ising(np.zeros((1, 1)), np.array([h]))
    x, p = np.array([[0.01]]), np.array([[0.0]])
    step = sb_stepper(problem, SbParams(n_steps=n_steps), x, p)
    hit = None
    for k in range(n_steps):
        step(k)
        if hit is None and x[0, 0] == 1.0:
            hit = k
            assert p[0, 0] == 0.0  # momentum absorbed by the wall
    assert hit == ref_hit
    assert x[0, 0] == 1.0  # pinned at the wall at the end


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_wall_invariant_random_states(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    problem = random_problem(n, seed)
    x, p = rng.uniform(-1, 1, (1, n)), rng.uniform(-2, 2, (1, n))
    sb_stepper(problem, SbParams(n_steps=10), x, p)(int(rng.integers(0, 10)))
    assert np.all(np.abs(x) <= 1.0)


# --- full solves -----------------------------------------------------------------

def test_single_spin_positive_bias_always_up():
    problem = ising(np.zeros((1, 1)), np.array([1.0]))
    for run in sb_solve(problem, SbParams(restarts=10, seed=5)):
        assert run.spins[0] == 1
        assert run.energy == -1.0


def test_two_spin_ferromagnet_reaches_ground_state():
    problem = ising([[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0])
    runs = sb_solve(problem, SbParams(restarts=10, seed=2))
    exact = brute_force_min_energy(problem)
    for run in runs:
        assert run.spins[0] == run.spins[1]
        assert run.energy == exact


def test_best_of_restarts_matches_brute_force_on_most_instances():
    hits = 0
    for inst in range(10):
        problem = random_problem(10, seed=100 + inst)
        runs = sb_solve(problem, SbParams(restarts=10, seed=inst))
        best = min(r.energy for r in runs)
        # tolerance covers the different summation orders of the two paths
        hits += best <= brute_force_min_energy(problem) + 1e-9
    assert hits >= 9


def test_solve_is_deterministic():
    g = er_graph(30, 0.3, seed=8)
    problem = qubo_to_ising(to_qubo(g))
    params = SbParams(restarts=6, seed=77)
    a = sb_solve(problem, params)
    b = sb_solve(problem, params)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.spins, rb.spins)
        assert ra.energy == rb.energy


def test_sb_solve_equals_composed_sb_steps():
    g = er_graph(12, 0.4, seed=4)
    problem = qubo_to_ising(to_qubo(g))
    params = SbParams(n_steps=300, restarts=2, seed=11)
    runs = sb_solve(problem, params)
    for r in range(2):
        x, p = (v[np.newaxis] for v in initial_state(11, r, 12))
        step = sb_stepper(problem, params, x, p)
        for k in range(300):
            step(k)
        assert np.array_equal(digitize(x[0]), runs[r].spins)


def initial_state(seed, r, n):
    rng = np.random.Generator(np.random.Philox(key=run_seed_key(seed, r)))
    return rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)


def reference_run(problem, params, r):
    """One restart on 1-D arrays: the module docstring's four steps with ``J @ x``.

    Scalar factors are grouped as the solver groups them, so the only
    difference left is the matrix product (``J @ x`` here, one row of
    ``X @ J`` in the solver).
    """
    x, p = initial_state(params.seed, r, problem.n_spins)
    c0 = default_coupling_scale(problem)
    bias_step = (DT * c0) * problem.h
    for k in range(params.n_steps):
        alpha_k = ALPHA0 * (k / (params.n_steps - 1))
        mm = problem.j @ x
        p += (DT * (alpha_k - ALPHA0)) * x
        p += bias_step
        p += (DT * c0) * mm
        x += DT * p
        over = np.abs(x) > 1.0
        x[over] = np.sign(x[over])
        p[over] = 0.0
    return x


def synth_market_graph():
    panel = synth_panel(120, 300, 3, seed=21)
    returns = log_returns(panel)
    return build_graph(correlation(returns, returns.n_rows), 0.25)


@pytest.mark.parametrize(
    "graph",
    [er_graph(12, 0.4, seed=4), er_graph(40, 0.3, seed=5), er_graph(200, 0.2, seed=6), synth_market_graph()],
    ids=["er12", "er40", "er200", "market120"],
)
def test_batched_restarts_match_single_run_reference(graph):
    problem = qubo_to_ising(to_qubo(graph))
    params = SbParams(restarts=10, seed=3)
    runs = sb_solve(problem, params)
    refs = [reference_run(problem, params, r) for r in range(10)]
    for run, ref in zip(runs, refs):
        assert np.array_equal(run.spins, digitize(ref))

    # final positions of the (R, n) kernel, stepped from the same seeds
    x, p = map(np.stack, zip(*(initial_state(3, r, problem.n_spins) for r in range(10))))
    step = sb_stepper(problem, params, x, p)
    for k in range(params.n_steps):
        step(k)
    assert np.max(np.abs(x - np.stack(refs))) <= 1e-9


# --- the pinned/free split of the coupling stage ------------------------------------

def synth_market_graph_400():
    panel = synth_panel(400, 300, 3, seed=22)
    returns = log_returns(panel)
    return build_graph(correlation(returns, returns.n_rows), 0.25)


@pytest.mark.parametrize(
    "graph",
    [er_graph(200, 0.2, seed=6), synth_market_graph(), synth_market_graph_400()],
    ids=["er200", "market120", "market400"],
)
def test_pinned_split_matches_the_dense_product(graph):
    problem = qubo_to_ising(to_qubo(graph))
    params = SbParams(restarts=10, seed=3)
    start = [np.stack(v) for v in zip(*(initial_state(3, r, problem.n_spins) for r in range(10)))]
    x_dense, p_dense = (v.copy() for v in start)
    x_split, p_split = (v.copy() for v in start)
    dense = sb_stepper(problem, params, x_dense, p_dense)
    split = sb_stepper(problem, params, x_split, p_split, split=True)
    pinned_columns = []
    for k in range(params.n_steps):
        dense(k)
        split(k)
        # every partial sum is a multiple of 0.5, so the kept product never drifts
        assert np.array_equal(split.split.pinned_mm, split.split.pinned_x @ problem.j)
        pinned_columns.append(np.count_nonzero(split.split.pinned_x.any(axis=0)))
    assert max(pinned_columns) > problem.n_spins // 2  # the split skipped most of the product
    assert np.array_equal(digitize(x_split), digitize(x_dense))
    refs = np.stack([reference_run(problem, params, r) for r in range(10)])
    assert np.max(np.abs(x_split - refs)) <= 1e-9


def test_sb_solve_splits_mis_problems_from_the_crossover(monkeypatch):
    graph = synth_market_graph_400()
    problem = qubo_to_ising(to_qubo(graph))
    assert sb_solver._split_pays(problem.j)
    assert not sb_solver._split_pays(problem.j[: sb_solver._SPLIT_MIN_SPINS - 1, : sb_solver._SPLIT_MIN_SPINS - 1])
    params = SbParams(n_steps=200, restarts=4, seed=9)
    x, p = map(np.stack, zip(*(initial_state(9, r, problem.n_spins) for r in range(4))))
    step = sb_stepper(problem, params, x, p, split=True)
    for k in range(params.n_steps):
        step(k)
    made = []

    class RecordingSplit(sb_solver._PinnedSplit):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(sb_solver, "_PinnedSplit", RecordingSplit)
    runs = sb_solve(problem, params)
    assert len(made) == 1
    assert np.array_equal(np.stack([run.spins for run in runs]), digitize(x))


@pytest.mark.parametrize(
    "values, exact",
    [
        ([0.0, -0.5], True),
        ([0.0, 0.5, -0.5], True),
        ([0.0, 4.0], True),
        ([0.0, -0.5, -1.0], False),
        ([0.0, 0.75], False),
        ([0.0], False),
    ],
    ids=["mis", "both-signs", "four", "two-powers", "not-a-power", "zeros"],
)
def test_split_needs_one_power_of_two(values, exact):
    n = sb_solver._SPLIT_MIN_SPINS
    rng = np.random.default_rng(4)
    j = np.triu(rng.choice(values, (n, n)), 1)
    assert sb_solver._split_pays(j + j.T) is exact


def test_float_couplings_above_the_crossover_take_the_dense_path(monkeypatch):
    problem = random_problem(sb_solver._SPLIT_MIN_SPINS + 10, seed=7)
    params = SbParams(n_steps=100, restarts=3, seed=1)
    x, p = map(np.stack, zip(*(initial_state(1, r, problem.n_spins) for r in range(3))))
    step = sb_stepper(problem, params, x, p)
    for k in range(params.n_steps):
        step(k)

    def no_split(*args):
        raise AssertionError("the split ran on float couplings")

    monkeypatch.setattr(sb_solver, "_PinnedSplit", no_split)
    runs = sb_solve(problem, params)
    assert np.array_equal(np.stack([run.spins for run in runs]), digitize(x))


# --- input validation -------------------------------------------------------------

@pytest.mark.parametrize(
    "j, h, offset",
    [
        (np.zeros((2, 2)), [np.inf, 0.0], 0.0),
        (np.zeros((2, 2)), [np.nan, 0.0], 0.0),
        ([[0.0, np.inf], [np.inf, 0.0]], [0.0, 0.0], 0.0),
        ([[0.0, np.nan], [np.nan, 0.0]], [0.0, 0.0], 0.0),
        (np.zeros((2, 2)), [0.0, 0.0], np.inf),
    ],
    ids=["h-inf", "h-nan", "j-inf", "j-nan", "offset-inf"],
)
def test_nonfinite_problem_is_rejected(j, h, offset):
    with pytest.raises(ValueError, match="finite"):
        ising(j, h, offset)


@pytest.mark.parametrize(
    "j, h",
    [(np.zeros((2, 2)), np.zeros((2, 1))), (np.zeros((3, 3)), np.zeros(2)), (np.zeros((2, 3)), np.zeros(2)), (0.0, 0.0)],
    ids=["h-matrix", "j-too-large", "j-not-square", "scalars"],
)
def test_misshapen_problem_is_rejected(j, h):
    with pytest.raises(ValueError, match="h must be a vector"):
        ising(j, h)


def test_coupling_norm_overflow_is_rejected():
    # every entry is finite, but sum(J**2) is not: the problem is refused when built
    with pytest.raises(ValueError, match="overflow"):
        ising([[0.0, 1e300], [1e300, 0.0]], [0.0, 0.0])


def test_overflowing_kick_is_rejected_before_any_step(monkeypatch):
    # a finite bias whose kick dt * c0 * h (c0 = 1 without couplings) overflows over the run
    problem = ising(np.zeros((2, 2)), [1e306, 0.0])

    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(sb_solver, "_advance", no_step)
    with pytest.raises(ValueError, match="overflow"):
        sb_solve(problem, SbParams())


# --- MIS pipeline ------------------------------------------------------------------

def test_mis_empty_graph_selects_everything():
    g = graph_from_edges(6, [])
    sol = solve_mis_sb(g, SbParams(seed=1))
    assert sol.selected == tuple(range(6))
    assert sol.feasible is True and sol.source == "sb"


def test_mis_five_cycle():
    g = graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    sol = solve_mis_sb(g, SbParams(seed=4))
    assert sol.feasible is True
    assert sol.size == 2
    assert verify(g, sol.selected)[0]


def test_mis_six_node_graph_matches_exact_oracle():
    g = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (1, 4)])
    sol = solve_mis_sb(g, SbParams(seed=12))
    assert sol.feasible is True
    assert sol.size == solve_exact(g).size
    assert verify(g, sol.selected)[0]


def test_mis_runs_expose_energies_and_verified_flags():
    g = er_graph(15, 0.3, seed=10)
    best, runs = solve_mis_sb_runs(g, SbParams(restarts=5, seed=6))
    assert len(runs) == 5
    problem = qubo_to_ising(to_qubo(g))
    feasible_energies = []
    for run in runs:
        assert run.decoded.feasible in (True, False)
        assert run.energy == ising_energy(problem, run.spins)
        if run.decoded.feasible:
            feasible_energies.append(run.energy)
            # for feasible sets, energy + offset = -reward * size
            assert run.energy + problem.offset == pytest.approx(-run.decoded.size, abs=1e-12)
    assert feasible_energies
    assert best.feasible is True
    assert min(feasible_energies) == pytest.approx(-best.size - problem.offset, abs=1e-12)


def test_mis_repair_flag_promotes_infeasible_runs():
    g = er_graph(15, 0.5, seed=13)
    best_plain, runs_plain = solve_mis_sb_runs(g, SbParams(restarts=8, seed=2), repair=False)
    best_rep, runs_rep = solve_mis_sb_runs(g, SbParams(restarts=8, seed=2), repair=True)
    assert all(r.decoded.feasible for r in runs_rep)
    assert best_rep.size >= best_plain.size
    assert verify(g, best_rep.selected)[0]


def test_mis_sb_repairs_when_no_restart_is_feasible():
    k6 = graph_from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    params = SbParams(n_steps=1, restarts=3, seed=1)
    assert solve_mis_sb_runs(k6, params)[0] is NO_FEASIBLE  # one step: every restart infeasible
    sol = solve_mis_sb(k6, params)
    assert sol.size == 1 and sol.feasible is True
    assert verify(k6, sol.selected) == (True, [])
