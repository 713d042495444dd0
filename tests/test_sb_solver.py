import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_bit_configs, er_graph
from misfolio.market_graph import build_graph, graph_from_edges
from misfolio.mis_qubo import IsingProblem, ising_energy, qubo_to_ising, solve_exact, to_qubo, verify
from misfolio.sb_solver import (
    SbParams,
    SbState,
    _advance,
    _setup,
    default_coupling_scale,
    digitize,
    params_from_json,
    run_seed_key,
    sb_solve,
    sb_step,
    solve_mis_sb,
    solve_mis_sb_runs,
)
from misfolio.timeseries import correlation, log_returns, synth_panel


def ising(j, h, offset=0.0):
    j = np.asarray(j, dtype=float)
    h = np.asarray(h, dtype=float)
    return IsingProblem(n_spins=len(h), j=j, h=h, offset=offset)


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
    assert (p.n_steps, p.dt, p.eta, p.alpha0, p.restarts) == (1000, 0.2, 0.2, 1.0, 10)
    assert p.coupling_scale is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_steps": 0},
        {"dt": 0.0},
        {"dt": -1.0},
        {"alpha0": 0.0},
        {"restarts": 0},
        {"coupling_scale": -0.5},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        SbParams(**kwargs)


def test_params_json_round_trip(tmp_path):
    path = tmp_path / "solver.json"
    path.write_text(json.dumps({
        "n_steps": 500, "dt": 0.1, "eta": 0.2, "alpha0": 1.0,
        "coupling_scale": None, "restarts": 4, "seed": 9,
    }))
    p = params_from_json(path)
    assert p.n_steps == 500 and p.restarts == 4 and p.coupling_scale is None
    assert p.to_json_dict()["coupling_scale"] is None


def test_params_json_round_trip_keeps_every_field(tmp_path):
    path = tmp_path / "solver.json"
    saved = SbParams(n_steps=300, coupling_scale=0.7, restarts=3, seed=5, bias_conditioning=False)
    path.write_text(json.dumps(saved.to_json_dict()))
    assert params_from_json(path) == saved


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


# --- single-step dynamics -------------------------------------------------------

def test_zero_problem_zero_state_is_fixed_point():
    problem = ising(np.zeros((4, 4)), np.zeros(4))
    params = SbParams(n_steps=50)
    state = SbState(x=np.zeros(4), p=np.zeros(4))
    for k in range(50):
        state = sb_step(state, problem, params, k)
    assert np.array_equal(state.x, np.zeros(4))
    assert np.array_equal(state.p, np.zeros(4))
    assert state.step == 50


def test_single_spin_reaches_positive_wall_and_sticks():
    # scalar reference of the same dynamics (conditioned bias coefficient is
    # c0, which is 1 for a problem with no couplings)
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
    params = SbParams(n_steps=n_steps)
    state = SbState(x=np.array([0.01]), p=np.array([0.0]))
    hit = None
    for k in range(n_steps):
        state = sb_step(state, problem, params, k)
        if hit is None and state.x[0] == 1.0:
            hit = k
            assert state.p[0] == 0.0  # momentum absorbed by the wall
    assert hit == ref_hit
    assert state.x[0] == 1.0  # pinned at the wall at the end


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_wall_invariant_random_states(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    problem = random_problem(n, seed)
    params = SbParams(n_steps=10)
    state = SbState(x=rng.uniform(-1, 1, n), p=rng.uniform(-2, 2, n))
    k = int(rng.integers(0, 10))
    out = sb_step(state, problem, params, k)
    assert np.all(np.abs(out.x) <= 1.0)


def test_step_rejects_mismatched_state():
    problem = random_problem(4, 1)
    with pytest.raises(ValueError):
        sb_step(SbState(x=np.zeros(3), p=np.zeros(3)), problem, SbParams(), 0)


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
        assert ra.seed_used == rb.seed_used == run_seed_key(77, ra.run_index)


def test_sb_solve_equals_composed_sb_steps():
    g = er_graph(12, 0.4, seed=4)
    problem = qubo_to_ising(to_qubo(g))
    params = SbParams(n_steps=300, restarts=2, seed=11)
    runs = sb_solve(problem, params)
    for r in range(2):
        rng = np.random.Generator(np.random.Philox(key=run_seed_key(11, r)))
        state = SbState(x=rng.uniform(-1.0, 1.0, 12), p=rng.uniform(-1.0, 1.0, 12))
        for k in range(300):
            state = sb_step(state, problem, params, k)
        assert np.array_equal(digitize(state.x), runs[r].spins)


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
    bias_step = (params.dt * params.eta) * (problem.h * (c0 / params.eta))
    for k in range(params.n_steps):
        alpha_k = params.alpha0 * (k / (params.n_steps - 1))
        mm = problem.j @ x
        p += (params.dt * (alpha_k - params.alpha0)) * x
        p += bias_step
        p += (params.dt * c0) * mm
        x += params.dt * p
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
    bias_step, c0 = _setup(problem, params)
    mm, scratch = np.empty_like(x), np.empty_like(x)
    for k in range(params.n_steps):
        assert _advance(x, p, mm, scratch, k, problem.j, bias_step, c0, params).all()
    assert np.max(np.abs(x - np.stack(refs))) <= 1e-9


def test_nonfinite_row_does_not_reach_other_rows():
    problem = qubo_to_ising(to_qubo(er_graph(40, 0.3, seed=7)))
    params = SbParams(n_steps=50)
    x, p = map(np.stack, zip(*(initial_state(0, r, 40) for r in range(3))))
    x_nan, p_nan = x.copy(), p.copy()
    x_nan[1, 5] = np.nan
    bias_step, c0 = _setup(problem, params)
    mm, scratch = np.empty_like(x), np.empty_like(x)
    for k in range(params.n_steps):
        _advance(x, p, mm, scratch, k, problem.j, bias_step, c0, params)
        finite = _advance(x_nan, p_nan, mm, scratch, k, problem.j, bias_step, c0, params)
    assert finite.tolist() == [True, False, True]
    assert np.array_equal(x_nan[[0, 2]], x[[0, 2]]) and np.array_equal(p_nan[[0, 2]], p[[0, 2]])


def test_diverging_run_is_flagged_not_fatal():
    problem = ising(np.zeros((2, 2)), np.array([np.inf, 0.0]))
    runs = sb_solve(problem, SbParams(restarts=3, seed=0))
    assert len(runs) == 3
    for run in runs:
        assert run.failed and run.fail_step == 0
        assert run.spins is None and math.isnan(run.energy)


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
    assert all(r.decoded.feasible for r in runs_rep if not r.failed)
    assert best_rep.size >= best_plain.size
    assert verify(g, best_rep.selected)[0]
