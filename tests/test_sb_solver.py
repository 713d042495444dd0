import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    all_bit_configs,
    er_graph,
    induced,
    ref_coupling_magnitude,
    ref_is_finite,
    ref_squared_norm,
    sb_stepper,
)
from misfolio import mis_qubo, sb_solver
from misfolio.market_graph import build_graph, graph_from_edges
from misfolio.mis_qubo import (
    NO_FEASIBLE,
    IsingProblem,
    ising_energy,
    qubo_to_ising,
    reduce,
    solve_exact,
    to_qubo,
    verify,
)
from misfolio.sb_solver import (
    ALPHA0,
    DT,
    SbParams,
    _setup,
    digitize,
    run_seed_key,
    sb_solve,
    solve_mis_sb,
    solve_mis_sb_runs,
)
from misfolio.timeseries import correlation, log_returns, synth_panel


def ising(j, h, offset=0.0):
    j = np.asarray(j, dtype=np.float32)
    h = np.asarray(h, dtype=float)
    return IsingProblem(j=j, h=h, offset=offset)


def random_problem(n, seed):
    """Couplings drawn uniform in [-1, 1] and rounded to float32, the dtype of J."""
    rng = np.random.default_rng(seed)
    j = rng.uniform(-1, 1, (n, n))
    j = ((j + j.T) / 2).astype(np.float32)
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


def test_numpy_integer_seeds_run_the_streams_of_their_value():
    # a uint64 seed shifted left by 64 in the Philox key used to give 0, so
    # every uint64 seed ran the streams of seed 0
    problem = qubo_to_ising(to_qubo(er_graph(12, 0.4, seed=3)))

    def spins(seed):
        return [run.spins.tolist() for run in sb_solve(problem, SbParams(n_steps=20, restarts=2, seed=seed))]

    assert SbParams(seed=np.uint64(3)).seed == 3 and type(SbParams(seed=np.int64(3)).seed) is int
    assert spins(np.uint64(3)) == spins(3) == spins(np.int64(3)) == spins(np.int32(3))
    assert spins(np.uint64(7)) != spins(np.uint64(3))


@pytest.mark.parametrize("seed", [-1, 2**64, np.int64(-1)], ids=["minus-one", "two-to-64", "int64-minus-one"])
def test_params_reject_a_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        SbParams(seed=seed)


def coupling_scale(problem):
    """The ``c0`` that ``sb_solve`` steps with."""
    return _setup(problem, SbParams())[1]


def masked_coupling_scale(problem):
    """The prescription as stated: rms over the off-diagonal entries of J, summed in float64."""
    n = problem.n_spins
    off = problem.j[~np.eye(n, dtype=bool)].astype(np.float64)
    rms = math.sqrt(float(np.mean(off * off)))
    return 1.5 / (rms * math.sqrt(n))


def test_default_coupling_scale_prescription():
    g = er_graph(10, 0.4, seed=0)
    problem = qubo_to_ising(to_qubo(g))
    assert coupling_scale(problem) == pytest.approx(masked_coupling_scale(problem))
    # MIS couplings square to 0.25 or 0, so every sum is exact
    problem = qubo_to_ising(to_qubo(er_graph(300, 0.3, seed=1)))
    assert coupling_scale(problem) == masked_coupling_scale(problem)
    problem = random_problem(300, seed=2)
    assert coupling_scale(problem) == pytest.approx(masked_coupling_scale(problem), rel=1e-15)
    # degenerate case: no couplings at all
    assert coupling_scale(ising(np.zeros((3, 3)), np.ones(3))) == 1.0


# --- single-step dynamics (the step kernel on one-row states) -------------------

def test_zero_problem_zero_state_is_fixed_point():
    problem = ising(np.zeros((4, 4)), np.zeros(4))
    x, p = np.zeros((1, 4), dtype=np.float32), np.zeros((1, 4), dtype=np.float32)
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
    x, p = np.array([[0.01]], dtype=np.float32), np.array([[0.0]], dtype=np.float32)
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
    x, p = (v.astype(np.float32) for v in (rng.uniform(-1, 1, (1, n)), rng.uniform(-2, 2, (1, n))))
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
    """Restart ``r``'s float32 start, drawn as ``sb_solve`` draws it."""
    rng = np.random.Generator(np.random.Philox(key=run_seed_key(seed, r)))
    return rng.uniform(-1.0, 1.0, n).astype(np.float32), rng.uniform(-1.0, 1.0, n).astype(np.float32)


def reference_run(problem, params, r):
    """One restart on float32 1-D arrays: the module docstring's four steps with ``J @ x``.

    Scalar factors are grouped as the solver groups them, so the only
    difference left is the matrix product (``J @ x`` here, one row of
    ``X @ J`` in the solver).
    """
    x, p = initial_state(params.seed, r, problem.n_spins)
    c0 = coupling_scale(problem)
    bias_step = ((DT * c0) * problem.h).astype(np.float32)
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

#: the free part is summed in slot order, and float32 rounding differences
#: grow over 1,000 steps: measured maxima 0.0 (er200, market120) and 3.5e-4
#: (market400); 1e-9 in float64
SPLIT_POSITION_TOLERANCE = 1e-3


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
        assert_resident_rows(split.split, problem.j)
        pinned_columns.append(np.count_nonzero(split.split.pinned_x.any(axis=0)))
    assert max(pinned_columns) > problem.n_spins // 2  # the split skipped most of the product
    assert np.array_equal(digitize(x_split), digitize(x_dense))
    refs = np.stack([reference_run(problem, params, r) for r in range(10)])
    assert np.max(np.abs(x_split - refs)) <= SPLIT_POSITION_TOLERANCE


def assert_resident_rows(split, j):
    """The resident rows are exactly ``J[slots]``, one slot per free column."""
    slots = split.slots[: split.k]
    assert np.array_equal(split.rows[: split.k], j[slots])
    # a pinned column holds +/-1 in pinned_x, a free one 0
    assert np.array_equal(np.sort(slots), np.flatnonzero(~split.pinned_x.any(axis=0)))


def test_resident_rows_hold_every_free_column_above_1024_spins():
    # 1,100 spins: the resident buffer holds n float32 rows, more than 4 MiB
    panel = synth_panel(1100, 300, 3, seed=25)
    returns = log_returns(panel)
    problem = qubo_to_ising(to_qubo(build_graph(correlation(returns, returns.n_rows), 0.25)))
    n = problem.n_spins
    params = SbParams(restarts=4, seed=3)
    start = [np.stack(v) for v in zip(*(initial_state(3, r, n) for r in range(4)))]
    x_dense, p_dense = (v.copy() for v in start)
    x_split, p_split = (v.copy() for v in start)
    dense = sb_stepper(problem, params, x_dense, p_dense)
    split = sb_stepper(problem, params, x_split, p_split, split=True)
    assert len(split.split.rows) == n
    released = reused = False
    held = set()
    for k in range(params.n_steps):
        dense(k)
        split(k)
        state = split.split
        assert np.array_equal(state.pinned_mm, state.pinned_x @ problem.j)
        assert_resident_rows(state, problem.j)
        now = set(state.slots[: state.k].tolist())
        released |= bool(held - now)
        # a column that takes a slot after a release fills a slot used before
        reused |= released and bool(now - held)
        held = now
    assert released and reused
    assert np.array_equal(digitize(x_split), digitize(x_dense))


def test_sb_solve_splits_mis_problems_from_the_crossover(monkeypatch):
    graph = synth_market_graph_400()
    problem = qubo_to_ising(to_qubo(graph))
    assert sb_solver._split_pays(problem)
    below = sb_solver._SPLIT_MIN_SPINS - 1
    assert not sb_solver._split_pays(ising(problem.j[:below, :below], problem.h[:below]))
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
    assert sb_solver._split_pays(ising(j + j.T, np.zeros(n))) is exact


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


def test_encoding_and_solve_allocate_no_float64_matrix_and_no_second_j():
    panel = synth_panel(1024, 300, 3, seed=23)
    returns = log_returns(panel)
    graph = build_graph(correlation(returns, returns.n_rows), 0.25)
    n = graph.n_nodes
    tracemalloc.start()
    try:
        problem = qubo_to_ising(to_qubo(graph))
        runs = sb_solve(problem, SbParams(n_steps=100, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # J (4 MiB) and the split's resident rows (at most n rows, 4 MiB) coexist;
    # the rest of the peak, measured at 0.87 MiB, is the bSB state and the
    # energy pass's float64 row block (0.5 MiB); the slot compaction moves at
    # most _BLOCK_ROWS rows (0.25 MiB) at once.  An n x n float64 array
    # (8 MiB), a second copy of J (4 MiB) or an unblocked compaction
    # (1.35 MiB over) exceeds the 1 MiB allowance
    assert peak <= 4 * n * n + 4 * n * n + 2**20
    assert problem.j.dtype == np.float32 and len(runs) == 10


def test_reduce_allocates_no_m_by_m_float32_matrix():
    returns = log_returns(synth_panel(2048, 300, 3, seed=0))
    graph = build_graph(correlation(returns, returns.n_rows), 0.25)
    n = graph.n_nodes
    tracemalloc.start()
    try:
        forced, kernel = reduce(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a block of live rows and a chunk of columns, each _DOMINATION_ROWS float32
    # rows of n, plus the chunk's bool gather; the n x n float32 matrix alone
    # (16 MiB) exceeds this
    assert peak <= 3 * mis_qubo._DOMINATION_ROWS * n * 4 + 2**20
    assert len(forced) + len(kernel) < n


# --- what IsingProblem records about J ----------------------------------------------

@st.composite
def couplings(draw):
    """A symmetric float32 J with a zero diagonal: an MIS encoding, random
    floats, all zeros, or entries of two magnitudes (possibly equal) with
    both signs, one magnitude per row of the upper triangle or per group of
    64 rows, so the magnitudes differ within a strip of the walk or only
    between strips."""
    n = draw(st.integers(0, 200))
    kind = draw(st.sampled_from(["mis", "random", "zeros", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "mis":
        return qubo_to_ising(to_qubo(er_graph(n, draw(st.floats(0.0, 1.0)), seed=int(rng.integers(2**32))))).j
    if kind == "random":
        upper = rng.uniform(-1.0, 1.0, (n, n))
    elif kind == "zeros":
        upper = np.zeros((n, n))
    else:
        magnitudes = draw(st.lists(st.sampled_from([0.25, 0.5, 0.75, 3.0]), min_size=2, max_size=2))
        rows_per_magnitude = draw(st.sampled_from([1, 64]))
        size = rng.choice(magnitudes, n // rows_per_magnitude + 1).repeat(rows_per_magnitude)[:n, None]
        upper = size * rng.choice([-1.0, 0.0, 1.0], (n, n))
    upper = np.triu(upper, 1).astype(np.float32)
    return upper + upper.T


def one_magnitude_per_strip(n=150):
    """+/-0.5 in the first 64 rows of the upper triangle, +/-0.75 below: no strip of the walk mixes them."""
    size = np.where(np.arange(n) < 64, 0.5, 0.75)[:, None]
    upper = np.triu(size * np.random.default_rng(0).choice([-1.0, 0.0, 1.0], (n, n)), 1).astype(np.float32)
    return upper + upper.T


@given(couplings())
@example(one_magnitude_per_strip())
@settings(max_examples=80, deadline=None)
def test_problem_records_the_squared_norm_and_magnitude_of_the_scans(j):
    problem = ising(j, np.zeros(len(j)))
    assert problem.squared_norm == ref_squared_norm(j)  # bit for bit, so c0 keeps its bits
    assert problem.coupling_magnitude == ref_coupling_magnitude(j)


def test_recorded_facts_are_derived_not_settable():
    problem = ising([[0.0, -0.5], [-0.5, 0.0]], [0.0, 0.0])
    assert (problem.squared_norm, problem.coupling_magnitude) == (0.5, 0.5)
    with pytest.raises(TypeError):
        IsingProblem(j=problem.j, h=problem.h, offset=0.0, squared_norm=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.squared_norm = 1.0


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


def non_finite_in_a_later_block(row, col, value, n=600):
    """A symmetric J but for one non-finite entry, far from the first row block of the walk."""
    j = random_problem(n, seed=3).j.copy()
    j[row, col] = value
    return j


@pytest.mark.parametrize(
    "j",
    [
        non_finite_in_a_later_block(590, 3, np.nan),
        non_finite_in_a_later_block(3, 590, np.nan),
        non_finite_in_a_later_block(590, 3, -np.inf),
    ],
    ids=["n600-lower-nan", "n600-upper-nan", "n600-lower-inf"],
)
def test_non_finite_entry_is_named_before_the_asymmetry_it_makes(j):
    assert not ref_is_finite(j)
    with pytest.raises(ValueError, match="J, h and offset must be finite"):
        ising(j, np.zeros(len(j)))


def asymmetric_in_a_later_block(n=600):
    """A symmetric J but for one entry, far from the first row block of the check."""
    j = random_problem(n, seed=3).j.copy()
    j[n - 2, n - 70] += 2**-20
    return j


@pytest.mark.parametrize(
    "j",
    [
        np.array([[0.0, 1.0], [0.5, 0.0]]),
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        asymmetric_in_a_later_block(),
        asymmetric_in_a_later_block().T,
    ],
    ids=["n2", "diagonal", "n600-lower", "n600-upper"],
)
def test_asymmetric_problem_is_rejected(j):
    with pytest.raises(ValueError, match="symmetric"):
        ising(j, np.zeros(len(j)))


@pytest.mark.parametrize(
    "j, dtype",
    [
        (np.zeros((2, 2)), "float64"),
        ([[0.0, 0.5], [0.5, 0.0]], "float64"),
        (np.array([[0.0, 0.1], [0.1, 0.0]]), "float64"),
        (np.zeros((2, 2), dtype=np.float16), "float16"),
        (np.zeros((2, 2), dtype=np.int32), "int32"),
    ],
    ids=["float64", "list", "float64-inexact", "float16", "int32"],
)
def test_coupling_of_another_dtype_than_float32_is_rejected(j, dtype):
    # J is never cast on the way in: the caller casts, and sees any rounding
    with pytest.raises(ValueError, match=f"J must be float32, got {dtype}; cast it"):
        IsingProblem(j=j, h=np.zeros(2), offset=0.0)


def test_coupling_norm_overflow_is_rejected(monkeypatch):
    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(sb_solver, "_advance", no_step)
    # a bias of 1e37 kicks by dt * h = 2e36 a step, 2e39 over 1,000 steps
    assert float(np.finfo(np.float32).max) < 2e39 < float(np.finfo(np.float64).max)
    # refused before the first step; a warning would fail the test
    with pytest.raises(ValueError, match="overflow"):
        sb_solve(ising(np.zeros((2, 2)), [1e37, 0.0]), SbParams())
    # float32 entries 2**127 whose coupling product can reach 2**128, float32's overflow
    j = np.full((3, 3), 2.0**127)
    np.fill_diagonal(j, 0.0)
    with pytest.raises(ValueError, match="overflow"):
        sb_solve(ising(j, np.zeros(3)), SbParams())


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
    assert [run.energy for run in runs] == ising_energy(problem, [run.spins for run in runs]).tolist()
    feasible_energies = []
    for run in runs:
        assert run.decoded.feasible in (True, False)
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
    # the octahedron K(2,2,2): no node is isolated or dominated, so bSB steps the
    # whole graph whether or not it is reduced first
    octahedron = graph_from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6) if j - i != 3])
    assert len(reduce(octahedron)[1]) == 6
    params = SbParams(n_steps=1, restarts=3, seed=1)
    assert solve_mis_sb_runs(octahedron, params)[0] is NO_FEASIBLE  # one step: every restart infeasible
    sol = solve_mis_sb(octahedron, params)
    assert sol.size == 2 and sol.feasible is True
    assert verify(octahedron, sol.selected) == (True, [])


def test_large_graph_runs_bsb_on_its_kernel_and_maps_each_run_back():
    graph = synth_market_graph_400()
    forced, kernel = reduce(graph)
    dropped = np.setdiff1d(np.arange(graph.n_nodes), np.concatenate([forced, kernel]))
    assert len(forced) and len(kernel) and len(dropped)
    params = SbParams(n_steps=200, restarts=4, seed=3)
    _, runs = solve_mis_sb_runs(graph, params)
    spins = np.stack([run.spins for run in runs])
    assert spins.shape == (params.restarts, graph.n_nodes)
    assert (spins[:, forced] == 1).all() and (spins[:, dropped] == -1).all()
    kernel_runs = sb_solve(qubo_to_ising(to_qubo(induced(graph, kernel))), params)
    assert np.array_equal(spins[:, kernel], np.stack([run.spins for run in kernel_runs]))
    assert [run.energy for run in runs] == ising_energy(qubo_to_ising(to_qubo(graph)), spins).tolist()
    assert [run.decoded.feasible for run in runs] == [verify(graph, run.decoded.selected)[0] for run in runs]
    _, repaired = solve_mis_sb_runs(graph, params, repair=True)
    assert all(verify(graph, run.decoded.selected) == (True, []) for run in repaired)


@pytest.mark.parametrize("n_nodes", [sb_solver._SPLIT_MIN_SPINS - 2, sb_solver._SPLIT_MIN_SPINS])
def test_only_graphs_from_the_crossover_are_reduced(monkeypatch, n_nodes):
    # disjoint edges: the lower end of each is forced, so the kernel is empty
    graph = graph_from_edges(n_nodes, [(i, i + 1) for i in range(0, n_nodes, 2)])
    solved = []

    def recording_solve(problem, params):
        solved.append(problem.n_spins)
        return sb_solve(problem, params)

    monkeypatch.setattr(sb_solver, "sb_solve", recording_solve)
    params = SbParams(restarts=3, seed=2)
    best, runs = solve_mis_sb_runs(graph, params)
    assert len(runs) == params.restarts
    if n_nodes >= sb_solver._SPLIT_MIN_SPINS:
        assert solved == []
        assert all(run.decoded.selected == tuple(range(0, n_nodes, 2)) for run in runs)
        assert best.selected == tuple(range(0, n_nodes, 2)) and best.feasible is True
    else:
        assert solved == [n_nodes]
    spins = np.stack([run.spins for run in runs])
    assert [run.energy for run in runs] == ising_energy(qubo_to_ising(to_qubo(graph)), spins).tolist()
