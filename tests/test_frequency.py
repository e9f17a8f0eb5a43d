import numpy as np
import pytest

from rebalfreq import (
    AssumptionError,
    BlackScholesModel,
    DegenerateTargetError,
    MarketModel,
    ParameterError,
    TruncatedKimOmbergModel,
    bs1d_closed_forms,
    check_nondegeneracy,
    constant_rule,
    cost_breakdown,
    lemma_constants,
    l21_norm,
    merton_state,
    optimal_rule,
    rate_parts,
    schedule_trading_times,
    total_cost,
)

from conftest import EPS, GAMMA, KO_PARAMS, sample_support_states

NOSTATE = np.zeros(0)


# ---------------------------------------------------------------------------
# waiting times quoted in the source material
# ---------------------------------------------------------------------------

def test_waiting_time_2_23_years(bs1d):
    rule = optimal_rule(bs1d, GAMMA)
    wait = float(rule.waiting_time(NOSTATE, EPS))
    assert abs(wait - 2.23) / 2.23 < 1e-2
    # internal consistency with the single-asset closed form
    forms = bs1d_closed_forms(0.08, 0.16, GAMMA, EPS)
    assert abs(wait - forms.waiting_time) < 1e-12


def test_waiting_time_small_cost(bs1d):
    wait = float(optimal_rule(bs1d, GAMMA).waiting_time(NOSTATE, 0.001))
    assert 0.46 <= wait <= 0.50


def test_waiting_time_low_mu_high_vol():
    m = BlackScholesModel(mu=[0.04], vol=[0.20])
    wait = float(optimal_rule(m, GAMMA).waiting_time(NOSTATE, EPS))
    assert abs(wait - 1.84) / 1.84 < 1e-2


def test_universal_time_move_ratio():
    forms = bs1d_closed_forms(0.08, 0.16, GAMMA, EPS)
    assert abs(forms.ratio - (12.0 / np.pi) ** (1.0 / 3.0)) < 1e-6
    other = bs1d_closed_forms(0.03, 0.25, 7.0, 0.002)
    assert abs(other.ratio - forms.ratio) < 1e-12


def test_bs1d_loss_rates_plug_in_oracle():
    # frozen value from direct evaluation of the closed form
    forms = bs1d_closed_forms(0.08, 0.16, GAMMA, EPS)
    assert forms.time_based_loss_rate == pytest.approx(3.0071353895e-4, rel=1e-9)
    assert forms.move_based_loss_rate == pytest.approx(1.9237229400e-4, rel=1e-9)


def test_bs1d_requires_interior_weight():
    with pytest.raises(AssumptionError):
        bs1d_closed_forms(0.08, 0.16, 1.0, EPS)  # w* > 1
    with pytest.raises(ParameterError):
        bs1d_closed_forms(0.08, 0.16, GAMMA, 0.0)


# ---------------------------------------------------------------------------
# cost breakdown and total cost
# ---------------------------------------------------------------------------

def test_first_order_condition_all_models(bs1d, bs2d, ko1d, ko2d):
    for model in (bs1d, bs2d(0.3), bs2d(0.9), ko1d, ko2d(0.6)):
        states = sample_support_states(model, 25, seed=6)
        parts = cost_breakdown(model, GAMMA, states, allow_flagged=True)
        np.testing.assert_allclose(parts.tac_rate, 2.0 * parts.de_rate, rtol=1e-12)


def test_total_cost_two_code_paths_agree(bs1d, ko1d):
    tc_min = total_cost(bs1d, GAMMA, rule=None, horizon_T=20.0)
    tc_gen = total_cost(bs1d, GAMMA, rule=optimal_rule(bs1d, GAMMA), horizon_T=20.0)
    assert abs(tc_min - tc_gen) / tc_min < 1e-10
    kw = dict(horizon_T=20.0, n_paths=200, seed=3, allow_flagged=True)
    tc_min = total_cost(ko1d, GAMMA, rule=None, **kw)
    tc_gen = total_cost(ko1d, GAMMA, rule=optimal_rule(ko1d, GAMMA, True), **kw)
    assert abs(tc_min - tc_gen) / tc_min < 1e-10


def test_total_cost_matches_bs1d_closed_form(bs1d):
    forms = bs1d_closed_forms(0.08, 0.16, GAMMA, EPS)
    tc = total_cost(bs1d, GAMMA, rule=None, horizon_T=20.0)
    loss_rate = EPS ** (2.0 / 3.0) * tc / 20.0
    assert abs(loss_rate - forms.time_based_loss_rate) < 1e-12


def test_optimality_of_a_star(bs1d, ko1d):
    from rebalfreq.frequency import DiscretizationRule

    base = total_cost(bs1d, GAMMA, rule=None, horizon_T=20.0)
    rule = optimal_rule(bs1d, GAMMA)
    a_star = float(np.asarray(rule.A_of(NOSTATE)))
    for c in (0.25, 0.5, 2.0, 4.0):
        scaled = DiscretizationRule(kind="constant", A=c * a_star)
        tc = total_cost(bs1d, GAMMA, rule=scaled, horizon_T=20.0)
        assert tc > base * (1.0 + 1e-6)


def test_epsilon_scaling_identities(bs1d):
    rule = optimal_rule(bs1d, GAMMA)
    w1 = float(rule.waiting_time(NOSTATE, EPS))
    w8 = float(rule.waiting_time(NOSTATE, 8.0 * EPS))
    assert w8 / w1 == pytest.approx(4.0, rel=1e-14)
    assert (8.0 * EPS) ** (2.0 / 3.0) / EPS ** (2.0 / 3.0) == pytest.approx(4.0, rel=1e-14)


def test_orthogonal_driver_invariance(bs2d, ko2d):
    class Rotated(MarketModel):
        """Same market with the Brownian factors relabelled by Q."""

        def __init__(self, base, q):
            self.base, self.q = base, q
            self.m, self.d, self.p = base.m, base.d, base.p
            self.support = base.support
            self.has_analytic_jacobians = base.has_analytic_jacobians
            if hasattr(base, "long_run_mean"):
                self.long_run_mean = base.long_run_mean

        def mu(self, y):
            return self.base.mu(y)

        def sigma(self, y):
            return self.base.sigma(y) @ self.q

        def b(self, y):
            return self.base.b(y)

        def g(self, y):
            return self.base.g(y) @ self.q

        def dmu_dy(self, y):
            return self.base.dmu_dy(y)

        def dsigma_dy(self, y):
            return self.base.dsigma_dy(y)

    rng = np.random.default_rng(0)
    for model in (bs2d(0.6), ko2d(0.3)):
        q, _ = np.linalg.qr(rng.standard_normal((model.d, model.d)))
        rot = Rotated(model, q)
        states = sample_support_states(model, 10, seed=14)
        n0, d0 = rate_parts(model, GAMMA, states, allow_flagged=True)
        n1, d1 = rate_parts(rot, GAMMA, states, allow_flagged=True)
        np.testing.assert_allclose(n1, n0, rtol=1e-10)
        np.testing.assert_allclose(d1, d0, rtol=1e-10)
        a0 = (n0 / d0) ** (2 / 3)
        a1 = (n1 / d1) ** (2 / 3)
        np.testing.assert_allclose(a1, a0, rtol=1e-10)


def test_rule_positive_and_finite_at_sampled_states(ko1d):
    rule = optimal_rule(ko1d, GAMMA, allow_flagged=True)
    states = sample_support_states(ko1d, 200, seed=2)
    a = rule.A_of(states)
    assert np.all(np.isfinite(a)) and np.all(a > 0)


def test_degenerate_target_and_assumption_errors():
    flat = BlackScholesModel(mu=[0.0], vol=[0.16])
    with pytest.raises(DegenerateTargetError):
        optimal_rule(flat, GAMMA).A_of(NOSTATE)
    lever = BlackScholesModel(mu=[0.08], vol=[0.16])
    with pytest.raises(AssumptionError):
        optimal_rule(lever, 1.0).A_of(NOSTATE)  # w* = 3.125
    assert float(optimal_rule(lever, 1.0, allow_flagged=True).A_of(NOSTATE)) > 0


# ---------------------------------------------------------------------------
# constant rule
# ---------------------------------------------------------------------------

def test_constant_rule_equals_adaptive_for_constant_models(bs2d):
    m = bs2d(0.6)
    c = constant_rule(m, GAMMA, 20.0)
    a = optimal_rule(m, GAMMA)
    assert c.kind == "constant"
    assert float(c.A) == pytest.approx(float(np.asarray(a.A_of(NOSTATE))), rel=1e-14)


def test_constant_rule_frozen_state_equals_pointwise():
    frozen = TruncatedKimOmbergModel(
        vol=[0.1428],
        cutoff_low=0.012,
        cutoff_high=0.100,
        cutoff_width=0.01,
        **{**KO_PARAMS, "state_vol": 0.0, "mean_reversion": 0.0},
    )
    y0 = np.array([KO_PARAMS["long_run_mean"]])
    c = constant_rule(frozen, GAMMA, 20.0, y0=y0, n_paths=8, seed=1)
    a = optimal_rule(frozen, GAMMA)
    assert float(c.A) == pytest.approx(float(np.asarray(a.A_of(y0))), rel=1e-12)


def test_constant_rule_ko_waiting_months(ko1d):
    rule = constant_rule(ko1d, GAMMA, 20.0, n_paths=2000, seed=5, allow_flagged=True)
    months = 12.0 * float(rule.waiting_time(None, EPS))
    assert abs(months - 6.7) <= 1.0


# ---------------------------------------------------------------------------
# the streamed prediction grid
# ---------------------------------------------------------------------------

# in _rate_grid's argument order
GRID_KW = dict(horizon_T=0.5, y0=None, n_paths=24, dt=1.0 / 250.0, seed=4, allow_flagged=True)


def test_rate_grid_bits_independent_of_block(ko1d, monkeypatch):
    from rebalfreq import frequency, simulate

    adaptive = optimal_rule(ko1d, GAMMA, allow_flagged=True)
    fields = ("n", "d", "f_rate", "opt", "tac", "da")

    def run(paths, steps):  # blocks of paths, stepped in chunks of steps
        monkeypatch.setattr(simulate, "_BLOCK", paths)
        monkeypatch.setattr(simulate, "_CHUNK", paths * steps)
        grid = frequency._rate_grid(ko1d, GAMMA, *GRID_KW.values(), adaptive)
        assert grid.n.shape == (24,)
        crule = constant_rule(ko1d, GAMMA, **GRID_KW)
        costs = [total_cost(ko1d, GAMMA, rule=r, **GRID_KW) for r in (None, crule, adaptive)]
        return [getattr(grid, f) for f in fields], crule.A, costs

    whole = run(24, 125)  # 125 steps: 0.5 years of 1/250
    for paths, steps in ((1, 1), (3, 5), (4, 40)):
        arrays, a, costs = run(paths, steps)
        for name, got, ref in zip(fields, arrays, whole[0]):
            np.testing.assert_array_equal(got, ref, err_msg=f"{name}, blocks of {paths} paths")
        assert a == whole[1] and costs == whole[2]


@pytest.mark.parametrize("market", ["ko1d", "ko2d"])
def test_pooled_grid_bits_equal_serial(market, request):
    from concurrent.futures import ProcessPoolExecutor

    from rebalfreq import frequency

    model = request.getfixturevalue(market)
    model = model if market == "ko1d" else model(0.6)
    adaptive = optimal_rule(model, GAMMA, allow_flagged=True)
    args = (model, GAMMA, *dict(GRID_KW, n_paths=40).values(), adaptive)
    serial = frequency._rate_grid(*args)
    ranges = []

    class RecordingPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, **kw):
            ranges.extend(zip(*iterables))
            return super().map(fn, *iterables, **kw)

    with RecordingPool(max_workers=2) as pool:  # six ranges of 7 paths or fewer, two processes
        pooled = frequency._rate_grid(*args, n_workers=6, pool=pool)
    assert ranges == [(0, 7), (7, 14), (14, 21), (21, 28), (28, 35), (35, 40)]
    for name in ("n", "d", "f_rate", "opt", "tac", "da"):
        assert getattr(pooled, name).tobytes() == getattr(serial, name).tobytes(), name
    assert pooled.rule is adaptive
    assert pooled.constant_rule().A == serial.constant_rule().A
    for rule in (None, serial.constant_rule(), adaptive):
        assert pooled.total_cost(rule) == serial.total_cost(rule)


@pytest.mark.parametrize("table, cell", [(2, 0), (4, 0)])
def test_grid_and_engine_share_one_trapezoid(table, cell):
    # grid path k is the engine's antithetic path 2k; its frictionless integral is the
    # engine's, bit for bit: the same rates summed step by step in the same order
    from rebalfreq import evaluate, frequency
    from rebalfreq.simulate import frictionless_benchmark, run_strategies

    _, model = evaluate._table_spec(table)["models"][cell]
    cfg = evaluate._run_config(64, seed=7, horizon=0.5)
    engine = run_strategies(model, cfg, [frictionless_benchmark()])[0]["frictionless_sim"]
    grid = frequency._rate_grid(model, cfg.gamma, cfg.horizon, cfg.y0, 32, cfg.dt, cfg.seed,
                                cfg.allow_flagged)
    assert cfg.antithetic
    np.testing.assert_array_equal(engine.frictionless_path[::2], grid.f_rate / cfg.horizon)


def test_grid_memory_independent_of_horizon(ko1d):
    # the grid holds per-path running sums and one chunk of states, never a path's whole row:
    # over 2000 paths its traced peak grows by less than 1 MiB from T = 1 to T = 5
    import tracemalloc

    from rebalfreq import frequency

    frequency._path_integrals((ko1d,), GAMMA, 0.2, None, 1.0 / 250.0, 7, True, None, 0, 4)
    peaks = []
    for horizon in (1.0, 5.0):
        tracemalloc.start()
        try:
            frequency._path_integrals((ko1d,), GAMMA, horizon, None, 1.0 / 250.0, 7, True, None,
                                      0, 2000)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1 << 20


@pytest.mark.parametrize("horizon", [1.0, 5.0])
def test_streamed_grid_holds_one_drawing_block(ko1d, monkeypatch, horizon):
    # 2000 = 3 * 512 + 464 paths in blocks of 512: the peak stays under one block's peak plus
    # the range's per-path sums and one more chunk of states, as a block's held constants and
    # rates are dropped only while the next block's are formed
    import tracemalloc

    from rebalfreq import frequency, simulate

    monkeypatch.setattr(simulate, "_BLOCK", 512)
    frequency._path_integrals((ko1d,), GAMMA, 0.2, None, 1.0 / 250.0, 7, True, None, 0, 4)
    peaks = []
    for n_paths in (512, 2000):
        tracemalloc.start()
        try:
            frequency._path_integrals((ko1d,), GAMMA, horizon, None, 1.0 / 250.0, 7, True, None,
                                      0, n_paths)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    sums, chunk = 4 * 2000 * 8, simulate._CHUNK * ko1d.p * 8
    assert peaks[1] < peaks[0] + sums + chunk


def test_pooled_ranges_of_partial_drawing_blocks_equal_serial(ko1d, monkeypatch):
    # in blocks of 512, two workers draw ranges of 1000 = 512 + 488 paths, one worker
    # 2000 = 3 * 512 + 464
    from concurrent.futures import ProcessPoolExecutor

    from rebalfreq import frequency, simulate

    monkeypatch.setattr(simulate, "_BLOCK", 512)  # set before the pool forks
    adaptive = optimal_rule(ko1d, GAMMA, allow_flagged=True)
    args = (ko1d, GAMMA, 0.1, None, 2000, 1.0 / 250.0, 4, True, adaptive)
    serial = frequency._rate_grid(*args)
    with ProcessPoolExecutor(max_workers=2) as pool:
        pooled = frequency._rate_grid(*args, n_workers=2, pool=pool)
    for name in ("n", "d", "f_rate", "opt", "tac", "da"):
        assert getattr(pooled, name).tobytes() == getattr(serial, name).tobytes(), name


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_rule_values_must_be_finite(bs1d, ko1d, bad):
    from functools import partial

    from rebalfreq import DiscretizationRule
    from rebalfreq.simulate import SimulationConfig, run_strategies, time_based

    kw = dict(horizon_T=0.1, n_paths=4, allow_flagged=True)
    constant = DiscretizationRule("constant", bad)
    by_state = DiscretizationRule("adaptive", lambda y: np.full(len(y), bad))
    calls = [partial(cost_breakdown, bs1d, GAMMA, NOSTATE, A=bad),
             partial(cost_breakdown, ko1d, GAMMA, [0.05], A=bad, allow_flagged=True)]
    for model in (bs1d, ko1d):
        for rule in (constant, by_state):
            calls += [partial(total_cost, model, GAMMA, rule=rule, **kw),
                      partial(lemma_constants, model, GAMMA, rule, **kw)]
    for rule, y in ((constant, NOSTATE), (by_state, np.array([[0.05]]))):
        calls += [partial(rule.waiting_time, y, EPS),
                  partial(schedule_trading_times, rule, EPS, 1.0, state_path=y)]
    cfg = SimulationConfig(horizon=0.1, dt=1.0 / 250.0, n_paths=4, epsilon=EPS, gamma=GAMMA)
    calls.append(partial(run_strategies, bs1d, cfg, [time_based(constant)]))
    for call in calls:
        with pytest.raises(ParameterError, match=f"positive and finite, got {bad}"):
            call()


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
def test_waiting_time_checks_epsilon(bs1d, eps):
    with pytest.raises(ParameterError, match=f"epsilon must be nonnegative and finite, got {eps}"):
        optimal_rule(bs1d, GAMMA).waiting_time(NOSTATE, eps)
    assert optimal_rule(bs1d, GAMMA).waiting_time(NOSTATE, 0.0) == 0.0  # the engine's eps = 0


@pytest.mark.parametrize("alpha", [5.0, 2.0, 0.0, -1.0, float("nan")])
def test_waiting_time_exponent_checked(alpha):
    from rebalfreq import DiscretizationRule

    with pytest.raises(ParameterError, match=f"exponent must lie in \\(0, 2\\), got {alpha}"):
        DiscretizationRule("constant", 1.0, alpha=alpha)
    with pytest.raises(ParameterError, match="exponent must lie in"):
        DiscretizationRule("constant", 1.0).with_alpha(alpha)
    assert DiscretizationRule("constant", 1.0).with_alpha(1.5) == DiscretizationRule(
        "constant", 1.0, 1.5)


def test_grid_of_no_paths_rejected(ko1d):
    from rebalfreq import simulate_state_grid

    with pytest.raises(ParameterError, match="n_paths must be >= 1"):
        simulate_state_grid(ko1d, 0.1, 1.0 / 250.0, 0)
    with pytest.raises(ParameterError, match="n_paths must be >= 1"):
        total_cost(ko1d, GAMMA, horizon_T=0.1, n_paths=0, allow_flagged=True)


@pytest.mark.parametrize("horizon, dt", [(0.0, 0.004), (-1.0, 0.004), (0.001, 0.004),
                                         (1.001, 0.004), (np.nan, 0.004), (np.inf, 0.004),
                                         (1.0, 0.0), (1.0, np.nan), (1.0, np.inf)])
def test_horizon_must_be_whole_steps(bs1d, ko1d, horizon, dt):
    from functools import partial

    from rebalfreq import DiscretizationRule, simulate_state_grid
    from rebalfreq.simulate import SimulationConfig

    kw = dict(horizon_T=horizon, n_paths=4, dt=dt, allow_flagged=True)
    calls = [partial(SimulationConfig, horizon, dt, 4, EPS, GAMMA)]
    for model in (bs1d, ko1d):
        calls += [partial(simulate_state_grid, model, horizon, dt, 2),
                  partial(total_cost, model, GAMMA, **kw),
                  partial(constant_rule, model, GAMMA, **kw),
                  partial(lemma_constants, model, GAMMA, DiscretizationRule("constant", 1.0), **kw)]
    for call in calls:
        with pytest.raises(ParameterError, match="horizon must be a whole|dt must be positive"):
            call()


@pytest.mark.parametrize("market", ["ko1d", "ko2d"])
def test_grid_reads_optimal_rule_off_its_geometry(market, request, monkeypatch):
    # the grid reads the model's own A* off each chunk's geometry, as the engine does: the same
    # bits as the profile called on the states, and no second geometry (merton_state) per chunk
    from rebalfreq import DiscretizationRule, merton

    model = request.getfixturevalue(market)
    model = model if market == "ko1d" else model(0.6)
    profile = optimal_rule(model, GAMMA, allow_flagged=True)
    calls, merton_state = [], merton.merton_state
    monkeypatch.setattr(merton, "merton_state", lambda *a: calls.append(a) or merton_state(*a))

    def run(rule):
        return (total_cost(model, GAMMA, rule=rule, **GRID_KW),
                lemma_constants(model, GAMMA, rule, **GRID_KW))

    read = run(profile)
    assert not calls
    assert run(DiscretizationRule("adaptive", lambda y: profile.A(y))) == read
    assert calls


def test_grid_reads_own_rule_off_the_chunks_rate_parts(monkeypatch):
    # table 2's own A* at T = 5: the grid reads it from the N and D it formed for the chunk, so
    # _rate_parts runs once per chunk, as in a run without a rule, with the bits of forming them
    # again; the profile keeps its own no-leverage check on a grid that allows flagged states
    from rebalfreq import evaluate, frequency, merton

    _, model = evaluate._table_spec(2)["models"][0]
    calls, parts = [], merton._rate_parts
    for module in (frequency, merton):
        monkeypatch.setattr(module, "_rate_parts", lambda *a: calls.append(0) or parts(*a))
    rule, kw = optimal_rule(model, 5.0, True), dict(horizon_T=5.0, allow_flagged=True)

    def count(call):
        calls.clear()
        return call(), len(calls)

    _, per_chunk = count(lambda: total_cost(model, 5.0, None, **kw))
    assert count(lambda: total_cost(model, 5.0, rule, **kw)) == (0.6442398783184864, per_chunk)
    bits = (0.4294932522123243, 0.08589865044246485)
    assert count(lambda: lemma_constants(model, 5.0, rule, **kw)) == (bits, per_chunk)
    with pytest.raises(AssumptionError):
        total_cost(model, 5.0, optimal_rule(model, 5.0), **kw)


def test_grid_costs_equal_per_state_formula(ko1d):
    from rebalfreq import simulate_state_grid

    kw = dict(GRID_KW, horizon_T=2.0)
    times, grid = simulate_state_grid(ko1d, kw["horizon_T"], kw["dt"], kw["n_paths"], None, kw["seed"])
    n, d = rate_parts(ko1d, GAMMA, grid.reshape(-1, ko1d.p), allow_flagged=True)
    w = np.full(len(times), kw["dt"])
    w[0] = w[-1] = 0.5 * kw["dt"]

    def integral(values):
        return float((values.reshape(-1, len(w)) @ w).mean())

    crule = constant_rule(ko1d, GAMMA, **kw)
    a = (integral(n) / integral(d)) ** (2.0 / 3.0)
    assert crule.A == pytest.approx(a, rel=1e-12, abs=0)
    tc = total_cost(ko1d, GAMMA, rule=crule, **kw)
    assert tc == pytest.approx(integral(0.5 * d * a + n / np.sqrt(a)), rel=1e-12, abs=0)
    tc_opt = total_cost(ko1d, GAMMA, rule=None, **kw)
    assert tc_opt == pytest.approx(integral(1.5 * n ** (2 / 3) * d ** (1 / 3)), rel=1e-12, abs=0)
    adaptive = optimal_rule(ko1d, GAMMA, allow_flagged=True)
    for rule, values in ((crule, a), (adaptive, (n / d) ** (2.0 / 3.0))):
        tac, de = lemma_constants(ko1d, GAMMA, rule, **kw)
        assert tac == pytest.approx(integral(n / np.sqrt(values)), rel=1e-12, abs=0)
        assert de == pytest.approx(integral((d / GAMMA) * values), rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_schedule_arithmetic():
    from rebalfreq.frequency import DiscretizationRule

    rule = DiscretizationRule(kind="constant", A=2.23 / EPS ** (2.0 / 3.0))
    times = schedule_trading_times(rule, EPS, 20.0)
    expect = 2.23 * np.arange(9)
    np.testing.assert_allclose(times, expect, rtol=1e-12)
    assert len(times) - 1 == int(np.ceil(20.0 / 2.23)) - 1 == 8


def test_schedule_short_horizon():
    from rebalfreq.frequency import DiscretizationRule

    rule = DiscretizationRule(kind="constant", A=10.0)
    times = schedule_trading_times(rule, EPS, 0.2)
    np.testing.assert_array_equal(times, [0.0])


def test_schedule_adaptive_on_frozen_path(bs1d, ko1d):
    adaptive = optimal_rule(ko1d, GAMMA, allow_flagged=True)
    y0 = np.array([ko1d.long_run_mean])
    frozen = schedule_trading_times(adaptive, EPS, 20.0, state_path=lambda t: y0)
    a0 = float(np.asarray(adaptive.A_of(y0)))
    from rebalfreq.frequency import DiscretizationRule

    const = DiscretizationRule(kind="constant", A=a0)
    np.testing.assert_allclose(
        frozen, schedule_trading_times(const, EPS, 20.0), rtol=1e-12
    )


def test_schedule_rejects_nonpositive_waiting():
    from rebalfreq.frequency import DiscretizationRule

    rule = DiscretizationRule(kind="constant", A=-1.0)
    with pytest.raises(ParameterError):
        schedule_trading_times(rule, EPS, 20.0)
    # a positive A whose wait eps**alpha * A underflows to zero reaches the schedule's own check
    rule = DiscretizationRule(kind="constant", A=1.0, alpha=1.9)
    with pytest.raises(ParameterError, match="non-positive waiting time 0.0"):
        schedule_trading_times(rule, 1e-300, 20.0)


# ---------------------------------------------------------------------------
# nondegeneracy diagnostics and expansion constants
# ---------------------------------------------------------------------------

def test_nondegeneracy_bs1d(bs1d):
    report = check_nondegeneracy(bs1d, GAMMA, np.zeros((1, 0)))
    assert report["passes"]
    assert report["min_beta_l21"] == pytest.approx(0.0375, abs=1e-15)


def test_nondegeneracy_fails_at_corner():
    flat = BlackScholesModel(mu=[0.0], vol=[0.16])
    report = check_nondegeneracy(flat, GAMMA, np.zeros((3, 0)))
    assert not report["passes"]


def test_nondegeneracy_ko2d_tight_bound():
    # cutoffs tight enough that both weights stay positive and their total
    # stays below one at every state
    tight = TruncatedKimOmbergModel(
        vol=[0.1428, 0.1428],
        correlation=[[1.0, 0.3], [0.3, 1.0]],
        cutoff_low=0.012,
        cutoff_high=0.064,
        cutoff_width=0.006,
        **KO_PARAMS,
    )
    states = sample_support_states(tight, 200, seed=4)
    report = check_nondegeneracy(tight, GAMMA, states)
    assert report["passes"] and report["all_assumption_ok"]
    assert report["analytic_bound"] is not None and report["analytic_bound"] > 0
    assert report["min_beta_l21"] >= report["analytic_bound"] - 1e-12


def test_lemma_constants_ratio_at_optimum(bs1d):
    rule = optimal_rule(bs1d, GAMMA)
    c_tac, c_de = lemma_constants(bs1d, GAMMA, rule, 20.0)
    # at the optimal profile the cost rate is twice gamma/2 times the
    # tracking constant: c_tac == gamma * c_de exactly
    assert c_tac == pytest.approx(GAMMA * c_de, rel=1e-12)
    n, d = rate_parts(bs1d, GAMMA, NOSTATE)
    a = float(np.asarray(rule.A_of(NOSTATE)))
    assert c_tac == pytest.approx(20.0 * float(n) / np.sqrt(a), rel=1e-14)


# ---------------------------------------------------------------------------
# two-asset frequency curve
# ---------------------------------------------------------------------------

def test_a_star_correlation_limit_and_nonmonotonicity(bs1d, bs2d):
    a_1d = float(np.asarray(optimal_rule(bs1d, GAMMA).A_of(NOSTATE)))
    a_999 = float(np.asarray(optimal_rule(bs2d(0.999), GAMMA).A_of(NOSTATE)))
    assert abs(a_999 - a_1d) / a_1d < 0.01
    # the sweep spans leveraged targets below rho = 0.25 (weights sum to
    # 1.25/(1+rho)), so the rule is built with the override
    rhos = np.linspace(0.05, 0.95, 37)
    avals = np.array(
        [
            float(np.asarray(optimal_rule(bs2d(r), GAMMA, allow_flagged=True).A_of(NOSTATE)))
            for r in rhos
        ]
    )
    diffs = np.sign(np.diff(avals))
    assert np.any(diffs > 0) and np.any(diffs < 0)  # interior extremum


def test_schedule_of_state_dependent_rule_needs_state_path(bs1d, ko1d):
    for model in (bs1d, ko1d):
        adaptive = optimal_rule(model, GAMMA, allow_flagged=True)
        with pytest.raises(ParameterError, match="needs a state_path"):
            schedule_trading_times(adaptive, EPS, 20.0)


@pytest.mark.parametrize("case", ["foreign rule", "mixed state processes", "no samples"])
def test_grid_and_diagnostic_input_checks(ko1d, case):
    from rebalfreq.frequency import _rate_grid

    grid_args = (GAMMA, 0.2, None, 8, 0.004, 0, True)
    other = TruncatedKimOmbergModel(vol=[0.1428], **{**KO_PARAMS, "mean_reversion": 0.3})
    message, call = {
        "foreign rule": ("the grid holds no integrals of this state-dependent rule",
                         lambda: _rate_grid(ko1d, *grid_args).rule_integrals(
                             optimal_rule(ko1d, GAMMA, allow_flagged=True))),
        "mixed state processes": ("the models of one grid pass must share their state process",
                                  lambda: _rate_grid((ko1d, other), *grid_args)),
        "no samples": ("sample_states must be nonempty",
                       lambda: check_nondegeneracy(ko1d, GAMMA, np.zeros((0, 1)))),
    }[case]
    with pytest.raises(ParameterError, match=message):
        call()
