import dataclasses
import logging
import math

import numpy as np
import pytest
from scipy.optimize import root
from scipy.special import betaln, digamma

from glba.ingest import AgreementMultigraph, TaskGraph
from glba.model import (
    EPS_POS,
    FitConfig,
    ModelParams,
    Priors,
    R_CLAMP,
    _bisect_ab,
    _gamma_sums,
    _pair_layout,
    e_step,
    fit,
    fit_grid,
    gamma_grid,
    log_posterior,
    m_step,
    update_gamma,
)
from glba.simulate import GenerativeSpec, make_true_params, sample_multigraph
from helpers import (
    make_task,
    oracle_estep,
    oracle_gamma_ratio,
    oracle_mstep_residual,
    oracle_r_approx,
    oracle_task_sums,
    random_graph,
    random_params,
    random_task,
)

FAST = FitConfig(gamma=0.37, max_iter=200, eb_max_rounds=3, tol=1e-5)


def params_for(graph, tau, alpha, beta, gamma=0.37):
    m = graph.m
    return ModelParams(
        subjects=graph.subjects,
        tau=np.full(m, tau) if np.isscalar(tau) else np.asarray(tau, float),
        alpha=np.full(m, alpha) if np.isscalar(alpha) else np.asarray(alpha, float),
        beta=np.full(m, beta) if np.isscalar(beta) else np.asarray(beta, float),
        gamma=gamma,
    )


# ---------------------------------------------------------------------------
# oracle_task_sums
# ---------------------------------------------------------------------------


def test_task_sums_zero_weights():
    task = make_task("t", ["i", "j", "l"], {("i", "j"): 1, ("j", "i"): 1}, default=0)
    omega, psi, omega_bar, psi_bar = oracle_task_sums(task, {"i": 0, "j": 0, "l": 0}, "i")
    assert (omega, psi) == (0.0, 0.0)
    assert omega_bar == 1.0  # one agreeing neighbor at weight 1-0
    assert psi_bar == 2.0  # |task| - 1


def test_task_sums_unit_weights_all_agree():
    task = make_task("t", list("abcd"), {}, default=1)
    omega, psi, omega_bar, psi_bar = oracle_task_sums(task, dict.fromkeys("abcd", 1.0), "b")
    assert (omega, psi) == (3.0, 3.0)
    assert (omega_bar, psi_bar) == (0.0, 0.0)


def test_task_sums_hand_example():
    task = make_task("t", ["i", "j", "l"], {("i", "j"): 1, ("i", "l"): 0}, default=0)
    omega, psi, _, _ = oracle_task_sums(task, {"i": 0.9, "j": 0.5, "l": 0.25}, "i")
    assert omega == 0.5
    assert psi == 0.75


def test_task_sums_literal_index_set_adds_self():
    task = make_task("t", ["i", "j"], {}, default=1)
    _, psi, _, psi_bar = oracle_task_sums(task, {"i": 0.3, "j": 0.4}, "i", include_self=True)
    assert psi == pytest.approx(0.7)
    assert psi_bar == pytest.approx(1.3)


def test_task_sums_unknown_focal():
    task = make_task("t", ["i", "j"], {}, default=1)
    with pytest.raises(ValueError, match="not a rater"):
        oracle_task_sums(task, {"i": 1, "j": 1}, "z")


# ---------------------------------------------------------------------------
# oracle_r_approx
# ---------------------------------------------------------------------------


def test_r_approx_empty_product():
    task = make_task("t", ["j"], {})
    assert oracle_r_approx(task, "j", {}, {}, gamma=0.3) == 1.0


def test_r_approx_symmetric_cancellation():
    task = make_task("t", ["i", "j"], {("i", "j"): 1}, default=0)
    val = oracle_r_approx(task, "j", {"i": 2.0}, {"i": 2.0}, gamma=0.5)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_r_approx_two_neighbors():
    # (1/4)(3/0.4) * (1/4)(3/0.6) = 1.875 * 1.25 = 2.34375
    task = make_task("t", ["a", "b", "j"], {("a", "j"): 1, ("b", "j"): 0}, default=0)
    val = oracle_r_approx(task, "j", {"a": 3.0, "b": 1.0}, {"a": 1.0, "b": 3.0}, gamma=0.4)
    assert val == pytest.approx(2.34375, rel=1e-12)


def test_r_approx_matches_direct_product():
    rng = np.random.default_rng(21)
    for _ in range(100):
        r = int(rng.integers(2, 7))
        subs = [f"s{i}" for i in range(r)]
        task = random_task(rng, "t", subs)
        alpha = {s: float(rng.uniform(0.5, 6.0)) for s in subs}
        beta = {s: float(rng.uniform(0.5, 6.0)) for s in subs}
        gamma = float(rng.uniform(0.05, 0.45))
        focal = subs[int(rng.integers(r))]
        j = subs.index(focal)
        direct = 1.0
        for i, s in enumerate(subs):
            if i == j:
                continue
            if task.edges[i, j]:
                direct *= alpha[s] / ((alpha[s] + beta[s]) * gamma)
            else:
                direct *= beta[s] / ((alpha[s] + beta[s]) * (1.0 - gamma))
        assert oracle_r_approx(task, focal, alpha, beta, gamma) == pytest.approx(direct, rel=1e-10)


def test_r_approx_clamps():
    subs = [f"s{i}" for i in range(9)]
    task = make_task("t", subs, {(s, "s8"): 1 for s in subs[:-1]}, default=0)
    alpha = dict.fromkeys(subs, 1e7)
    beta = dict.fromkeys(subs, 1e-5)
    up = oracle_r_approx(task, "s8", alpha, beta, gamma=0.01)
    assert up == R_CLAMP[1]
    task0 = make_task("t", subs, {}, default=0)
    down = oracle_r_approx(task0, "s8", alpha, beta, gamma=0.49)
    assert down == R_CLAMP[0]


# ---------------------------------------------------------------------------
# e_step
# ---------------------------------------------------------------------------


def test_e_step_gate_forced_closed_and_open():
    graph = random_graph(np.random.default_rng(2), m=5, n=1, r_lo=5, r_hi=5)
    closed = params_for(graph, tau=0.0, alpha=2.0, beta=2.0)
    assert np.all(e_step(graph, closed)[2] == 0.0)
    opened = params_for(graph, tau=1.0, alpha=2.0, beta=2.0)
    assert np.all(e_step(graph, opened)[2] == 1.0)


def test_e_step_neutral_evidence_fixed_point():
    # a single-rater task has no neighbors: R = 1, so tau~ = tau
    graph = AgreementMultigraph.from_tasks([make_task("t", ["a"], {})])
    params = params_for(graph, tau=0.3, alpha=1.5, beta=2.5)
    assert e_step(graph, params)[2][0] == pytest.approx(0.3, abs=0)


def test_e_step_matches_brute_force_oracle():
    rng = np.random.default_rng(40)
    for _ in range(200):
        r = int(rng.integers(2, 7))
        graph = random_graph(rng, m=r, n=1, r_lo=r, r_hi=r)
        params = random_params(rng, graph)
        a_t, b_t, t_t = e_step(graph, params)
        oa, ob, ot = oracle_estep(graph.tasks[0], params)
        np.testing.assert_allclose(a_t, oa, rtol=1e-10)
        np.testing.assert_allclose(b_t, ob, rtol=1e-10)
        np.testing.assert_allclose(t_t, ot, rtol=1e-10)


def test_e_step_rejects_malformed_task():
    # One agreement a->b at tau 0.5, alpha = beta = 1: alpha~ of a is
    # 1 + 0.5.  A diagonal of 1 or 2 would add tau_a or 2 tau_a to it.
    subjects = ["a", "b", "c"]
    params = ModelParams(subjects, np.full(3, 0.5), np.ones(3), np.ones(3), 0.37)
    edges = np.zeros((3, 3), dtype=np.uint8)
    edges[0, 1] = 1
    a_t = e_step(AgreementMultigraph.from_tasks([TaskGraph("t1", subjects, edges)]), params)[0]
    assert a_t.tolist() == [1.5, 1.0, 1.0]
    for diagonal, what in ((1, "nonzero diagonal"), (2, "indicator other than 0 or 1")):
        bad = edges.copy()
        bad[0, 0] = diagonal
        with pytest.raises(ValueError, match=f"task 't1' has an? {what}"):
            e_step(AgreementMultigraph.from_tasks([TaskGraph("t1", subjects, bad)]), params)


def test_steps_reject_misaligned_inputs():
    graph = random_graph(np.random.default_rng(3), m=4, n=3, r_lo=2, r_hi=4)
    params = params_for(graph, tau=0.5, alpha=1.0, beta=1.0)
    shifted = ModelParams(graph.subjects[1:] + ["z"], params.tau, params.alpha, params.beta, 0.37)
    with pytest.raises(ValueError, match="multigraph's subjects"):
        e_step(graph, shifted)
    stats = e_step(graph, params)
    short = tuple(x[:-1] for x in stats)
    with pytest.raises(ValueError, match="one value per slot"):
        m_step(graph, short, params, Priors())
    with pytest.raises(ValueError, match="one value per slot"):
        update_gamma(graph, short[2], 0.37)
    with pytest.raises(ValueError, match="one value per slot"):
        log_posterior(params, Priors(), graph, short)
    with pytest.raises(ValueError, match="unknown prior_grad_mode"):
        m_step(graph, stats, params, Priors(), "paper")


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("tau", NAN, "tau must lie"),
        ("alpha", NAN, "alpha and beta"),
        ("beta", NAN, "alpha and beta"),
        ("alpha", INF, "alpha and beta"),
        ("beta", INF, "alpha and beta"),
    ],
)
def test_steps_reject_non_finite_params(field, value, message):
    graph = random_graph(np.random.default_rng(3), m=4, n=3, r_lo=2, r_hi=4)
    params = params_for(graph, tau=0.5, alpha=1.0, beta=1.0)
    stats = e_step(graph, params)
    getattr(params, field)[1] = value
    with pytest.raises(ValueError, match=message):
        e_step(graph, params)
    with pytest.raises(ValueError, match=message):
        m_step(graph, stats, params, Priors())
    with pytest.raises(ValueError, match=message):
        log_posterior(params, Priors(), graph, stats)


@pytest.mark.parametrize(
    "priors, message",
    [
        (Priors(tau0=NAN), "tau0 must lie"),
        (Priors(s0=NAN), "s0 must be"),
        (Priors(s0=INF), "s0 must be"),
        (Priors(s0=-INF), "s0 must be"),
    ],
)
def test_steps_reject_non_finite_priors(priors, message):
    graph = random_graph(np.random.default_rng(3), m=4, n=3, r_lo=2, r_hi=4)
    params = params_for(graph, tau=0.5, alpha=1.0, beta=1.0)
    stats = e_step(graph, params)
    with pytest.raises(ValueError, match=message):
        m_step(graph, stats, params, priors)
    with pytest.raises(ValueError, match=message):
        log_posterior(params, priors, graph, stats)


@pytest.mark.parametrize("include_self", [False, True])
def test_estep_kernel_matches_scalar_oracles(include_self):
    # alpha~ - alpha = omega, beta~ - beta = psi - omega (weights tau), and
    # tau~ is the gate posterior of the odds ratio at the tilde statistics.
    rng = np.random.default_rng(42)
    for _ in range(100):
        r = int(rng.integers(1, 7))
        graph = random_graph(rng, m=r, n=1, r_lo=r, r_hi=r)
        task = graph.tasks[0]
        params = random_params(rng, graph)
        sidx = [params.position[s] for s in task.subjects]
        t, a, b = (x[sidx] for x in (params.tau, params.alpha, params.beta))
        a_t, b_t, tau_t = e_step(graph, params, include_self)
        weights = dict(zip(task.subjects, t))
        alpha_t = dict(zip(task.subjects, a_t))
        beta_t = dict(zip(task.subjects, b_t))
        for i, s in enumerate(task.subjects):
            omega, psi, _, _ = oracle_task_sums(task, weights, s, include_self)
            ratio = oracle_r_approx(task, s, alpha_t, beta_t, params.gamma)
            rebuilt = ratio * t[i] / (ratio * t[i] + 1.0 - t[i])
            np.testing.assert_allclose(
                [a_t[i] - a[i], b_t[i] - b[i], tau_t[i]],
                [omega, psi - omega, rebuilt],
                rtol=1e-12,
                atol=0,
            )


def test_e_step_tilde_dominates_parameters():
    rng = np.random.default_rng(41)
    graph = random_graph(rng, m=6, n=4, r_lo=3, r_hi=6)
    params = random_params(rng, graph)
    a_t, b_t, t_t = e_step(graph, params)
    assert np.all(a_t >= params.alpha[graph.flat_sidx])
    assert np.all(b_t >= params.beta[graph.flat_sidx])
    assert np.all((t_t >= 0) & (t_t <= 1))


# ---------------------------------------------------------------------------
# m_step
# ---------------------------------------------------------------------------


def _one_subject(alpha_tilde, beta_tilde, tau_tilde):
    """A graph in which subject 's' alone rates one task per given
    statistic, those flat statistics, and start parameters alpha = beta = 1."""
    tasks = [make_task(f"t{k:03d}", ["s"], {}) for k in range(len(alpha_tilde))]
    graph = AgreementMultigraph.from_tasks(tasks)
    stats = tuple(np.array(x, dtype=float) for x in (alpha_tilde, beta_tilde, tau_tilde))
    return graph, stats, params_for(graph, tau=1.0, alpha=1.0, beta=1.0)


def test_m_step_tau_forced_by_update_rule():
    graph, stats, params = _one_subject([2.0] * 4, [2.0] * 4, [1.0] * 4)
    tau = m_step(graph, stats, params, Priors(tau0=0.5, s0=1.0))[0]
    assert tau[0] == (0.5 + 4.0) / 5.0


def _random_stats(rng, d):
    draws = [
        (rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0), rng.uniform(0.0, 1.0)) for _ in range(d)
    ]
    return _one_subject(*zip(*draws))


@pytest.mark.parametrize("mode", ["gamma-map", "paper-literal"])
def test_m_step_stationarity_and_independent_root(mode):
    rng = np.random.default_rng(50)
    for _ in range(40):
        d = int(rng.integers(1, 9))
        graph, stats, params = _random_stats(rng, d)
        priors = Priors(tau0=0.5, s0=float(rng.uniform(0.5, 3.0)))
        _tau, a, b, _fb = m_step(graph, stats, params, priors, mode)
        a, b = float(a[0]), float(b[0])
        stats_ab = list(zip(stats[0].tolist(), stats[1].tolist()))
        f_a, f_b = oracle_mstep_residual(a, b, d, stats_ab, priors.tau0, priors.s0, mode)
        assert max(abs(f_a), abs(f_b)) <= 1e-8

        # independent root finder on the same system, in log space for positivity
        def system(u):
            return oracle_mstep_residual(
                math.exp(u[0]), math.exp(u[1]), d, stats_ab, priors.tau0, priors.s0, mode
            )

        sol = None
        for x0 in ([0.0, 0.0], [1.0, 1.0], [-1.0, -1.0], [2.0, 0.0], [0.0, 2.0]):
            cand = root(system, x0=x0, method="hybr", tol=1e-12)
            if cand.success:
                sol = cand
                break
        assert sol is not None, "independent root finder failed from all starts"
        ref_a, ref_b = math.exp(sol.x[0]), math.exp(sol.x[1])
        assert a == pytest.approx(ref_a, abs=1e-6, rel=1e-6)
        assert b == pytest.approx(ref_b, abs=1e-6, rel=1e-6)


def test_bisection_fallback_agrees_with_newton():
    rng = np.random.default_rng(51)
    for _ in range(10):
        d = int(rng.integers(1, 6))
        graph, stats, params = _random_stats(rng, d)
        priors = Priors(tau0=0.5, s0=1.5)
        _, a, b, _ = m_step(graph, stats, params, priors)
        a_t, b_t = stats[0], stats[1]
        s_a = sum(float(digamma(at) - digamma(at + bt)) for at, bt in zip(a_t, b_t))
        s_b = sum(float(digamma(bt) - digamma(at + bt)) for at, bt in zip(a_t, b_t))
        ba, bb = _bisect_ab(d, s_a, s_b, priors.s0, "gamma-map")
        assert ba == pytest.approx(a[0], abs=1e-5, rel=1e-5)
        assert bb == pytest.approx(b[0], abs=1e-5, rel=1e-5)


def test_m_step_projection_floor():
    # extreme disagreement statistics push alpha toward zero; floor holds
    graph, stats, params = _one_subject([1e-5], [50.0], [0.1])
    _, a, b, _ = m_step(graph, stats, params, Priors(tau0=0.5, s0=1.0))
    assert a[0] >= EPS_POS and b[0] >= EPS_POS


# ---------------------------------------------------------------------------
# update_gamma
# ---------------------------------------------------------------------------


def test_update_gamma_collapses_to_pair_fraction():
    rng = np.random.default_rng(60)
    # sparse agreement so the plain fraction sits inside the clamp range
    tasks = []
    for k in range(5):
        subs = [f"s{i}" for i in range(4)]
        edges = (rng.random((4, 4)) < 0.3).astype(np.uint8)
        np.fill_diagonal(edges, 0)
        tasks.append(TaskGraph(task_id=f"t{k}", subjects=subs, edges=edges))
    graph = AgreementMultigraph.from_tasks(tasks)
    agree_pairs = sum(int(t.edges.sum()) for t in graph.tasks)
    all_pairs = sum(t.n_raters * (t.n_raters - 1) for t in graph.tasks)
    tau_tilde = np.zeros(graph.offsets[-1])
    assert update_gamma(graph, tau_tilde, previous=0.25) == agree_pairs / all_pairs


def test_update_gamma_degenerate_keeps_previous():
    graph = random_graph(np.random.default_rng(61), m=5, n=3, r_lo=3, r_hi=4)
    assert update_gamma(graph, np.ones(graph.offsets[-1]), previous=0.321) == 0.321


def test_update_gamma_mixed_hand_ratio():
    t1 = make_task("t1", ["a", "b"], {("a", "b"): 1, ("b", "a"): 0})
    t2 = make_task("t2", ["a", "c"], {("a", "c"): 0, ("c", "a"): 0})
    graph = AgreementMultigraph.from_tasks([t1, t2])
    tau_by_task = {"t1": {"a": 0.5, "b": 0.25}, "t2": {"a": 0.1, "c": 0.9}}
    tau_tilde = [tau_by_task[task.task_id][s] for task in graph.tasks for s in task.subjects]
    # hand sums over ordered pairs, weights 1 - tau~ of the target rater:
    # num = (1-.25)*1 + (1-.5)*0 + (1-.9)*0 + (1-.1)*0, den = sum of weights
    num = 0.75
    den = 0.75 + 0.5 + 0.1 + 0.9
    assert update_gamma(graph, tau_tilde, previous=0.2) == pytest.approx(num / den, abs=0)


def test_update_gamma_clamped():
    t1 = make_task("t1", ["a", "b"], {("a", "b"): 1, ("b", "a"): 1})
    graph = AgreementMultigraph.from_tasks([t1])
    assert update_gamma(graph, np.zeros(2), previous=0.2) == 0.49


# ---------------------------------------------------------------------------
# log_posterior
# ---------------------------------------------------------------------------


def test_log_posterior_finite_on_toy():
    graph = random_graph(np.random.default_rng(70), m=2, n=1, r_lo=2, r_hi=2)
    params = params_for(graph, tau=0.6, alpha=1.5, beta=2.5)
    val = log_posterior(params, Priors(0.5, 1.0), graph, e_step(graph, params))
    assert math.isfinite(val)


def test_log_posterior_matches_hand_expansion():
    task = make_task("t", ["x", "y"], {("x", "y"): 1, ("y", "x"): 0})
    graph = AgreementMultigraph.from_tasks([task])
    params = ModelParams(
        subjects=["x", "y"],
        tau=np.array([0.6, 0.3]),
        alpha=np.array([2.0, 1.2]),
        beta=np.array([1.5, 3.0]),
        gamma=0.35,
    )
    priors = Priors(tau0=0.45, s0=1.7)
    stats = e_step(graph, params)
    ax, ay = stats[0]
    bx, by = stats[1]
    tx, ty = stats[2]
    ln, dg = math.log, digamma

    lam = lambda a, b: (dg(a) - dg(a + b), dg(b) - dg(a + b))
    lax, lbx = lam(ax, bx)
    lay, lby = lam(ay, by)
    expected = 0.0
    # gate terms
    expected += tx * ln(0.6) + (1 - tx) * ln(0.4)
    expected += ty * ln(0.3) + (1 - ty) * ln(0.7)
    # agreement-rate terms: x agrees with y (I_xy = 1), y disagrees (I_yx = 0)
    om_x, psi_x = ty * 1, ty
    om_y, psi_y = tx * 0, tx
    expected += (2.0 - 1 + om_x) * lax + (1.5 - 1 + psi_x - om_x) * lbx - betaln(2.0, 1.5)
    expected += (1.2 - 1 + om_y) * lay + (3.0 - 1 + psi_y - om_y) * lby - betaln(1.2, 3.0)
    # chance terms
    om_bar = (1 - ty) * 1 + (1 - tx) * 0
    psi_bar = (1 - ty) + (1 - tx)
    expected += ln(0.35) * om_bar + ln(0.65) * (psi_bar - om_bar)
    # priors (pseudo-count form) on tau and on alpha+beta
    expected += 0.45 * ln(0.6) + 0.55 * ln(0.4) + 0.45 * ln(0.3) + 0.55 * ln(0.7)
    expected += ln(3.5) - 3.5 / 1.7 + ln(4.2) - 4.2 / 1.7
    # entropies of the factorized posterior
    for t in (tx, ty):
        expected -= t * ln(t) + (1 - t) * ln(1 - t)
    for a, b in ((ax, bx), (ay, by)):
        expected += betaln(a, b) - (a - 1) * dg(a) - (b - 1) * dg(b) + (a + b - 2) * dg(a + b)

    got = log_posterior(params, priors, graph, stats)
    assert got == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def small_sampled_graph(seed=0, m=24, n=120, spammers=2):
    params = make_true_params(m, spammer_count=spammers, gamma=0.37)
    spec = GenerativeSpec(m=m, n=n, raters_per_task=4, true_params=params, seed=seed)
    return sample_multigraph(spec)


def test_fit_is_deterministic():
    graph, _ = small_sampled_graph()
    r1 = fit(graph, FAST)
    r2 = fit(graph, FAST)
    assert np.array_equal(r1.params.tau, r2.params.tau)
    assert np.array_equal(r1.params.alpha, r2.params.alpha)
    assert np.array_equal(r1.params.beta, r2.params.beta)
    assert r1.loglik_trace == r2.loglik_trace
    assert r1.iterations == r2.iterations


def test_fit_lone_disagreer_ranks_low():
    graph, truth = small_sampled_graph(seed=3, m=30, n=200, spammers=1)
    report = fit(graph, FAST)
    pos = {s: i for i, s in enumerate(truth.subjects)}
    spammer = truth.subjects[0]
    tau_hat = report.params.tau
    spam_tau = tau_hat[report.params.position[spammer]]
    assert spam_tau < np.median(tau_hat)


def test_fit_tau_stays_in_update_bounds():
    graph, _ = small_sampled_graph(seed=5)
    report = fit(graph, FAST)
    tau0 = report.priors.tau0
    degree = graph.degree
    lo = tau0 / (degree + 1.0)
    hi = (tau0 + degree) / (degree + 1.0)
    assert np.all(report.params.tau >= lo - 1e-12)
    assert np.all(report.params.tau <= hi + 1e-12)


def test_fit_reports_the_priors_of_its_last_round():
    graph, _ = small_sampled_graph(seed=5)
    report = fit(graph, dataclasses.replace(FAST, eb_max_rounds=1))
    assert (report.priors.tau0, report.priors.s0) == (0.5, 1.0)


def test_fit_trace_monotone_within_rounds():
    graph, _ = small_sampled_graph(seed=6)
    report = fit(graph, FAST)
    tr = np.array(report.loglik_trace)
    assert len(tr) == report.iterations
    bounds = report.round_starts + [len(tr)]
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b - a > 1:
            assert np.diff(tr[a:b]).min() >= -1e-9


def _assert_same_fit(traced, untraced):
    for name in ("tau", "alpha", "beta"):
        assert np.array_equal(getattr(traced.params, name), getattr(untraced.params, name))
    assert traced.params.gamma == untraced.params.gamma
    assert traced.priors == untraced.priors
    assert traced.iterations == untraced.iterations
    assert traced.converged == untraced.converged
    assert traced.round_starts == untraced.round_starts
    assert traced.fallback_subjects == untraced.fallback_subjects
    assert traced.gamma_kept_count == untraced.gamma_kept_count
    assert len(traced.loglik_trace) == traced.iterations
    assert untraced.loglik_trace == []


def test_fit_without_trace_is_bit_identical():
    graph, _ = small_sampled_graph(seed=7)
    config = FitConfig(gamma=0.37, update_gamma=True, max_iter=40, eb_max_rounds=2)
    traced = fit(graph, config)
    assert len(traced.round_starts) == 2
    _assert_same_fit(traced, fit(graph, dataclasses.replace(config, trace=False)))


def test_fit_grid_without_trace_is_bit_identical():
    graph, _ = small_sampled_graph(m=14, n=50)
    config = FitConfig(gamma=[0.3, 0.37, 0.45], max_iter=60, eb_max_rounds=2, tol=1e-4)
    traced = fit_grid(graph, config)
    untraced = fit_grid(graph, dataclasses.replace(config, trace=False))
    assert len(traced) == len(untraced) == 3
    for t, u in zip(traced, untraced):
        _assert_same_fit(t, u)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("tol", math.nan, "tol must be a finite number > 0"),
        ("tol", math.inf, "tol must be a finite number > 0"),
        ("tol", 0.0, "tol must be a finite number > 0"),
        ("eb_tol", math.nan, "eb_tol must be a finite number >= 0"),
        ("eb_tol", math.inf, "eb_tol must be a finite number >= 0"),
        ("eb_tol", -1.0, "eb_tol must be a finite number >= 0"),
    ],
)
def test_fit_config_rejects_bad_tolerances(field, value, message):
    with pytest.raises(ValueError, match=message):
        FitConfig(**{field: value})


@pytest.mark.parametrize(
    "gamma, message",
    [
        (0.5, "got 0.5"),
        (0.0, "got 0.0"),
        (math.nan, "got nan"),
        (math.inf, "got inf"),
        ([0.3, math.nan], "got nan"),
        ([0.3, 0.6], "got 0.6"),
        ((), "gamma grid is empty"),
        ([], "gamma grid is empty"),
    ],
)
def test_fit_config_rejects_bad_gamma(gamma, message):
    with pytest.raises(ValueError, match=message):
        FitConfig(gamma=gamma)


def test_fit_config_cannot_be_changed_after_its_checks():
    with pytest.raises(dataclasses.FrozenInstanceError):
        FitConfig().gamma = 0.9


def test_fit_config_allows_zero_eb_tol():
    graph, _ = small_sampled_graph(m=10, n=30)
    report = fit(graph, FitConfig(eb_tol=0.0, max_iter=5, eb_max_rounds=3))
    assert len(report.round_starts) == 3


def test_fit_grid_reports_every_gamma():
    graph, _ = small_sampled_graph(m=14, n=50)
    grid = gamma_grid(0.3, 0.48, 10)
    assert grid[0] == 0.3 and grid[-1] == 0.48 and len(grid) == 10
    config = FitConfig(gamma=grid[:3], max_iter=60, eb_max_rounds=2, tol=1e-4)
    reports = fit_grid(graph, config)
    assert [r.params.gamma for r in reports] == grid[:3]
    for r in reports:
        assert r.params.subjects == graph.subjects


def test_fit_beta_mean_ordering_two_groups():
    m = 30
    subjects = [f"s{i:04d}" for i in range(m)]
    alpha = np.where(np.arange(m) < 15, 4.0, 1.0)
    beta = np.where(np.arange(m) < 15, 1.0, 4.0)
    truth = ModelParams(
        subjects=subjects, tau=np.ones(m), alpha=alpha, beta=beta, gamma=0.37
    )
    spec = GenerativeSpec(m=m, n=400, raters_per_task=4, true_params=truth, seed=9)
    graph, _ = sample_multigraph(spec)
    report = fit(graph, FAST)
    mean_of = lambda ids: np.mean(
        [
            report.params.alpha[report.params.position[s]]
            / (
                report.params.alpha[report.params.position[s]]
                + report.params.beta[report.params.position[s]]
            )
            for s in ids
            if s in report.params.position
        ]
    )
    high = mean_of(subjects[:15])
    low = mean_of(subjects[15:])
    assert high > low


def test_fit_rejects_gamma_grid_in_config():
    graph, _ = small_sampled_graph(m=10, n=20)
    with pytest.raises(ValueError, match="grid"):
        fit(graph, FitConfig(gamma=[0.3, 0.4]))


def test_fit_paper_literal_mode_converges():
    graph, _ = small_sampled_graph(m=16, n=80)
    config = FitConfig(
        gamma=0.37, prior_grad_mode="paper-literal", max_iter=150, eb_max_rounds=2, tol=1e-5
    )
    report = fit(graph, config)
    assert report.converged
    assert np.all(np.isfinite(report.params.tau))


def test_fit_literal_psi_mode_runs():
    graph, _ = small_sampled_graph(m=16, n=80)
    config = FitConfig(gamma=0.37, psi_includes_self=True, max_iter=150, eb_max_rounds=2, tol=1e-5)
    report = fit(graph, config)
    assert np.all(report.params.tau <= 1.0)


# ---------------------------------------------------------------------------
# exactness of the tau and gamma updates against brute-force oracles
# ---------------------------------------------------------------------------


def test_tau_update_exact_against_brute_force():
    rng = np.random.default_rng(90)
    for trial in range(20):
        graph = random_graph(rng, m=int(rng.integers(4, 9)), n=int(rng.integers(2, 7)))
        config = FitConfig(gamma=0.37, max_iter=1, eb_max_rounds=1)
        report = fit(graph, config)
        # oracle: stats from the public E-step at the initial parameters,
        # then plain task-order accumulation
        init = params_for(graph, tau=1.0, alpha=1.0, beta=1.0)
        tau_tilde = e_step(graph, init)[2]
        acc = dict.fromkeys(graph.subjects, 0.0)
        count = dict.fromkeys(graph.subjects, 0)
        for t_i, task in enumerate(graph.tasks):
            for pos, s in enumerate(task.subjects):
                acc[s] += float(tau_tilde[graph.offsets[t_i] + pos])
                count[s] += 1
        for i, s in enumerate(graph.subjects):
            expected = (0.5 + acc[s]) / (count[s] + 1.0)
            assert report.params.tau[i] == expected


def test_gamma_update_exact_against_brute_force():
    rng = np.random.default_rng(91)
    for trial in range(20):
        graph = random_graph(rng, m=int(rng.integers(4, 9)), n=int(rng.integers(2, 7)))
        config = FitConfig(gamma=0.37, update_gamma=True, max_iter=1, eb_max_rounds=1)
        report = fit(graph, config)
        init = params_for(graph, tau=1.0, alpha=1.0, beta=1.0)
        tau_tilde = e_step(graph, init)[2]
        num = 0.0
        den = 0.0
        for t_i, task in enumerate(graph.tasks):
            r = task.n_raters
            for i in range(r):
                for j in range(r):
                    if i == j:
                        continue
                    w = 1.0 - float(tau_tilde[graph.offsets[t_i] + j])
                    num += w * float(task.edges[i, j])
                    den += w
        if den <= 0.0:
            expected = 0.37
        else:
            expected = float(np.clip(num / den, 0.01, 0.49))
        assert report.params.gamma == expected


@pytest.mark.parametrize("include_self", [False, True])
def test_gamma_sums_bit_identical_to_loop(include_self):
    rng = np.random.default_rng(92)
    interleaved = 0
    for trial in range(20):
        graph = random_graph(rng, m=10, n=int(rng.integers(5, 15)), r_lo=2, r_hi=6)
        sizes = [t.n_raters for t in graph.tasks]
        interleaved += sizes != sorted(sizes)
        t_t = np.concatenate([rng.uniform(0.0, 1.0, size=t.n_raters) for t in graph.tasks])
        sums = _gamma_sums(_pair_layout(graph, include_self), t_t)
        assert sums == oracle_gamma_ratio(graph, t_t, include_self)
    # size groups must interleave in task order for the layout's sort to matter
    assert interleaved > 10
    # a lone rater has no neighbour pair, only (with include_self) a self pair
    lone = AgreementMultigraph.from_tasks([make_task("t", ["a"], {})])
    t_t = np.array([0.25])
    sums = _gamma_sums(_pair_layout(lone, include_self), t_t)
    assert sums == oracle_gamma_ratio(lone, t_t, include_self)


def test_gamma_second_iteration_exact_against_oracle():
    # After one iteration from tau = 1 every tau~ is 1 and the update keeps
    # gamma; the second iteration is the first with a nonzero denominator.
    rng = np.random.default_rng(93)
    for trial in range(20):
        graph = random_graph(rng, m=int(rng.integers(4, 9)), n=int(rng.integers(2, 7)))
        config = FitConfig(gamma=0.37, update_gamma=True, max_iter=1, eb_max_rounds=1)
        r1 = fit(graph, config)
        r2 = fit(graph, dataclasses.replace(config, max_iter=2))
        num, den = oracle_gamma_ratio(graph, e_step(graph, r1.params)[2], False)
        assert den > 0.0
        assert r2.params.gamma == float(np.clip(num / den, 0.01, 0.49))


@pytest.mark.parametrize("update", [False, True])
@pytest.mark.parametrize("include_self", [False, True])
def test_fit_is_the_public_steps_composed(update, include_self):
    rng = np.random.default_rng(94)
    priors = Priors(0.5, 1.0)
    for trial in range(10):
        graph = random_graph(rng, m=int(rng.integers(4, 9)), n=int(rng.integers(2, 7)))
        config = FitConfig(
            gamma=0.37,
            update_gamma=update,
            psi_includes_self=include_self,
            max_iter=1,
            eb_max_rounds=1,
        )
        report = fit(graph, config)
        init = params_for(graph, tau=1.0, alpha=1.0, beta=1.0)
        stats = e_step(graph, init, include_self)
        tau, alpha, beta, _ = m_step(graph, stats, init, priors)
        assert np.array_equal(report.params.tau, tau)
        assert np.array_equal(report.params.alpha, alpha)
        assert np.array_equal(report.params.beta, beta)
        assert report.loglik_trace[0] == log_posterior(
            report.params, priors, graph, stats, include_self
        )

        second = fit(graph, dataclasses.replace(config, max_iter=2))
        tau_tilde = e_step(graph, report.params, include_self)[2]
        expected = update_gamma(graph, tau_tilde, report.params.gamma, include_self)
        assert second.params.gamma == (expected if update else 0.37)


def test_update_gamma_fit_counts_kept_update_without_warning(caplog):
    graph, _ = small_sampled_graph(seed=7)
    config = FitConfig(gamma=0.37, update_gamma=True, max_iter=20, eb_max_rounds=2)
    with caplog.at_level(logging.WARNING):
        report = fit(graph, config)
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
    assert report.gamma_kept_count >= 1
