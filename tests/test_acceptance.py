"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line.  Statistical criteria run on seeded synthetic data; the
oracles here are independent reimplementations (plain loops, scipy root
finding, direct products) of the quantities they check."""

import filecmp
import math
import os

import numpy as np
import pytest
from scipy.optimize import root
from scipy.stats import rankdata, spearmanr

from glba.baselines import categorize_table, dawid_skene_fit, dawid_skene_rank
from glba.cli import main as cli_main
from glba.ingest import TaskGraph, build_multigraph
from glba.model import (
    FitConfig,
    ModelParams,
    Priors,
    e_step,
    fit,
    fit_grid,
    m_step,
)
from glba.scoring import image_scores, precision_recall, rank_subjects
from glba.simulate import (
    GenerativeSpec,
    InjectionSpec,
    inject_spammers,
    make_true_params,
    sample_multigraph,
    sample_response_table,
)
from glba.textio import write_responses
from helpers import (
    graph_from_tasks,
    oracle_estep,
    oracle_mstep_residual,
    random_graph,
    random_params,
    table_from_rows,
)

def _report(name, ok, detail=""):
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Image confidence arithmetic
# ---------------------------------------------------------------------------


def test_image_confidence_arithmetic():
    taus = [0.08, 0.56, 0.34, 0.04]
    table = table_from_rows(
        [(f"s{i}", "img", {"valence": 5.0}) for i in range(4)]
    )
    params = ModelParams(
        subjects=[f"s{i}" for i in range(4)],
        tau=np.array(taus),
        alpha=np.ones(4),
        beta=np.ones(4),
        gamma=0.37,
    )
    (rep,) = image_scores(table, "valence", params)
    ok = abs(rep.confidence - 0.7435) <= 1e-4
    _report(
        "image-confidence-arithmetic",
        ok,
        f"confidence={rep.confidence:.6f}, expected 0.7435 +/- 1e-4 (prints as 75%)",
    )


# ---------------------------------------------------------------------------
# 2. E-step closed forms vs brute force
# ---------------------------------------------------------------------------


def test_e_step_closed_forms():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        r = int(rng.integers(2, 7))
        graph = random_graph(rng, m=r, n=1, r_lo=r, r_hi=r)
        task = graph.tasks[0]
        params = random_params(rng, graph)
        stats = e_step(graph, params)
        oa, ob, ot = oracle_estep(task, params)
        for got, want in zip(stats, (oa, ob, ot)):
            rel = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300))
            worst = max(worst, float(rel))
    ok = worst <= 1e-10
    _report("e-step-closed-forms", ok, f"worst relative error {worst:.2e} over 200 tasks")


# ---------------------------------------------------------------------------
# 3. M-step stationarity and independent root finder
# ---------------------------------------------------------------------------


def test_m_step_stationarity():
    rng = np.random.default_rng(77)
    worst_resid = 0.0
    worst_gap = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 10))
        stats_ab = [
            (float(rng.uniform(0.5, 8.0)), float(rng.uniform(0.5, 8.0))) for _ in range(d)
        ]
        tau_tilde = [rng.uniform(0, 1) for _ in stats_ab]
        # subject 's' alone rates one task per statistic
        one = np.zeros((1, 1), dtype=np.uint8)
        graph = graph_from_tasks([TaskGraph(f"t{k:03d}", ["s"], one) for k in range(d)])
        stats = (*(np.array(x) for x in zip(*stats_ab)), np.array(tau_tilde))
        start = ModelParams(["s"], np.ones(1), np.ones(1), np.ones(1), gamma=0.37)
        priors = Priors(tau0=0.5, s0=float(rng.uniform(0.5, 3.0)))
        _, a, b, _ = m_step(graph, stats, start, priors)
        a, b = float(a[0]), float(b[0])
        f_a, f_b = oracle_mstep_residual(a, b, d, stats_ab, priors.tau0, priors.s0)
        worst_resid = max(worst_resid, abs(f_a), abs(f_b))

        def system(u):
            return oracle_mstep_residual(
                math.exp(u[0]), math.exp(u[1]), d, stats_ab, priors.tau0, priors.s0
            )

        sol = None
        for x0 in ([0.0, 0.0], [1.0, 1.0], [-1.0, -1.0], [2.0, 0.0]):
            cand = root(system, x0=x0, method="hybr", tol=1e-12)
            if cand.success:
                sol = cand
                break
        assert sol is not None
        worst_gap = max(
            worst_gap, abs(a - math.exp(sol.x[0])), abs(b - math.exp(sol.x[1]))
        )
    ok = worst_resid <= 1e-8 and worst_gap <= 1e-6
    _report(
        "m-step-stationarity",
        ok,
        f"worst residual {worst_resid:.2e} (<=1e-8), worst gap to root finder {worst_gap:.2e} (<=1e-6)",
    )


# ---------------------------------------------------------------------------
# 4. Exactness of the tau and gamma updates
# ---------------------------------------------------------------------------


def test_tau_and_gamma_update_exactness():
    # gamma is compared after the second iteration: after the first, from
    # tau = 1, every tau~ is 1, the denominator is 0 and gamma is kept.
    rng = np.random.default_rng(1234)
    tau_exact = True
    gamma_exact = True
    positive_den = 0
    for trial in range(50):
        graph = random_graph(rng, m=int(rng.integers(4, 9)), n=int(rng.integers(2, 7)))
        config = FitConfig(gamma=0.37, update_gamma=True, max_iter=1, eb_max_rounds=1)
        report = fit(graph, config)
        second = fit(graph, FitConfig(gamma=0.37, update_gamma=True, max_iter=2, eb_max_rounds=1))
        init = ModelParams(
            subjects=graph.subjects,
            tau=np.ones(graph.m),
            alpha=np.ones(graph.m),
            beta=np.ones(graph.m),
            gamma=0.37,
        )
        offsets = graph.offsets
        tau_tilde = e_step(graph, init)[2]
        acc = dict.fromkeys(graph.subjects, 0.0)
        count = dict.fromkeys(graph.subjects, 0)
        for t_i, task in enumerate(graph.tasks):
            for pos, s in enumerate(task.subjects):
                acc[s] += float(tau_tilde[offsets[t_i] + pos])
                count[s] += 1
        for i, s in enumerate(graph.subjects):
            if report.params.tau[i] != (0.5 + acc[s]) / (count[s] + 1.0):
                tau_exact = False
        num = 0.0
        den = 0.0
        tau_tilde = e_step(graph, report.params)[2]
        for t_i, task in enumerate(graph.tasks):
            r = task.n_raters
            for i in range(r):
                for j in range(r):
                    if i != j:
                        w = 1.0 - float(tau_tilde[offsets[t_i] + j])
                        num += w * float(task.edges[i, j])
                        den += w
        positive_den += den > 0
        expected_gamma = 0.37 if den <= 0 else float(np.clip(num / den, 0.01, 0.49))
        if second.params.gamma != expected_gamma:
            gamma_exact = False
    ok = tau_exact and gamma_exact and positive_den == 50
    _report(
        "tau-gamma-update-exactness",
        ok,
        f"tau exact: {tau_exact}, gamma exact at iteration 2: {gamma_exact}, "
        f"den > 0 on {positive_den}/50 (50 toy graphs, bit-level)",
    )


# ---------------------------------------------------------------------------
# 5. Generative recovery
# ---------------------------------------------------------------------------

RECOVERY_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def recovery_runs():
    runs = []
    for seed in RECOVERY_SEEDS:
        truth = make_true_params(
            200, spammer_count=20, tau_reliable=0.9, agree_mean=0.7, strength=5.0, gamma=0.37
        )
        spec = GenerativeSpec(m=200, n=2000, raters_per_task=5, true_params=truth, seed=seed)
        graph, _ = sample_multigraph(spec)
        report = fit(graph, FitConfig(gamma=0.37))
        runs.append((seed, graph, truth, report))
    return runs


def _spearman_ceiling(truth):
    """Largest mid-rank Spearman that an estimate without ties can reach
    against `truth`: its value for a strict ranking of `truth` (breaking
    ties in any order gives the same value)."""
    return float(spearmanr(truth, rankdata(truth, method="ordinal")).statistic)


def test_generative_recovery(recovery_runs):
    # With 20/200 planted spammers and every other tau_true tied at 0.9, no
    # untied tau_hat reaches Spearman 0.8: the ceiling is
    # sqrt(3*0.1*0.9) * sqrt(n^2/(n^2-1)) ~= 0.5196.  Spearman relative to the
    # ceiling computed from tau_true equals 2*AUC - 1 for this two-level
    # truth, so the bound checks how well tau_hat separates the spammers.
    per_seed = []
    bottom_fracs = []
    for seed, graph, truth, report in recovery_runs:
        pos = {s: i for i, s in enumerate(truth.subjects)}
        tau_true = np.array([truth.tau[pos[s]] for s in graph.subjects])
        tau_hat = report.params.tau
        rho = float(spearmanr(tau_true, tau_hat).statistic)
        ceiling = _spearman_ceiling(tau_true)
        per_seed.append((seed, rho, ceiling, rho / ceiling))
        k = int(round(0.15 * graph.m))
        bottom = set(np.array(graph.subjects)[np.argsort(tau_hat)[:k]])
        planted = [s for s in graph.subjects if truth.tau[pos[s]] == 0.0]
        bottom_fracs.append(sum(s in bottom for s in planted) / len(planted))
    detail = (
        "spearman/ceiling=ratio per seed: "
        + ", ".join(
            f"seed {seed}: {rho:.4f}/{ceiling:.6f}={ratio:.4f}"
            for seed, rho, ceiling, ratio in per_seed
        )
        + f" (need ratio >=0.8); bottom-15% capture {['%.2f' % f for f in bottom_fracs]}"
        + " (need >=0.9)"
    )
    ok = all(ratio >= 0.8 for *_, ratio in per_seed) and all(f >= 0.9 for f in bottom_fracs)
    _report("generative-recovery", ok, detail)


# ---------------------------------------------------------------------------
# 6. Simulated-spammer histogram
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def histogram_runs():
    # Base corpus in the regime of the motivating study: 4-8 raters per
    # stimulus, individually consistent but mutually dispersed raters.
    base_table, _ = sample_response_table(
        120, 700, (4, 8), rating_sigma=1.0, bias_sigma=1.0, seed=555, dimensions=("valence",)
    )
    runs = []
    for run in range(10):
        spec = InjectionSpec(spammer_count=10, tasks_per_spammer=50, seed=run)
        mixed, spam_ids = inject_spammers(base_table, "valence", spec)
        graph = build_multigraph(mixed, "valence", delta=0.2, min_raters=4)
        runs.append((run, spam_ids, fit(graph, FitConfig(gamma=0.37))))
    return runs


def test_simulated_spammer_histogram(histogram_runs):
    injected_taus = []
    for _, spam_ids, report in histogram_runs:
        for s in spam_ids:
            if s in report.params.position:
                injected_taus.append(float(report.params.tau[report.params.position[s]]))
    taus = np.array(injected_taus)
    frac_low = float(np.mean(taus <= 0.2))
    frac_high = float(np.mean(taus >= 0.6))
    bins = [
        int(np.sum(taus <= 0.2)),
        int(np.sum((taus > 0.2) & (taus <= 0.4))),
        int(np.sum((taus > 0.4) & (taus <= 0.6))),
        int(np.sum((taus > 0.6) & (taus <= 0.8))),
        int(np.sum(taus > 0.8)),
    ]
    ok = frac_low >= 0.5 and frac_high == 0.0
    _report(
        "simulated-spammer-histogram",
        ok,
        f"bins {bins} over {len(taus)} injected spammers; "
        f"{frac_low:.0%} at tau<=0.2 (need >=50%), {frac_high:.0%} at tau>=0.6 (need 0%); "
        f"note: under the percentile rule at delta=0.2 a marginal-mimicking rating "
        f"lands inside a task's consensus window (and so looks serious there) on "
        f"about a third of tasks, which floors the estimated reliability near 1/3 "
        f"for any ratings-mediated base",
    )


# ---------------------------------------------------------------------------
# 7. Baseline separation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def baseline_table():
    m, spammers = 200, 20
    tau_true = np.full(m, 0.9)
    tau_true[:spammers] = 0.0
    return sample_response_table(
        m, 1200, 5, tau_true=tau_true, rating_sigma=1.0, seed=777, dimensions=("valence",)
    )


@pytest.fixture(scope="module")
def baseline_grid_fits(baseline_table):
    table, _ = baseline_table
    graph = build_multigraph(table, "valence", delta=0.2, min_raters=4)
    return fit_grid(graph, FitConfig(gamma=tuple(np.linspace(0.3, 0.48, 10))))


def test_baseline_separation(baseline_table, baseline_grid_fits):
    table, truth = baseline_table
    planted = {s for s, t in truth.items() if t == 0.0}
    k = len(truth) // 10  # bottom decile

    ranked = rank_subjects(baseline_grid_fits)
    glba_result = precision_recall(ranked, planted, top_k=(k,))
    glba_prec = glba_result.top_k[k]

    cat = categorize_table(table, "valence", threshold=0.5)
    ds_model = dawid_skene_fit(cat, max_iter=100, tol=1e-6)
    ds_ranked = dawid_skene_rank(ds_model)
    ds_top = [s for s, _ in ds_ranked[:k]]
    ds_prec = sum(s in planted for s in ds_top) / k

    ok = glba_prec >= ds_prec
    _report(
        "baseline-separation",
        ok,
        f"bottom-decile precision: agreement-model {glba_prec:.2f} vs dawid-skene {ds_prec:.2f}",
    )


# ---------------------------------------------------------------------------
# 8. Surrogate monotonicity on every acceptance fit
# ---------------------------------------------------------------------------


def test_surrogate_monotonicity(recovery_runs, histogram_runs, baseline_grid_fits):
    fits = (
        [(f"recovery-seed{seed}", report) for seed, _, _, report in recovery_runs]
        + [(f"histogram-run{run}", report) for run, _, report in histogram_runs]
        + [("baseline-grid", report) for report in baseline_grid_fits]
    )
    worst = 0.0
    worst_label = ""
    for label, report in fits:
        tr = np.array(report.loglik_trace)
        bounds = report.round_starts + [len(tr)]
        for a, b in zip(bounds[:-1], bounds[1:]):
            if b - a > 1:
                step = float(np.diff(tr[a:b]).min())
                if step < worst:
                    worst = step
                    worst_label = label
    ok = worst >= -1e-9
    detail = f"{len(fits)} fits checked; worst within-round step {worst:.2e}"
    if worst_label:
        detail += (
            f" ({worst_label}); note: the geometric-mean gate approximation makes "
            f"the EM map's fixed point slightly off the monitored objective's "
            f"optimum, so the final approach can descend by ~1e-6 on "
            f"ratings-derived graphs (model-sampled graphs stay monotone)"
        )
    _report("surrogate-monotonicity", ok, detail)


# ---------------------------------------------------------------------------
# 9. Pipeline determinism
# ---------------------------------------------------------------------------


def _run_pipeline(csv_path, out):
    steps = [
        ["build-graph", csv_path, "--out", out],
        ["fit", os.path.join(out, "graph.tsv"), "--gamma", "0.37", "--out", out],
        ["rank", os.path.join(out, "fit_0.37.tsv"), "--out", out],
        ["images", csv_path, os.path.join(out, "fit_0.37.tsv"), "--min-raters", "2", "--out", out],
        [
            "overhead",
            csv_path,
            os.path.join(out, "subjects.tsv"),
            "--mode",
            "subject-filter",
            "--out",
            out,
        ],
        ["baseline-ds", csv_path, "--out", out],
        ["baseline-time", csv_path, "--out", out],
        ["inject", csv_path, "--spammers", "2", "--tasks-per-spammer", "5", "--seed", "3", "--out", out],
    ]
    for step in steps:
        assert cli_main([str(x) for x in step]) == 0, step
    subjects = os.path.join(out, "subjects.tsv")
    with open(subjects) as fh:
        first = fh.read().splitlines()[1].split("\t")[1]
    annotated = os.path.join(out, "annotated.txt")
    with open(annotated, "w") as fh:
        fh.write(first + "\n")
    assert cli_main(["pr", subjects, annotated, "--top-k", "1,3", "--out", out]) == 0


def test_pipeline_determinism(tmp_path):
    table, _ = sample_response_table(14, 80, 4, seed=99, with_timing=True)
    csv_path = str(tmp_path / "ratings.csv")
    write_responses(table, csv_path)
    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    _run_pipeline(csv_path, out1)
    _run_pipeline(csv_path, out2)
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    diffs = [n for n in names if not filecmp.cmp(os.path.join(out1, n), os.path.join(out2, n), shallow=False)]
    ok = not diffs
    _report(
        "pipeline-determinism",
        ok,
        f"{len(names)} artifacts byte-compared" + (f"; differing: {diffs}" if diffs else ""),
    )
