import numpy as np
import pytest
from scipy.stats import chi2

from glba.model import ModelParams
from glba.simulate import (
    GenerativeSpec,
    InjectionSpec,
    inject_spammers,
    make_true_params,
    sample_multigraph,
    sample_response_table,
)
from helpers import oracle_pair_indicators, rated_rows


def graph_signature(graph):
    return [(t.task_id, tuple(t.subjects), oracle_pair_indicators(t)) for t in graph.tasks]


# ---------------------------------------------------------------------------
# sample_multigraph
# ---------------------------------------------------------------------------


def test_sample_deterministic_given_seed():
    params = make_true_params(20, spammer_count=3, gamma=0.3)
    spec = GenerativeSpec(m=20, n=50, raters_per_task=(3, 5), true_params=params, seed=123)
    g1, _ = sample_multigraph(spec)
    g2, _ = sample_multigraph(spec)
    assert graph_signature(g1) == graph_signature(g2)


def test_sample_different_seeds_differ():
    params = make_true_params(20, gamma=0.3)
    s1 = GenerativeSpec(m=20, n=50, raters_per_task=4, true_params=params, seed=1)
    s2 = GenerativeSpec(m=20, n=50, raters_per_task=4, true_params=params, seed=2)
    assert graph_signature(sample_multigraph(s1)[0]) != graph_signature(sample_multigraph(s2)[0])


def test_sample_all_unreliable_recovers_gamma():
    # every gate closed: each ordered pair agrees with probability gamma
    gamma = 0.3
    params = make_true_params(30, spammer_count=30, gamma=gamma)
    spec = GenerativeSpec(m=30, n=5000, raters_per_task=3, true_params=params, seed=7)
    graph, _ = sample_multigraph(spec)
    ones = sum(int(t.edges.sum()) for t in graph.tasks)
    total = sum(t.n_raters * (t.n_raters - 1) for t in graph.tasks)
    rate = ones / total
    se = (gamma * (1 - gamma) / total) ** 0.5
    assert abs(rate - gamma) <= 3 * se


def test_sample_degenerate_agreement_rate_near_one():
    m = 12
    params = ModelParams(
        subjects=[f"s{i:04d}" for i in range(m)],
        tau=np.ones(m),
        alpha=np.full(m, 5000.0),
        beta=np.full(m, 1e-3),
        gamma=0.37,
    )
    spec = GenerativeSpec(m=m, n=500, raters_per_task=4, true_params=params, seed=11)
    graph, _ = sample_multigraph(spec)
    ones = sum(int(t.edges.sum()) for t in graph.tasks)
    total = sum(t.n_raters * (t.n_raters - 1) for t in graph.tasks)
    assert ones / total > 0.99


def test_sample_reliable_pair_rate_matches_beta_mean():
    # both gates always open: agreement rate estimates alpha/(alpha+beta)
    m = 10
    mean = 0.7
    params = make_true_params(m, tau_reliable=1.0, agree_mean=mean, strength=5.0, gamma=0.37)
    spec = GenerativeSpec(m=m, n=4000, raters_per_task=3, true_params=params, seed=13)
    graph, _ = sample_multigraph(spec)
    ones = sum(int(t.edges.sum()) for t in graph.tasks)
    total = sum(t.n_raters * (t.n_raters - 1) for t in graph.tasks)
    rate = ones / total
    # J varies per (task, rater): variance of Bernoulli(J) with Beta J
    se = (mean * (1 - mean) / total) ** 0.5
    assert abs(rate - mean) <= 3 * se


def test_sample_reversed_rater_range():
    params = make_true_params(10, gamma=0.3)
    spec = GenerativeSpec(m=10, n=5, raters_per_task=(5, 3), true_params=params, seed=0)
    with pytest.raises(ValueError, match=r"raters_per_task range \(5, 3\) is reversed"):
        sample_multigraph(spec)


def test_sample_too_many_raters():
    params = make_true_params(3, gamma=0.3)
    spec = GenerativeSpec(m=3, n=5, raters_per_task=4, true_params=params, seed=0)
    with pytest.raises(ValueError, match="exceeds subject count"):
        sample_multigraph(spec)


# ---------------------------------------------------------------------------
# inject_spammers
# ---------------------------------------------------------------------------


def base_table(n_tasks=120, seed=5):
    table, _ = sample_response_table(20, n_tasks, 4, seed=seed)
    return table


def test_inject_counts_and_disjointness():
    table = base_table()
    spec = InjectionSpec(spammer_count=4, tasks_per_spammer=10, seed=9)
    new_table, ids = inject_spammers(table, "valence", spec)
    assert len(ids) == 4
    assert len(new_table.rows) == len(table.rows) + 40
    tasks_by_spammer = {
        s: {r.task_id for r in new_table.rows if r.subject_id == s} for s in ids
    }
    assert all(len(ts) == 10 for ts in tasks_by_spammer.values())
    seen = set()
    for ts in tasks_by_spammer.values():
        assert not (seen & ts)
        seen |= ts


def test_inject_deterministic():
    table = base_table()
    spec = InjectionSpec(spammer_count=3, tasks_per_spammer=5, seed=2)
    t1, ids1 = inject_spammers(table, "valence", spec)
    t2, ids2 = inject_spammers(table, "valence", spec)
    assert ids1 == ids2
    rows1 = [(r.subject_id, r.task_id, r.scores) for r in t1.rows]
    rows2 = [(r.subject_id, r.task_id, r.scores) for r in t2.rows]
    assert rows1 == rows2


def test_inject_not_enough_tasks():
    table = base_table(n_tasks=30)
    with pytest.raises(ValueError, match="distinct tasks"):
        inject_spammers(table, "valence", InjectionSpec(spammer_count=4, tasks_per_spammer=10))


def test_inject_matches_population_marginal():
    table = base_table(n_tasks=3000, seed=31)
    spec = InjectionSpec(spammer_count=10, tasks_per_spammer=250, seed=3)
    new_table, ids = inject_spammers(table, "valence", spec)
    injected = np.array(
        [r.scores["valence"] for r in new_table.rows if r.subject_id in set(ids)]
    )
    pool = np.array([r.scores["valence"] for r in rated_rows(table, "valence")])
    values = np.unique(pool)
    expected = np.array([(pool == v).mean() for v in values]) * injected.size
    observed = np.array([(injected == v).sum() for v in values])
    stat = float(((observed - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(0.99, df=len(values) - 1)


def test_inject_rows_carry_only_target_dimension():
    table = base_table()
    new_table, ids = inject_spammers(table, "valence", InjectionSpec(2, 5, seed=1))
    spam_rows = [r for r in new_table.rows if r.subject_id in set(ids)]
    assert all(set(r.scores) == {"valence"} for r in spam_rows)
    assert all(r.view_seconds is None for r in spam_rows)


# ---------------------------------------------------------------------------
# sample_response_table
# ---------------------------------------------------------------------------


def test_ratings_deterministic_and_in_scale():
    t1, truth1 = sample_response_table(15, 60, (3, 5), seed=21, dimensions=("valence", "likeness"))
    t2, _ = sample_response_table(15, 60, (3, 5), seed=21, dimensions=("valence", "likeness"))
    rows1 = [(r.subject_id, r.task_id, r.scores) for r in t1.rows]
    rows2 = [(r.subject_id, r.task_id, r.scores) for r in t2.rows]
    assert rows1 == rows2
    for r in t1.rows:
        assert 1.0 <= r.scores["valence"] <= 9.0
        assert 1.0 <= r.scores["likeness"] <= 7.0


def test_ratings_unreliable_subjects_spread_wider():
    tau = np.ones(30)
    tau[:10] = 0.0
    table, truth = sample_response_table(30, 400, 5, tau_true=tau, rating_sigma=0.5, seed=3)
    devs = {True: [], False: []}
    by_task = {}
    for r in table.rows:
        by_task.setdefault(r.task_id, []).append(r)
    for rows in by_task.values():
        center = np.median([r.scores["valence"] for r in rows])
        for r in rows:
            devs[truth[r.subject_id] == 0.0].append(abs(r.scores["valence"] - center))
    assert np.mean(devs[True]) > np.mean(devs[False])


@pytest.mark.parametrize(
    "raters, message",
    [
        ((5, 3), r"raters_per_task range \(5, 3\) is reversed"),
        (1, "raters_per_task must be at least 2"),
        ((2, 6), "raters_per_task 6 exceeds subject count 5"),
        (3.9, "raters_per_task must be an integer or an integer"),
        ((2, 3, 4), "raters_per_task must be an integer or an integer"),
    ],
)
def test_ratings_reject_bad_rater_range(raters, message):
    with pytest.raises(ValueError, match=message):
        sample_response_table(5, 10, raters)


def test_ratings_accept_numpy_rater_counts():
    want, _ = sample_response_table(6, 12, (3, 4), seed=5)
    got, _ = sample_response_table(6, 12, np.array([3, 4]), seed=5)
    assert got.rows == want.rows
    assert len(sample_response_table(6, 12, np.int64(3), seed=5)[0].rows) == 36


def test_ratings_timing_flags():
    table, _ = sample_response_table(8, 20, 3, seed=4, with_timing=True)
    assert all(r.view_seconds is not None and r.label_seconds is not None for r in table.rows)
    table2, _ = sample_response_table(8, 20, 3, seed=4, with_timing=False)
    assert all(r.view_seconds is None for r in table2.rows)
