import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from glba import simulate
from glba.ingest import DIMENSION_SCALES, ResponseTable, _codes, load_responses
from glba.model import ModelParams
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
    assert_codes_ids,
    oracle_inject_spammers,
    oracle_pair_indicators,
    oracle_sample_multigraph,
    oracle_sample_response_table,
    rated_rows,
)


def assert_same_tables(got, want):
    """Equal ids (as indexes and codes) and columns, compared exactly (NaN
    equal to NaN)."""
    assert (got.subject_index, got.task_index) == (want.subject_index, want.task_index)
    for a, b in ((got.subject_code, want.subject_code), (got.task_code, want.task_code)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert list(got.scores) == list(want.scores)
    columns = [(got.scores[d], want.scores[d]) for d in got.scores]
    columns += [(got.view_seconds, want.view_seconds), (got.label_seconds, want.label_seconds)]
    for a, b in columns:
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


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


@pytest.mark.parametrize("raters", [5, (4, 8), (2, 3), 2])
@pytest.mark.parametrize("seed", [0, 7, 20261017])
def test_sample_packs_the_record_loop_graph(raters, seed):
    params = make_true_params(12, spammer_count=3, gamma=0.3)
    spec = GenerativeSpec(m=12, n=40, raters_per_task=raters, true_params=params, seed=seed)
    got, got_params = sample_multigraph(spec)
    want, want_params = oracle_sample_multigraph(spec)
    assert got_params is want_params is params
    assert got.task_ids == want.task_ids and got.subjects == want.subjects
    for name in ("offsets", "flat_sidx", "degree"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert len(got.groups) == len(want.groups)
    for g, w in zip(got.groups, want.groups):
        for a, b in zip(g, w):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize(
    "m,spammers,match",
    [
        (5, -1, r"^spammer count must lie in 0\.\.5 \(the subject count\), got -1$"),
        (5, 6, r"^spammer count must lie in 0\.\.5 \(the subject count\), got 6$"),
        (0, 0, r"^subject count must be at least 1, got 0$"),
        (-3, 0, r"^subject count must be at least 1, got -3$"),
    ],
    ids=["spammers-negative", "spammers-above-m", "no-subjects", "negative-subjects"],
)
def test_true_params_reject_bad_counts(m, spammers, match):
    with pytest.raises(ValueError, match=match):
        make_true_params(m, spammer_count=spammers)


def test_true_params_allow_every_subject_a_spammer():
    assert make_true_params(4, spammer_count=4).tau.tolist() == [0.0] * 4
    assert make_true_params(4).tau.tolist() == [0.9] * 4


@pytest.mark.parametrize("n", [0, -5])
def test_sample_rejects_no_tasks(n):
    spec = GenerativeSpec(m=5, n=n, raters_per_task=2, true_params=make_true_params(5), seed=0)
    with pytest.raises(ValueError, match=f"^task count must be at least 1, got {n}$"):
        sample_multigraph(spec)


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


@pytest.mark.parametrize("spammers,tasks", [(10, 50), (3, 7), (1, 1)])
@pytest.mark.parametrize("seed", [0, 1, 5, 20261017])
def test_inject_matches_the_scalar_loop(spammers, tasks, seed):
    table = base_table(n_tasks=600, seed=seed)
    spec = InjectionSpec(spammers, tasks, seed=seed)
    got, got_ids = inject_spammers(table, "valence", spec)
    want, want_ids = oracle_inject_spammers(table, "valence", spec)
    assert got_ids == want_ids
    assert_same_tables(got, want)


@pytest.mark.parametrize("prefixes", [("s",), ("a", "spammer_0x", "t", "z"), ("spammer_01x", "spammer_")])
def test_inject_codes_match_recoding_the_ids(tmp_path, prefixes):
    # Each builder hands the table codes it holds; they must be `_codes` of
    # the table's per-row ids.  The sources: a sample_response_table (its
    # ids as the per-task loop draws them), one with its subjects renamed,
    # and that one written and loaded through the byte scan and (fully
    # quoted) through csv.reader (its ids as the csv module reads them).
    # Each source's injected table adds the spammer rows of the scalar loop,
    # wherever the spammer ids sort among the subject ids.
    args = dict(m=20, n=200, raters_per_task=4, seed=3)
    sampled = sample_response_table(**args)[0]
    drawn = oracle_sample_response_table(**args)[0].rows
    sids, tids = [r.subject_id for r in drawn], [r.task_id for r in drawn]
    renamed = {s: f"{prefixes[i % len(prefixes)]}{i}" for i, s in enumerate(sampled.subject_index)}
    named = [renamed[s] for s in sids]
    table = ResponseTable(*_codes(named), *_codes(tids), sampled.scores, sampled.view_seconds, sampled.label_seconds)
    sources = [(sampled, sids, tids), (table, named, tids)]
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
        path = tmp_path / f"ratings-{quoting}.csv"
        write_responses(table, path)
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
        with open(path, "w", newline="") as fh:
            csv.writer(fh, quoting=quoting).writerows(records)
        sources.append((load_responses(path), [r[0] for r in records[1:]], [r[1] for r in records[1:]]))
    spec = InjectionSpec(spammer_count=12, tasks_per_spammer=5, seed=4)
    for source, sids, tids in sources:
        assert_codes_ids(source, sids, tids)
        got, _ = inject_spammers(source, "valence", spec)
        spam = oracle_inject_spammers(source, "valence", spec)[0].rows[len(source) :]
        assert_codes_ids(got, sids + [r.subject_id for r in spam], tids + [r.task_id for r in spam])


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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(n=0), r"^n \(the task count\) must be at least 1, got 0$"),
        (dict(n=-2), r"^n \(the task count\) must be at least 1, got -2$"),
        (dict(bias_sigma=-1.0), r"^bias_sigma must be finite and >= 0, got -1\.0$"),
        (dict(bias_sigma=float("inf")), r"^bias_sigma must be finite and >= 0, got inf$"),
        (dict(rating_sigma=float("nan")), r"^rating_sigma must be finite and >= 0, got nan$"),
        (dict(rating_sigma=-0.5), r"^rating_sigma must be finite and >= 0, got -0\.5$"),
        (
            dict(tau_true=[1.0, 1.0, 2.0, 0.5, 0.0]),
            r"^tau_true must be finite and in \[0, 1\], got 2\.0 for subject 2$",
        ),
        (
            dict(tau_true=[float("nan")] + [1.0] * 4),
            r"^tau_true must be finite and in \[0, 1\], got nan for subject 0$",
        ),
        (
            dict(tau_true=[0.5, -0.1, 0.5, 0.5, 0.5]),
            r"^tau_true must be finite and in \[0, 1\], got -0\.1 for subject 1$",
        ),
        (dict(dimensions=("valence", "joy")), r"^dimensions: unknown dimension 'joy'$"),
        (
            dict(dimensions=("valence", "valence")),
            r"^dimensions must be distinct, got \('valence', 'valence'\)$",
        ),
    ],
    ids=[
        "no-tasks",
        "negative-tasks",
        "negative-bias",
        "infinite-bias",
        "nan-rating-sigma",
        "negative-rating-sigma",
        "tau-above-one",
        "tau-nan",
        "tau-negative",
        "unknown-dimension",
        "repeated-dimension",
    ],
)
def test_ratings_reject_bad_arguments_before_drawing(monkeypatch, kwargs, message):
    def no_draws(seed, k):
        raise AssertionError("drew before checking the arguments")

    monkeypatch.setattr(simulate, "_task_rng", no_draws)
    args = {"m": 5, "n": 10, "raters_per_task": 3, **kwargs}
    with pytest.raises(ValueError, match=message):
        sample_response_table(**args)


def test_ratings_accept_the_boundary_arguments():
    tau = [0.0, 1.0, 0.0, 1.0, 0.5]
    table, truth = sample_response_table(
        5, 1, 3, tau_true=tau, rating_sigma=0.0, bias_sigma=0.0, dimensions=()
    )
    assert len(table) == 3 and table.scores == {}
    assert truth == dict(zip(simulate.default_subject_ids(5), tau))


@st.composite
def ratings_arguments(draw):
    m = draw(st.integers(2, 12))
    lo = draw(st.integers(2, m))
    hi = draw(st.integers(lo, m))
    raters = draw(st.sampled_from([lo, (lo, hi)]))
    tau = draw(
        st.none()
        | st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=m, max_size=m)
    )
    return dict(
        m=m,
        n=draw(st.integers(1, 15)),
        raters_per_task=raters,
        tau_true=tau,
        rating_sigma=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 4.0)),
        bias_sigma=draw(st.just(0.0) | st.floats(0.0, 3.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
        dimensions=tuple(
            draw(st.lists(st.sampled_from(sorted(DIMENSION_SCALES)), min_size=1, max_size=4, unique=True))
        ),
        with_timing=draw(st.booleans()),
    )


@settings(max_examples=150, deadline=None)
@given(args=ratings_arguments())
def test_ratings_match_the_per_task_loop(args):
    got, got_truth = sample_response_table(**args)
    want, want_truth = oracle_sample_response_table(**args)
    assert_same_tables(got, want)
    assert got_truth == want_truth


# The full-size inputs of the benchmark's three workloads (ratings-grid,
# large, learned-gamma), at seed 1.
BENCHMARK_RATINGS = {
    "ratings-grid": dict(m=200, n=1200, raters_per_task=5, spammers=20, bias_sigma=0.0),
    "large": dict(m=500, n=5000, raters_per_task=(4, 8), spammers=50, bias_sigma=1.0),
    "learned-gamma": dict(m=120, n=700, raters_per_task=(4, 8), spammers=None, bias_sigma=1.0),
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_RATINGS))
def test_ratings_match_the_per_task_loop_on_benchmark_inputs(workload):
    args = dict(BENCHMARK_RATINGS[workload])
    spammers = args.pop("spammers")
    tau = None
    if spammers is not None:
        tau = np.full(args["m"], 0.9)
        tau[:spammers] = 0.0
    args.update(tau_true=tau, rating_sigma=1.0, seed=1, dimensions=("valence",), with_timing=True)
    got, got_truth = sample_response_table(**args)
    want, want_truth = oracle_sample_response_table(**args)
    assert_same_tables(got, want)
    assert got_truth == want_truth
