import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glba.ingest import DIMENSION_SCALES, build_multigraph
from glba.model import FitReport, ModelParams, Priors
from glba.scoring import (
    ImageReport,
    beta_variance,
    extreme_subset,
    flag_confidently_unreliable,
    image_scores,
    overhead_curve,
    precision_recall,
    rank_subjects,
)
from helpers import oracle_image_scores, table_from_rows


def fake_fit(subjects, tau, gamma, alpha=None, beta=None):
    m = len(subjects)
    params = ModelParams(
        subjects=list(subjects),
        tau=np.asarray(tau, float),
        alpha=np.full(m, 2.0) if alpha is None else np.asarray(alpha, float),
        beta=np.full(m, 3.0) if beta is None else np.asarray(beta, float),
        gamma=gamma,
    )
    return FitReport(
        params=params, priors=Priors(), iterations=1, converged=True, loglik_trace=[0.0]
    )


# ---------------------------------------------------------------------------
# rank_subjects
# ---------------------------------------------------------------------------


def test_rank_single_gamma_mean_is_identity():
    f = fake_fit(["a", "b"], [0.2, 0.8], 0.37)
    reports = rank_subjects([f])
    by_id = {r.subject_id: r for r in reports}
    assert by_id["a"].tau_mean == 0.2
    assert by_id["a"].rank == 1
    assert by_id["b"].rank == 2


def test_rank_zero_tau_everywhere_is_most_susceptible():
    fits = [fake_fit(["a", "b", "c"], [0.5, 0.0, 0.9], g) for g in (0.3, 0.4)]
    reports = rank_subjects(fits)
    assert reports[0].subject_id == "b"
    assert reports[0].rank == 1


def test_rank_three_gamma_arithmetic_mean():
    fits = [fake_fit(["a"], [t], g) for t, g in zip((0.2, 0.4, 0.6), (0.3, 0.39, 0.48))]
    reports = rank_subjects(fits)
    assert reports[0].tau_mean == pytest.approx(0.4, rel=1e-12)
    assert reports[0].tau_by_gamma == pytest.approx({0.3: 0.2, 0.39: 0.4, 0.48: 0.6})


def test_rank_reference_gamma_is_nearest_midpoint():
    # grid 0.3..0.48: midpoint 0.39, nearest grid points 0.38 and 0.4; ties
    # resolve toward the earlier (smaller) gamma
    gammas = [round(0.3 + 0.02 * i, 2) for i in range(10)]
    fits = [
        fake_fit(["a"], [0.5], g, alpha=[float(i + 1)], beta=[1.0])
        for i, g in enumerate(gammas)
    ]
    reports = rank_subjects(fits)
    assert reports[0].alpha == 5.0  # fit at gamma = 0.38 (index 4)


def test_rank_ties_break_by_subject_id():
    f = fake_fit(["b", "a"], [0.5, 0.5], 0.37)
    reports = rank_subjects([f])
    assert [r.subject_id for r in reports] == ["a", "b"]
    assert [r.rank for r in reports] == [1, 2]


def test_rank_mismatched_subject_sets():
    with pytest.raises(ValueError, match="different subject"):
        rank_subjects([fake_fit(["a"], [0.5], 0.3), fake_fit(["b"], [0.5], 0.4)])


def test_rank_beta_variance_value():
    # uniform Beta(1, 1) has variance 1/12
    f = fake_fit(["a"], [0.5], 0.37, alpha=[1.0], beta=[1.0])
    assert rank_subjects([f])[0].beta_variance == pytest.approx(1.0 / 12.0, rel=1e-12)


# ---------------------------------------------------------------------------
# image_scores
# ---------------------------------------------------------------------------


def table_single_task(ratings, dimension="valence"):
    return table_from_rows(
        [(s, "t1", {dimension: v}) for s, v in ratings.items()]
    )


def test_image_confidence_four_raters():
    taus = {"a": 0.08, "b": 0.56, "c": 0.34, "d": 0.04}
    table = table_single_task({"a": 5.0, "b": 1.0, "c": 1.0, "d": 9.0})
    params = ModelParams(
        subjects=list("abcd"),
        tau=np.array([taus[s] for s in "abcd"]),
        alpha=np.ones(4),
        beta=np.ones(4),
        gamma=0.37,
    )
    (report,) = image_scores(table, "valence", params)
    assert report.confidence == pytest.approx(0.7435, abs=1e-4)


def test_image_single_fully_reliable_rater():
    # rating 7 on the 1..9 scale normalizes to 0.75; confidence is 1
    table = table_single_task({"a": 7.0})
    params = ModelParams(
        subjects=["a"], tau=np.array([1.0]), alpha=np.ones(1), beta=np.ones(1), gamma=0.37
    )
    (report,) = image_scores(table, "valence", params)
    assert report.adjusted_score == pytest.approx(0.75, rel=1e-12)
    assert report.confidence == 1.0


def test_image_all_raters_zero_tau():
    table = table_single_task({"a": 5.0, "b": 7.0})
    params = ModelParams(
        subjects=["a", "b"], tau=np.zeros(2), alpha=np.ones(2), beta=np.ones(2), gamma=0.37
    )
    (report,) = image_scores(table, "valence", params)
    assert report.adjusted_score == 0.0
    assert not report.weighted_mean_defined
    assert report.confidence == 0.0


def test_image_direction_low_flips_ratings():
    table = table_single_task({"a": 9.0})
    params = ModelParams(
        subjects=["a"], tau=np.array([1.0]), alpha=np.ones(1), beta=np.ones(1), gamma=0.37
    )
    (high,) = image_scores(table, "valence", params, direction="high")
    (low,) = image_scores(table, "valence", params, direction="low")
    assert high.weighted_mean == 1.0
    assert low.weighted_mean == 0.0
    assert high.raw_mean == low.raw_mean == 9.0


def test_image_sorted_by_adjusted_score():
    rows = [
        ("a", "t1", {"valence": 9.0}),
        ("a", "t2", {"valence": 2.0}),
        ("b", "t1", {"valence": 8.0}),
        ("b", "t2", {"valence": 2.0}),
    ]
    params = ModelParams(
        subjects=["a", "b"], tau=np.array([0.9, 0.8]), alpha=np.ones(2), beta=np.ones(2), gamma=0.37
    )
    reports = image_scores(table_from_rows(rows), "valence", params)
    assert [r.task_id for r in reports] == ["t1", "t2"]
    assert reports[0].adjusted_score > reports[1].adjusted_score


def test_image_missing_params_is_error():
    table = table_single_task({"a": 5.0, "zz": 6.0})
    params = ModelParams(
        subjects=["a"], tau=np.array([0.5]), alpha=np.ones(1), beta=np.ones(1), gamma=0.37
    )
    with pytest.raises(ValueError, match="zz"):
        image_scores(table, "valence", params)


def test_image_confidence_monotone_in_added_rater():
    rng = np.random.default_rng(4)
    for _ in range(20):
        taus = rng.uniform(0, 1, size=4)
        base = 1.0 - np.prod(1.0 - taus[:3])
        grown = 1.0 - np.prod(1.0 - taus)
        assert grown >= base - 1e-15


def test_image_adjusted_score_monotone_in_tau_above_mean():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = 4
        taus = rng.uniform(0.05, 0.95, size=n)
        ratings = rng.integers(1, 10, size=n).astype(float)
        table = table_from_rows(
            [(f"s{i}", "t", {"valence": ratings[i]}) for i in range(n)]
        )

        def score(tvec):
            params = ModelParams(
                subjects=[f"s{i}" for i in range(n)],
                tau=tvec,
                alpha=np.ones(n),
                beta=np.ones(n),
                gamma=0.37,
            )
            (rep,) = image_scores(table, "valence", params)
            return rep.adjusted_score, rep.weighted_mean

        b0, wm0 = score(taus)
        i = int(rng.integers(n))
        norm_i = (ratings[i] - 1.0) / 8.0
        if norm_i <= wm0:
            continue
        bumped = taus.copy()
        bumped[i] = min(1.0, bumped[i] + rng.uniform(0.01, 0.3))
        b1, _ = score(bumped)
        assert b1 >= b0 - 1e-12


def _same(a, b):
    """Equal in type and bits, NaN matching NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def assert_same_reports(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        for f in dataclasses.fields(ImageReport):
            a, b = getattr(g, f.name), getattr(e, f.name)
            assert _same(a, b), (e.task_id, f.name, a, b)


# Tau values with exact zeros (all-zero-tau tasks), exact ones and a few
# shared values, so that adjusted scores tie.
TAU_VALUES = st.one_of(
    st.just(0.0), st.just(1.0), st.sampled_from([0.25, 0.5, 0.9]), st.floats(0.0, 1.0)
)


@st.composite
def scored_inputs(draw):
    """A shuffled ratings table with 1-9 raters per task, the params of a
    subset of its raters (never the u* raters of the optional task t9) and
    a scoring setup."""
    dimension = draw(st.sampled_from(["valence", "likeness"]))
    lo, hi = DIMENSION_SCALES[dimension]
    rating = st.one_of(st.integers(int(lo), int(hi)).map(float), st.floats(lo, hi))
    rows = []
    for t in range(draw(st.integers(1, 8))):
        raters = draw(st.permutations(range(12)))[: draw(st.integers(1, 9))]
        rows += [(f"s{s:02d}", f"t{t}", {dimension: draw(rating)}) for s in raters]
    if draw(st.booleans()):  # a copy of task t0 under another id ties with it
        rows += [(s, "t00", scores) for s, t, scores in rows if t == "t0"]
    if draw(st.booleans()):  # a small task with unfitted raters u*, kept or dropped
        rows += [(f"u{i}", "t9", {dimension: draw(rating)}) for i in range(draw(st.integers(1, 3)))]
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    raters = sorted({s for s, _, _ in rows if s[0] == "s"})
    unfitted = draw(st.sets(st.sampled_from(raters), max_size=2)) if draw(st.booleans()) else set()
    fitted = [s for s in raters if s not in unfitted]
    params = ModelParams(
        subjects=fitted,
        tau=np.array(draw(st.lists(TAU_VALUES, min_size=len(fitted), max_size=len(fitted)))),
        alpha=np.ones(len(fitted)),
        beta=np.ones(len(fitted)),
        gamma=0.37,
    )
    setup = dict(direction=draw(st.sampled_from(["high", "low"])), min_raters=draw(st.integers(1, 5)))
    return table_from_rows(rows), dimension, params, setup


@settings(max_examples=300, deadline=None)
@given(scored_inputs())
def test_image_scores_match_per_task_oracle(inputs):
    table, dimension, params, setup = inputs
    try:
        expected = oracle_image_scores(table, dimension, params, **setup)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            image_scores(table, dimension, params, **setup)
        assert str(got.value) == str(err)
        return
    assert_same_reports(image_scores(table, dimension, params, **setup), expected)


def test_image_unfitted_raters_only_in_dropped_tasks_are_not_an_error():
    rows = [(s, "t1", {"valence": 5.0}) for s in "abc"]
    rows += [("zz", "t2", {"valence": 3.0}), ("a", "t2", {"valence": 4.0})]  # dropped at min_raters 3
    params = ModelParams(
        subjects=list("abc"), tau=np.array([0.2, 0.5, 0.9]), alpha=np.ones(3), beta=np.ones(3), gamma=0.37
    )
    table = table_from_rows(rows)
    got = image_scores(table, "valence", params, min_raters=3)
    assert [r.task_id for r in got] == ["t1"]
    assert_same_reports(got, oracle_image_scores(table, "valence", params, min_raters=3))


def test_image_unfitted_raters_named_for_first_kept_task_in_id_order():
    rows = [(s, "t3", {"valence": 5.0}) for s in ("zz", "b", "ya")]
    rows += [(s, "t2", {"valence": 5.0}) for s in ("zz", "a", "yb", "b")]
    rows += [(s, "t1", {"valence": 5.0}) for s in ("xx", "a")]  # dropped at min_raters 3
    params = ModelParams(subjects=["a", "b"], tau=np.ones(2), alpha=np.ones(2), beta=np.ones(2), gamma=0.37)
    table = table_from_rows(rows)
    message = "task 't2': no fitted parameters for rater(s) yb, zz"
    for scorer in (image_scores, oracle_image_scores):
        with pytest.raises(ValueError) as err:
            scorer(table, "valence", params, min_raters=3)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# extreme_subset
# ---------------------------------------------------------------------------


def _img(task_id, est_score, conf, dimension="valence"):
    lo, hi = 1.0, 9.0
    wm = (est_score - lo) / (hi - lo)
    return ImageReport(
        task_id=task_id,
        adjusted_score=wm * conf,
        confidence=conf,
        weighted_mean=wm,
        raw_mean=est_score,
        n_raters=4,
        dimension=dimension,
    )


def test_extreme_subset_empty():
    assert extreme_subset([], 8.0, 0.9) == []


def test_extreme_subset_threshold_semantics():
    reports = [_img("keep", 8.2, 0.95), _img("dropconf", 8.2, 0.5), _img("droplow", 7.0, 0.99)]
    assert extreme_subset(reports, 8.0, 0.9) == ["keep"]


def test_extreme_subset_requires_defined_mean():
    rep = _img("t", 8.5, 0.95)
    rep.weighted_mean_defined = False
    assert extreme_subset([rep], 8.0, 0.9) == []


# ---------------------------------------------------------------------------
# overhead_curve
# ---------------------------------------------------------------------------


def _subject_report(sid, tau):
    return type(
        "SR", (), {"subject_id": sid, "tau_mean": tau, "confidence": None}
    )()


def overhead_table(rng, n_subjects=6, n_tasks=10):
    rows = []
    for s in range(n_subjects):
        for t in range(n_tasks):
            if rng.random() < 0.7:
                rows.append((f"s{s}", f"t{t}", {"valence": float(rng.integers(1, 10))}))
    return table_from_rows(rows)


def test_overhead_zero_threshold_removes_nothing():
    rng = np.random.default_rng(31)
    table = overhead_table(rng)
    reports = [_subject_report(s, 0.5) for s in table.subjects()]
    curve = overhead_curve(table, "valence", reports, "subject-filter", [0.0])
    assert curve == [(0.0, 0)]


def test_overhead_above_one_removes_everything():
    rng = np.random.default_rng(32)
    table = overhead_table(rng)
    reports = [_subject_report(s, 0.5) for s in table.subjects()]
    curve = overhead_curve(table, "valence", reports, "subject-filter", [1.0 + 1e-9])
    assert curve[0][1] == len(table.rows_for("valence"))


def test_overhead_matches_brute_force_and_is_monotone():
    rng = np.random.default_rng(33)
    table = overhead_table(rng)
    taus = {s: float(rng.uniform(0, 1)) for s in table.subjects()}
    reports = [_subject_report(s, taus[s]) for s in table.subjects()]
    thresholds = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    curve = overhead_curve(table, "valence", reports, "subject-filter", thresholds)
    removed = [c for _, c in curve]
    assert removed == sorted(removed)
    for th, got in curve:
        expected = sum(1 for r in table.rows_for("valence") if taus[r.subject_id] < th)
        assert got == expected


def test_overhead_image_mode_brute_force():
    rng = np.random.default_rng(34)
    table = overhead_table(rng)
    tasks = sorted({r.task_id for r in table.rows_for("valence")})
    confs = {t: float(rng.uniform(0, 1)) for t in tasks}
    reports = [
        ImageReport(
            task_id=t,
            adjusted_score=0.5,
            confidence=confs[t],
            weighted_mean=0.5,
            raw_mean=5.0,
            n_raters=3,
            dimension="valence",
        )
        for t in tasks
    ]
    curve = overhead_curve(table, "valence", reports, "image-filter", [0.3, 0.7])
    for th, got in curve:
        expected = sum(1 for r in table.rows_for("valence") if confs[r.task_id] < th)
        assert got == expected


# ---------------------------------------------------------------------------
# precision_recall
# ---------------------------------------------------------------------------


def _ranked(taus):
    reports = [
        type("SR", (), {"subject_id": s, "tau_mean": t, "rank": 0})()
        for s, t in taus.items()
    ]
    reports.sort(key=lambda r: (r.tau_mean, r.subject_id))
    for i, r in enumerate(reports, start=1):
        r.rank = i
    return reports


def test_pr_perfect_prefix():
    ranked = _ranked({f"s{i}": i / 10 for i in range(10)})
    annotated = {"s0", "s1", "s2"}
    result = precision_recall(ranked, annotated, top_k=(3,))
    assert result.top_k[3] == 1.0
    assert result.recall[2] == 1.0


def test_pr_disjoint_topk():
    ranked = _ranked({f"s{i}": i / 10 for i in range(10)})
    result = precision_recall(ranked, {"s8", "s9"}, top_k=(5,))
    assert result.top_k[5] == 0.0


def test_pr_matches_brute_force_prefix_counts():
    rng = np.random.default_rng(44)
    taus = {f"s{i:03d}": float(rng.uniform(0, 1)) for i in range(100)}
    annotated = set(rng.choice(sorted(taus), size=17, replace=False))
    ranked = _ranked(taus)
    result = precision_recall(ranked, annotated, top_k=(10, 25, 60))
    order = [r.subject_id for r in sorted(ranked, key=lambda r: r.rank)]
    for k in range(1, 101):
        hits = sum(1 for s in order[:k] if s in annotated)
        assert result.precision[k - 1] == hits / k
        assert result.recall[k - 1] == hits / 17
    assert result.recall == sorted(result.recall)
    assert result.precision[-1] == pytest.approx(17 / 100)


def test_pr_unknown_annotated_id():
    ranked = _ranked({"a": 0.1, "b": 0.2})
    with pytest.raises(ValueError, match="ghost"):
        precision_recall(ranked, {"ghost"})


def test_pr_empty_annotated():
    ranked = _ranked({"a": 0.1})
    with pytest.raises(ValueError, match="empty"):
        precision_recall(ranked, set())


# ---------------------------------------------------------------------------
# flag_confidently_unreliable
# ---------------------------------------------------------------------------


def _report(sid, tau, alpha, beta):
    return type(
        "SR",
        (),
        {
            "subject_id": sid,
            "tau_mean": tau,
            "beta_variance": beta_variance(alpha, beta),
            "rank": 0,
        },
    )()


def test_flag_impossible_variance_threshold():
    reports = [_report(f"s{i}", i / 10, 2.0, 3.0) for i in range(10)]
    assert flag_confidently_unreliable(reports, var_max=0.0, tau_pct=50) == []


def test_flag_uniform_beta_variance():
    assert beta_variance(1.0, 1.0) == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_flag_hand_filtered_population():
    rng = np.random.default_rng(55)
    reports = []
    for i in range(10):
        tau = float(rng.uniform(0, 1))
        alpha = float(rng.uniform(0.5, 6))
        beta = float(rng.uniform(0.5, 6))
        reports.append(_report(f"s{i}", tau, alpha, beta))
    var_max, tau_pct = 0.05, 40.0
    cutoff = float(np.percentile([r.tau_mean for r in reports], tau_pct))
    expected = sorted(
        (r.subject_id for r in reports if r.beta_variance < var_max and r.tau_mean < cutoff),
        key=lambda s: next(r.tau_mean for r in reports if r.subject_id == s),
    )
    assert flag_confidently_unreliable(reports, var_max, tau_pct) == expected


# ---------------------------------------------------------------------------
# ranking scale invariance through the graph
# ---------------------------------------------------------------------------


def test_graph_invariant_under_rating_shift():
    rng = np.random.default_rng(66)
    rows, shifted = [], []
    for t in range(8):
        for s in range(5):
            v = float(rng.integers(1, 9))
            rows.append((f"s{s}", f"t{t}", {"valence": v}))
            shifted.append((f"s{s}", f"t{t}", {"valence": v + 1.0}))
    g1 = build_multigraph(table_from_rows(rows), "valence", min_raters=4)
    g2 = build_multigraph(table_from_rows(shifted), "valence", min_raters=4)
    assert [t.task_id for t in g1.tasks] == [t.task_id for t in g2.tasks]
    for t1, t2 in zip(g1.tasks, g2.tasks):
        assert t1.subjects == t2.subjects
        assert np.array_equal(t1.edges, t2.edges)
