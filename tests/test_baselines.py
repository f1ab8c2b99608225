import csv
import dataclasses
from itertools import compress

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from glba.baselines import (
    CATEGORIES,
    CategoricalTable,
    categorize_table,
    dawid_skene_fit,
    dawid_skene_rank,
    duration_rank,
)
from glba.ingest import _codes, load_responses
from glba.simulate import sample_response_table
from glba.textio import write_responses
from helpers import (
    assert_codes_ids,
    ds_penalized_loglik,
    oracle_dawid_skene,
    oracle_dawid_skene_rank,
    oracle_sample_response_table,
    table_from_rows,
)


# ---------------------------------------------------------------------------
# categorize_table
# ---------------------------------------------------------------------------


def categorize(score, threshold):
    """The label categorize_table gives a one-row table rated `score` on
    valence, whose neutral point is 5."""
    table = table_from_rows([("a", "t1", {"valence": score})])
    return CATEGORIES[categorize_table(table, "valence", threshold).categories[0]]


def test_categorize_midpoint_is_neutral():
    assert categorize(5.0, threshold=0.5) == "neutral"


def test_categorize_above_margin_is_high():
    assert categorize(5.6, threshold=0.5) == "high"


def test_categorize_boundary_is_neutral():
    # exactly at neutral - threshold: strict inequality keeps it neutral
    assert categorize(4.5, threshold=0.5) == "neutral"
    assert categorize(5.5, threshold=0.5) == "neutral"


def test_categorize_monotone():
    order = {"low": 0, "neutral": 1, "high": 2}
    prev = 0
    for score in np.linspace(1, 9, 33):
        cur = order[categorize(float(score), threshold=0.5)]
        assert cur >= prev
        prev = cur


def test_categorize_table_uses_dimension_midpoint():
    table = table_from_rows(
        [
            ("a", "t1", {"valence": 9.0, "likeness": 4.0}),
            ("b", "t1", {"valence": 1.0, "likeness": 6.0}),
        ]
    )
    cat_v = categorize_table(table, "valence")
    assert [CATEGORIES[c] for c in cat_v.categories] == ["high", "low"]
    cat_l = categorize_table(table, "likeness")  # neutral point 4 on the 1..7 scale
    assert [CATEGORIES[c] for c in cat_l.categories] == ["neutral", "high"]


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -0.5, -10.0])
def test_categorize_rejects_bad_threshold(threshold):
    with pytest.raises(ValueError, match="threshold must be a finite number >= 0"):
        categorize(9.0, threshold=threshold)


def test_categorize_zero_threshold_is_allowed():
    assert categorize(5.0, threshold=0.0) == "neutral"
    assert categorize(5.1, threshold=0.0) == "high"


def test_categorize_table_rejects_unknown_dimension():
    table = table_from_rows([("a", "t1", {"valence": 9.0})])
    with pytest.raises(ValueError, match="^unknown dimension 'foo'$"):
        categorize_table(table, "foo")


def test_categorize_table_keeps_rated_rows_in_order():
    table = table_from_rows(
        [("b", "t2", {"valence": 2.0}), ("a", "t1", {"arousal": 2.0}), ("a", "t2", {"valence": 7.0})]
    )
    cat = categorize_table(table, "valence")
    assert cat.categories.tolist() == [0, 2]
    assert (cat.subject_index, cat.subject_code.tolist()) == (["a", "b"], [1, 0])
    assert (cat.task_index, cat.task_code.tolist()) == (["t2"], [0, 0])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    cells=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from(["valence", "arousal", "both"])),
        max_size=40,
        unique_by=lambda c: c[:2],
    ),
    data=st.data(),
)
def test_categorize_table_codes_match_coding_the_rated_ids(tmp_path, cells, data):
    # Subjects and tasks rated only on arousal have no valence label.  The
    # tables labelled: one built from records; the same records written and
    # loaded through the byte scan and (fully quoted) through csv.reader,
    # their ids as the csv module reads them; a sample_response_table, its
    # ids as the per-task loop draws them.
    rows = []
    for s, t, dims in cells:
        scores = {d: data.draw(st.sampled_from([1.0, 5.0, 9.0])) for d in ("valence", "arousal") if dims in (d, "both")}
        rows.append((f"s{s}", f"t{t}", scores))
    table = table_from_rows(rows)
    sources = [(table, [r[0] for r in rows], [r[1] for r in rows])]
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
        path = tmp_path / f"ratings-{quoting}.csv"
        write_responses(table, path)
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
        with open(path, "w", newline="") as fh:
            csv.writer(fh, quoting=quoting).writerows(records)
        sources.append((load_responses(path), [r[0] for r in records[1:]], [r[1] for r in records[1:]]))
    args = dict(m=6, n=8, raters_per_task=(2, 4), seed=data.draw(st.integers(0, 99)), dimensions=("valence",))
    sampled = oracle_sample_response_table(**args)[0].rows
    sources.append((sample_response_table(**args)[0], [r.subject_id for r in sampled], [r.task_id for r in sampled]))
    for source, sids, tids in sources:
        cat = categorize_table(source, "valence")
        rated = source.rated("valence").tolist()
        sids, tids = list(compress(sids, rated)), list(compress(tids, rated))
        assert_codes_ids(cat, sids, tids)
        if source is not table or not len(cat):
            continue
        recoded = CategoricalTable(*_codes(sids), *_codes(tids), cat.categories)
        ours, recoded = dawid_skene_fit(cat), dawid_skene_fit(recoded)
        assert_same_ds_model(ours, recoded)


@pytest.mark.parametrize("codes", [[0, 3], [-1, 0], [0, 1.5]])
def test_categorical_table_rejects_unknown_codes(codes):
    with pytest.raises(ValueError, match="outside 0..2"):
        CategoricalTable(*_codes(["a", "b"]), *_codes(["t1", "t1"]), codes)


def test_categorical_table_rejects_ragged_columns():
    with pytest.raises(ValueError, match="differ in length"):
        CategoricalTable(*_codes(["a", "b"]), *_codes(["t1", "t1"]), [0, 1, 2])


# ---------------------------------------------------------------------------
# dawid_skene_fit
# ---------------------------------------------------------------------------


def cat_table(entries):
    """CategoricalTable from (subject, task, category name) entries."""
    sids, tids, cats = zip(*entries) if entries else ((), (), ())
    return CategoricalTable(*_codes(list(sids)), *_codes(list(tids)), [CATEGORIES.index(c) for c in cats])


def assert_same_ds_model(got, want):
    """Same ids in the same order, and the same doubles in every array."""
    assert (got.subjects, got.task_ids) == (want.subjects, want.task_ids)
    for field in ("class_prior", "confusion", "task_posterior"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_ds_single_vote_concentrates():
    model = dawid_skene_fit(cat_table([("a", "t1", "high")]))
    post = model.task_posterior[model.task_ids.index("t1")]
    assert np.argmax(post) == CATEGORIES.index("high")
    assert post[CATEGORIES.index("high")] > 0.5
    assert post.sum() == pytest.approx(1.0, abs=1e-9)


def test_ds_empty_table():
    with pytest.raises(ValueError, match="empty"):
        dawid_skene_fit(cat_table([]))


def test_ds_perfect_agreement_near_identity():
    entries = []
    cats = ["low", "neutral", "high"]
    for t in range(20):
        c = cats[t % 3]
        for s in range(5):
            entries.append((f"s{s}", f"t{t}", c))
    model = dawid_skene_fit(cat_table(entries))
    for cm in model.confusion:
        off_diag = cm - np.diag(np.diag(cm))
        assert off_diag.max() < 0.05
        np.testing.assert_allclose(cm.sum(axis=1), 1.0, atol=1e-9)


def test_ds_planted_spammer_has_lowest_diagonal():
    rng = np.random.default_rng(17)
    cats = list(CATEGORIES)
    entries = []
    true_cat = [cats[int(rng.integers(3))] for _ in range(50)]
    for t in range(50):
        for s in range(4):  # truthful subjects: 90% correct
            if rng.random() < 0.9:
                c = true_cat[t]
            else:
                c = cats[int(rng.integers(3))]
            entries.append((f"good{s}", f"t{t}", c))
        entries.append(("spammer", f"t{t}", cats[int(rng.integers(3))]))
    model = dawid_skene_fit(cat_table(entries))
    diag = {s: float(np.mean(np.diag(cm))) for s, cm in zip(model.subjects, model.confusion)}
    good_mean = np.mean([diag[f"good{s}"] for s in range(4)])
    assert diag["spammer"] < good_mean
    ranked = dawid_skene_rank(model)
    assert ranked[0][0] == "spammer"


def test_ds_simplex_constraints_and_monotone_loglik():
    rng = np.random.default_rng(18)
    cats = list(CATEGORIES)
    entries = [
        (f"s{s}", f"t{t}", cats[int(rng.integers(3))])
        for t in range(30)
        for s in rng.choice(6, size=4, replace=False)
    ]
    table = cat_table(entries)
    model = dawid_skene_fit(table)
    assert model.class_prior.sum() == pytest.approx(1.0, abs=1e-9)
    for cm in model.confusion:
        np.testing.assert_allclose(cm.sum(axis=1), 1.0, atol=1e-9)
    for post in model.task_posterior:
        assert post.sum() == pytest.approx(1.0, abs=1e-9)
    # The penalized log-likelihood after each iteration, read off fits
    # capped at 1, 2, ... iterations, never falls.
    assert model.converged and model.iterations > 2
    trace = [ds_penalized_loglik(table, dawid_skene_fit(table, max_iter=i)) for i in range(1, model.iterations + 1)]
    assert np.all(np.diff(trace) >= -1e-9)


def test_ds_reports_convergence():
    cats = ["low", "neutral", "high"]
    entries = [(f"s{s}", f"t{t}", cats[t % 3]) for t in range(20) for s in range(5)]
    model = dawid_skene_fit(cat_table(entries), max_iter=100, tol=1e-6)
    assert model.converged
    assert model.iterations < 100


def test_ds_reports_iteration_cap():
    rng = np.random.default_rng(18)
    cats = list(CATEGORIES)
    entries = [
        (f"s{s}", f"t{t}", cats[int(rng.integers(3))])
        for t in range(30)
        for s in rng.choice(6, size=4, replace=False)
    ]
    model = dawid_skene_fit(cat_table(entries), max_iter=2, tol=1e-12)
    assert not model.converged
    assert model.iterations == 2


def test_ds_deterministic():
    rng = np.random.default_rng(19)
    cats = list(CATEGORIES)
    entries = [
        (f"s{s}", f"t{t}", cats[int(rng.integers(3))]) for t in range(15) for s in range(4)
    ]
    m1 = dawid_skene_fit(cat_table(entries))
    m2 = dawid_skene_fit(cat_table(entries))
    assert np.array_equal(m1.class_prior, m2.class_prior)
    assert np.array_equal(m1.confusion, m2.confusion)


def test_ds_rejects_max_iter_below_one():
    table = cat_table([("a", "t1", "high")])
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            dawid_skene_fit(table, max_iter=bad)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-6])
def test_ds_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        dawid_skene_fit(cat_table([("a", "t1", "high")]), tol=tol)


def test_ds_zero_tol_runs_to_the_cap():
    model = dawid_skene_fit(cat_table([("a", "t1", "high"), ("b", "t1", "low")]), max_iter=3, tol=0.0)
    assert model.iterations == 3 and not model.converged


def interleaved_labels(seed):
    """Rows in shuffled order over tasks of 1 to 8 labels, including
    single-label tasks and a subject who rates one task only; every pool
    rater but s7 is right 90% of the time, s7 labels at random."""
    rng = np.random.default_rng(seed)
    cats = list(CATEGORIES)
    pool = [f"s{i}" for i in range(8)]
    entries = []
    for t in range(24):
        truth = cats[int(rng.integers(3))]
        size = t % 8 + 1
        for s in rng.choice(pool, size=size, replace=False):
            good = s != "s7" and rng.random() < 0.9
            entries.append((str(s), f"t{t:02d}", truth if good else cats[int(rng.integers(3))]))
    entries.append(("loner", "t05", "low"))
    entries = [entries[i] for i in rng.permutation(len(entries))]
    assert [t for _, t, _ in entries] != sorted(t for _, t, _ in entries)
    return cat_table(entries)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("max_iter,tol,converged", [(4, 1e-12, False), (500, 1e-6, True)])
def test_ds_kernel_bit_identical_to_loop(seed, max_iter, tol, converged):
    table = interleaved_labels(seed)
    got = dawid_skene_fit(table, max_iter=max_iter, tol=tol)
    want = oracle_dawid_skene(table, max_iter=max_iter, tol=tol)
    assert got.converged == want.converged == converged
    assert got.iterations == want.iterations
    assert converged or got.iterations == max_iter
    assert_same_ds_model(got, want)


def test_ds_task_whose_likelihood_underflows_is_uniform_as_in_loop():
    # 1,200 subjects agree on six tasks and split 500/400/300 on "zz": under
    # every class most of zz's labels are off-diagonal, so its product
    # underflows to 0 and its posterior falls back to uniform.
    cats = list(CATEGORIES)
    entries = [(f"s{s:04d}", f"t{t}", cats[t % 3]) for t in range(6) for s in range(1200)]
    entries += [(f"s{s:04d}", "zz", cats[(s >= 500) + (s >= 900)]) for s in range(1200)]
    table = cat_table(entries)
    got, want = dawid_skene_fit(table, max_iter=2), oracle_dawid_skene(table, max_iter=2)
    assert got.task_posterior[got.task_ids.index("zz")].tolist() == [1 / 3] * 3
    assert_same_ds_model(got, want)


def agreeing_labels(seed):
    """Five subjects who give every task the same label: their confusions,
    and so their rank scores, tie."""
    cats = list(CATEGORIES)
    return cat_table([(f"s{s}", f"t{t}", cats[(t + seed) % 3]) for t in range(20) for s in (3, 0, 4, 1, 2)])


def reversed_confusions(model):
    """The model with its subjects, and their confusion rows, listed in
    descending id order."""
    return dataclasses.replace(model, subjects=model.subjects[::-1], confusion=model.confusion[::-1])


@pytest.mark.parametrize(
    "make_model",
    [
        *(lambda seed=seed: dawid_skene_fit(interleaved_labels(seed), max_iter=7) for seed in (0, 1, 2)),
        lambda: dawid_skene_fit(agreeing_labels(0)),
        lambda: dawid_skene_fit(agreeing_labels(1), max_iter=2),
        lambda: reversed_confusions(dawid_skene_fit(agreeing_labels(2))),
        lambda: reversed_confusions(dawid_skene_fit(interleaved_labels(3))),
    ],
    ids=["interleaved-0", "interleaved-1", "interleaved-2", "tied", "tied-capped", "tied-reversed", "reversed"],
)
def test_ds_rank_matches_per_subject_oracle(make_model):
    model = make_model()
    got, want = dawid_skene_rank(model), oracle_dawid_skene_rank(model)
    assert [s for s, _ in got] == [s for s, _ in want]
    assert [x.hex() for _, x in got] == [x.hex() for _, x in want]
    assert all(type(x) is float for _, x in got)


def test_ds_rank_orders_tied_scores_by_id():
    model = reversed_confusions(dawid_skene_fit(agreeing_labels(0)))
    ranked = dawid_skene_rank(model)
    assert len({x for _, x in ranked}) == 1
    assert [s for s, _ in ranked] == ["s0", "s1", "s2", "s3", "s4"]


# ---------------------------------------------------------------------------
# duration_rank
# ---------------------------------------------------------------------------


def test_duration_single_subject():
    table = table_from_rows([("a", "t1", {"valence": 5.0}, 2.0, 3.0)])
    ranked, excluded = duration_rank(table)
    assert ranked == [("a", 5.0)]
    assert excluded == []


def test_duration_fast_ranks_first():
    table = table_from_rows(
        [
            ("slow", "t1", {"valence": 5.0}, 10.0, 10.0),
            ("fast", "t1", {"valence": 5.0}, 1.0, 2.0),
        ]
    )
    ranked, _ = duration_rank(table)
    assert [s for s, _ in ranked] == ["fast", "slow"]
    assert ranked[0][1] == 3.0


def test_duration_missing_timing_excluded():
    table = table_from_rows(
        [
            ("a", "t1", {"valence": 5.0}, 2.0, None),  # half-timed row still counts
            ("b", "t1", {"valence": 5.0}, None, None),
            ("b", "t2", {"valence": 5.0}, None, None),
            ("c", "t1", {"valence": 5.0}, 1.0, 1.0),
        ]
    )
    ranked, excluded = duration_rank(table)
    assert excluded == ["b"]
    assert dict(ranked) == {"a": 2.0, "c": 2.0}
