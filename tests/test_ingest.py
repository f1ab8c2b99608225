from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from glba.baselines import categorize_table, duration_rank
from glba.ingest import (
    DIMENSION_SCALES,
    AgreementMultigraph,
    ResponseTable,
    TaskGraph,
    agree,
    bin_rating,
    build_multigraph,
    load_responses,
    percentile_table,
    variance_ratio,
)
from glba.model import FitConfig, fit
from glba.scoring import overhead_curve
from glba.textio import write_responses
from helpers import (
    make_task,
    oracle_build_multigraph,
    oracle_categorize_table,
    oracle_duration_rank,
    oracle_load_responses,
    oracle_overhead_curve,
    oracle_write_responses,
    random_graph,
    table_from_rows,
)

CSV_HEADER = "subject_id,task_id,valence,arousal,dominance,likeness,view_seconds,label_seconds\n"


def write_csv(tmp_path, body, header=CSV_HEADER, name="data.csv"):
    path = tmp_path / name
    path.write_text(header + body)
    return str(path)


# ---------------------------------------------------------------------------
# load_responses
# ---------------------------------------------------------------------------


def test_load_well_formed(tmp_path):
    path = write_csv(
        tmp_path,
        "a,t1,5,4,6,3,2.5,8\n"
        "b,t1,6,4,6,3,3,9\n"
        "a,t2,2,2,2,2,,\n",
    )
    table = load_responses(path)
    assert len(table.rows) == 3
    assert table.subjects() == ["a", "b"]
    assert table.rows[0].scores["valence"] == 5.0
    assert table.rows[0].view_seconds == 2.5
    assert table.rows[2].view_seconds is None


def test_load_rejects_out_of_scale(tmp_path):
    path = write_csv(tmp_path, "a,t1,5,4,6,3,,\nb,t1,12,4,6,3,,\n")
    with pytest.raises(ValueError, match=r"row 3.*valence"):
        load_responses(path)


def test_load_rejects_likeness_scale(tmp_path):
    # likeness runs on 1..7, so 8 is out of bounds even though valence allows it
    path = write_csv(tmp_path, "a,t1,5,4,6,8,,\n")
    with pytest.raises(ValueError, match="likeness"):
        load_responses(path)


def test_load_rejects_duplicate_pair(tmp_path):
    path = write_csv(tmp_path, "a,t1,5,4,6,3,,\na,t1,6,4,6,3,,\n")
    with pytest.raises(ValueError, match=r"row 3.*duplicate"):
        load_responses(path)


def test_load_missing_column(tmp_path):
    path = write_csv(
        tmp_path, "a,t1,5,4,6\n", header="subject_id,task_id,valence,arousal,dominance\n"
    )
    with pytest.raises(ValueError, match="likeness"):
        load_responses(path)


def test_load_unparseable_number(tmp_path):
    path = write_csv(tmp_path, "a,t1,five,4,6,3,,\n")
    with pytest.raises(ValueError, match=r"row 2.*unparseable"):
        load_responses(path)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_load_rejects_nonfinite_timing(tmp_path, raw):
    # a NaN or infinite timing would pass silently through the duration filter
    path = write_csv(tmp_path, f"a,t1,5,4,6,3,{raw},\nb,t1,5,4,6,3,1,{raw}\n")
    with pytest.raises(ValueError, match=r"row 2: non-finite view_seconds.*row 3: non-finite label_seconds"):
        load_responses(path)


def test_load_schema_mapping(tmp_path):
    path = write_csv(
        tmp_path,
        "a,t1,5,4,6,3\n",
        header="worker,image,valence,arousal,dominance,likeness\n",
    )
    table = load_responses(path, schema={"subject_id": "worker", "task_id": "image"})
    assert table.rows[0].subject_id == "a"
    assert table.rows[0].task_id == "t1"


# ---------------------------------------------------------------------------
# load_responses against the csv.DictReader loader
# ---------------------------------------------------------------------------

FULL = "subject_id,task_id,valence,arousal,dominance,likeness,view_seconds,label_seconds"
MALFORMED_CSVS = {
    "blank lines": f"{FULL}\na,t1,5,4,6,3,1,2\n\n\nb,t1,12,4,6,3,,\n\n",
    "blank lines, valid": f"{FULL}\n\na,t1,5,4,6,3,1,2\n\r\n\nb,t1,2,4,6,3,,\n\n",
    "blank line before header": f"\n\n{FULL}\na,t1,5,4,6,3,,\n",
    "short rows": f"{FULL}\na,t1,5,4,6,3\nb,t1,5\nc,t1\nd\n,\n",
    "extra fields": f"{FULL}\na,t1,5,4,6,3,1,2,extra,more\nb,t1,5,4,6,3,1,2,\n",
    "duplicate headers": (
        "subject_id,task_id,valence,valence,arousal,dominance,likeness,task_id\n"
        "a,t1,1,9,4,6,3,t2\nb,t1,2,8,4,6,3\nc,t1,3,7,4,6,3,t3,x\n"
    ),
    "duplicate headers, valid": (
        "subject_id,task_id,valence,arousal,dominance,likeness,valence\na,t1,1,4,6,3,9\nb,t1,2,4,6,3\n"
    ),
    "duplicate timing header": (
        "subject_id,task_id,valence,arousal,dominance,likeness,view_seconds,view_seconds\n"
        "a,t1,5,4,6,3,1,-2\nb,t1,5,4,6,3,1\nc,t1,5,4,6,3,x,3\n"
    ),
    "bad numbers": (
        f"{FULL}\na,t1,five,4,6,3,,\nb,t1,nan,4,6,3,,\nc,t1,inf,4,6,3,,\nd,t1,1e400,4,6,3,,\n"
        "e,t1,5,4,6,8,,\nf,t1,5,4,6,3,-1,x\ng,t1,5,4,6,3,nan,inf\nh,t1,1_0,0x5,6,3,,\n"
        "i,t1, 5 ,\t4\t,6,3, 2 ,\n"
    ),
    "reserved characters": (
        f'{FULL}\n"a,b",t1,5,4,6,3,,\na\tb,t1,5,4,6,3,,\n"a\nb",t1,5,4,6,3,,\nc,"t\n1",5,4,6,3,,\n'
        "ok,t1,5,4,6,3,,\n"
    ),
    "comment-marked ids": (
        f"{FULL}\n#a,t1,5,4,6,3,,\nb, #t2,5,4,6,3,,\n\"#c,d\",t1,5,4,6,3,,\n#a,t1,5,4,6,3,,\nc,t1#,5,4,6,3,,\n"
    ),
    "empty and blank ids": f"{FULL}\n,t1,5,4,6,3,,\na,,5,4,6,3,,\n  ,t1,5,4,6,3,,\n\"\",t1,5,4,6,3,,\n",
    "duplicate pairs": f"{FULL}\na,t1,5,4,6,3,,\n\n a ,t1,6,4,6,3,,\nb,t2,1,1,1,1,,\nb,t2,1,1,1,1,,\n",
    "missing columns": "subject_id,task_id,valence,arousal\na,t1,5,4\n",
    "missing everything": "\n\n",
    "empty file": "",
    "header only": f"{FULL}\n",
    "no timing columns": "subject_id,task_id,valence,arousal,dominance,likeness\na,t1,5,4,6,3\n",
    "many problems": FULL + "\n" + "".join(f"s{i},t1,x,4,6,3,,\n" for i in range(25)),
    "quoted values": f'{FULL}\n"a","t1","5.5","4","6","3","",""\n',
}


def row_tuples(table):
    return [(r.subject_id, r.task_id, r.scores, r.view_seconds, r.label_seconds) for r in table.rows]


def load_outcome(loader, path, schema=None):
    try:
        return ("rows", row_tuples(loader(path, schema)))
    except ValueError as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("name", sorted(MALFORMED_CSVS))
def test_load_matches_dictreader_loader(tmp_path, name):
    path = tmp_path / "data.csv"
    path.write_text(MALFORMED_CSVS[name], encoding="utf-8", newline="")
    expected = load_outcome(oracle_load_responses, str(path))
    assert load_outcome(load_responses, str(path)) == expected


def test_load_matches_dictreader_loader_with_schema(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("worker,image,valence,arousal,dominance,likeness,worker\na,t1,5,4,6,3,b\nc,t2,5,4\n")
    schema = {"subject_id": "worker", "task_id": "image", "view_seconds": "valence"}
    expected = load_outcome(oracle_load_responses, str(path), schema)
    assert load_outcome(load_responses, str(path), schema) == expected


def test_load_rejects_ids_that_begin_with_a_comment_mark(tmp_path):
    # Every text reader skips '#' lines: such a task would vanish from the
    # graph file and such a subject from a fit report when read back.
    path = write_csv(tmp_path, "a,#t1,5,4,6,3,,\nb,t1,5,4,6,3,,\n #b,t2,5,4,6,3,,\nc,t#,5,4,6,3,,\n")
    message = "subject/task id begins with '#', which marks a comment line"
    with pytest.raises(ValueError, match=rf"row 2: {message}; row 4: {message}$"):
        load_responses(path)


def test_load_counts_records_not_lines(tmp_path):
    # a quoted newline spans two lines but is one record; blank lines are not counted
    path = write_csv(tmp_path, '"x\ny",t1,5,4,6,3,,\n\nb,t1,12,4,6,3,,\n')
    with pytest.raises(ValueError, match=r"row 2: subject/task id contains a reserved character; row 3: valence"):
        load_responses(path)


CSV_TOKENS = [
    "", " ", "a", "b", "t1", "t2", "5", "9", "9.5", "1", "-1", "x", "nan", "1e3", '"c,d"', '"e\nf"', "a\tb", " #a",
]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    header=st.lists(
        st.sampled_from(FULL.split(",") + ["extra"]), min_size=6, max_size=10
    ),
    records=st.lists(st.lists(st.sampled_from(CSV_TOKENS), max_size=10), max_size=12),
)
def test_load_matches_dictreader_loader_on_random_files(tmp_path, header, records):
    # required columns first so that most files get past the header check
    header = FULL.split(",")[:6] + header
    path = tmp_path / "fuzz.csv"
    path.write_text(
        "\n".join([",".join(header)] + [",".join(r) for r in records]) + "\n",
        encoding="utf-8",
        newline="",
    )
    assert load_outcome(load_responses, str(path)) == load_outcome(oracle_load_responses, str(path))


# ---------------------------------------------------------------------------
# percentile_table
# ---------------------------------------------------------------------------


def test_percentile_degenerate_pool():
    t = percentile_table([5, 5, 5, 5], scale=[5])
    assert t.cdf[5.0] == 1.0


def test_percentile_counting():
    # brute-force count: 4 of 8 values are <= 2
    t = percentile_table([1, 1, 2, 2, 3, 3, 4, 4], scale=[1, 2, 3, 4])
    assert t.cdf[2.0] == 0.5


def test_percentile_uniform_pool():
    t = percentile_table(list(range(1, 10)), scale=range(1, 10))
    for k in range(1, 10):
        assert t.cdf[float(k)] == pytest.approx(k / 9, abs=0)


def test_percentile_empty_pool():
    with pytest.raises(ValueError, match="empty"):
        percentile_table([], scale=[1, 2])


def test_percentile_value_outside_scale():
    with pytest.raises(ValueError, match="not in scale"):
        percentile_table([1, 2, 7], scale=[1, 2, 3])


def test_percentile_invariant_under_pool_duplication():
    rng = np.random.default_rng(7)
    pool = list(rng.integers(1, 10, size=40))
    t1 = percentile_table(pool, scale=range(1, 10))
    t2 = percentile_table(pool * 3, scale=range(1, 10))
    assert t1.cdf == t2.cdf


def test_percentile_top_of_scale_successor():
    t = percentile_table([1, 9], scale=range(1, 10))
    assert t.cum_after(9.0) == 1.0


# ---------------------------------------------------------------------------
# agree
# ---------------------------------------------------------------------------


def test_agree_identical_ratings():
    t = percentile_table([1, 2, 3, 9, 9], scale=range(1, 10))
    for delta in (0.01, 0.2, 0.99):
        assert agree(5.0, 5.0, t, delta) == 1


def test_agree_bimodal_pool_extremes():
    # ten 1s and ten 9s: percentile gap between the extremes is 0.5 > 0.2
    t = percentile_table([1] * 10 + [9] * 10, scale=range(1, 10))
    d0 = abs(t.cum(1.0) - t.cum(9.0))
    d1 = abs(t.cum_after(1.0) - t.cum_after(9.0))
    assert 0.5 * d0 + 0.5 * d1 == 0.5
    assert agree(1.0, 9.0, t, 0.2) == 0


def test_agree_symmetric_over_full_grid():
    rng = np.random.default_rng(3)
    pool = list(rng.integers(1, 10, size=60))
    t = percentile_table(pool, scale=range(1, 10))
    for a in range(1, 10):
        for b in range(1, 10):
            assert agree(float(a), float(b), t) == agree(float(b), float(a), t)


def test_agree_monotone_in_delta():
    rng = np.random.default_rng(11)
    pool = list(rng.integers(1, 10, size=50))
    t = percentile_table(pool, scale=range(1, 10))
    deltas = [0.05, 0.1, 0.2, 0.4, 0.8]
    for a in range(1, 10):
        for b in range(1, 10):
            vals = [agree(float(a), float(b), t, d) for d in deltas]
            assert vals == sorted(vals)


def test_agree_rejects_bad_delta_and_rating():
    t = percentile_table([1, 2], scale=[1, 2])
    with pytest.raises(ValueError, match="delta"):
        agree(1.0, 2.0, t, 0.0)
    with pytest.raises(ValueError, match="not in the"):
        agree(1.0, 3.0, t, 0.2)


# ---------------------------------------------------------------------------
# build_multigraph
# ---------------------------------------------------------------------------


def rows_for_tasks(task_ratings):
    """task_ratings: {task: {subject: valence}} -> table rows"""
    rows = []
    for t, ratings in task_ratings.items():
        for s, v in ratings.items():
            rows.append((s, t, {"valence": v}))
    return table_from_rows(rows)


def test_build_identical_answers_agree():
    table = rows_for_tasks({"t1": {"a": 5, "b": 5}})
    graph = build_multigraph(table, "valence", min_raters=2)
    task = graph.tasks[0]
    assert task.subjects == ["a", "b"]
    assert task.edges[0, 1] == 1 and task.edges[1, 0] == 1


def test_build_drops_underlabeled_tasks():
    table = rows_for_tasks(
        {
            "t1": {"a": 5, "b": 5, "c": 5},  # 3 raters: dropped at min 4
            "t2": {"a": 5, "b": 5, "c": 6, "d": 5},
        }
    )
    graph = build_multigraph(table, "valence", min_raters=4)
    assert [t.task_id for t in graph.tasks] == ["t2"]
    assert graph.subjects == ["a", "b", "c", "d"]


def test_build_no_survivor_is_error():
    table = rows_for_tasks({"t1": {"a": 5, "b": 5}})
    with pytest.raises(ValueError, match="at least 4"):
        build_multigraph(table, "valence", min_raters=4)


def test_build_matches_per_pair_agree_calls():
    rng = np.random.default_rng(5)
    ratings = {s: float(v) for s, v in zip("abcde", rng.integers(1, 10, size=5))}
    extra = {f"x{i}": float(v) for i, v in enumerate(rng.integers(1, 10, size=8))}
    table = rows_for_tasks({"t1": ratings, "t2": extra | {"pad": 5.0}})
    graph = build_multigraph(table, "valence", delta=0.2, min_raters=4)
    # oracle: the percentile table over the full retained pool, pair by pair
    from glba.ingest import bin_rating, percentile_table

    pool = [bin_rating(v) for v in list(ratings.values()) + list(extra.values()) + [5.0]]
    ptable = percentile_table(pool, sorted(set(pool)))
    task = next(t for t in graph.tasks if t.task_id == "t1")
    subs = task.subjects
    for i, si in enumerate(subs):
        for j, sj in enumerate(subs):
            if i == j:
                continue
            expected = agree(bin_rating(ratings[si]), bin_rating(ratings[sj]), ptable, 0.2)
            assert task.edges[i, j] == expected


# Integer ratings, the top of the scale, and slider values on a 0.05 grid:
# half of those sit halfway between two bins (4.25, 4.35, ...), where
# Python's correctly rounded `round` decides the bin.
RATING_VALUES = st.one_of(
    st.integers(1, 9).map(float),
    st.just(9.0),
    st.integers(20, 180).map(lambda k: k / 20),
)


@st.composite
def rating_tables(draw):
    single_value = draw(st.booleans())
    rows = []
    for t in range(draw(st.integers(1, 6))):
        raters = draw(st.permutations(range(12)))[: draw(st.integers(1, 9))]
        for s in raters:
            rows.append((f"s{s:02d}", f"t{t}", {"valence": 5.0 if single_value else draw(RATING_VALUES)}))
    return [rows[i] for i in draw(st.permutations(range(len(rows))))]


def pool_gaps(rows, min_raters):
    """Every percentile-rule value 0.5*d0 + 0.5*d1 in (0, 1) between two
    ratings of the retained pool."""
    by_task = {}
    for _, t, scores in rows:
        by_task.setdefault(t, []).append(bin_rating(scores["valence"]))
    pool = [v for vs in by_task.values() if len(vs) >= min_raters for v in vs]
    if not pool:
        return []
    table = percentile_table(pool, sorted(set(pool)))
    gaps = {
        0.5 * abs(table.cum(a) - table.cum(b)) + 0.5 * abs(table.cum_after(a) - table.cum_after(b))
        for a in table.support
        for b in table.support
    }
    return sorted(g for g in gaps if 0.0 < g < 1.0)


@settings(max_examples=300, deadline=None)
@given(rows=rating_tables(), min_raters=st.integers(1, 5), data=st.data())
def test_build_matches_per_pair_oracle(rows, min_raters, data):
    gaps = pool_gaps(rows, min_raters)
    if gaps and data.draw(st.booleans()):
        # a delta on a decision boundary, or one ulp to either side of it
        gap = data.draw(st.sampled_from(gaps))
        delta = data.draw(st.sampled_from([gap, np.nextafter(gap, 0.0), np.nextafter(gap, 1.0)]))
    else:
        delta = data.draw(st.floats(0.001, 0.999))
    table = table_from_rows(rows)
    if max(Counter(t for _, t, _ in rows).values()) < min_raters:
        with pytest.raises(ValueError, match=f"at least {min_raters} raters"):
            build_multigraph(table, "valence", delta=delta, min_raters=min_raters)
        return
    got = build_multigraph(table, "valence", delta=delta, min_raters=min_raters)
    expected = oracle_build_multigraph(table, "valence", delta=delta, min_raters=min_raters)
    assert got.subjects == expected.subjects
    assert [t.task_id for t in got.tasks] == [t.task_id for t in expected.tasks]
    for g, e in zip(got.tasks, expected.tasks):
        assert g.subjects == e.subjects
        assert g.edges.dtype == e.edges.dtype == np.uint8
        assert np.array_equal(g.edges, e.edges)


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, float("nan")])
def test_build_checks_delta_before_anything_else(delta):
    # single-rater tasks form no pair, so only an up-front check can catch delta
    table = rows_for_tasks({"t1": {"a": 5}, "t2": {"b": 7}})
    with pytest.raises(ValueError, match="delta must lie in"):
        build_multigraph(table, "valence", delta=delta, min_raters=1)
    with pytest.raises(ValueError, match="delta must lie in"):
        build_multigraph(table, "arousal", delta=delta, min_raters=1)


def test_build_edge_count_invariant():
    rng = np.random.default_rng(9)
    tasks = {}
    for k in range(6):
        n_sub = int(rng.integers(4, 8))
        tasks[f"t{k}"] = {
            f"s{i}": float(rng.integers(1, 10)) for i in range(n_sub)
        }
    graph = build_multigraph(rows_for_tasks(tasks), "valence", min_raters=4)
    for task in graph.tasks:
        r = task.n_raters
        assert int(task.edges.sum() + np.count_nonzero(task.edges == 0) - r) == r * (r - 1)
        assert np.all(np.diag(task.edges) == 0)


def test_build_skips_rows_missing_dimension():
    rows = [
        ("a", "t1", {"valence": 5.0, "arousal": 3.0}),
        ("b", "t1", {"valence": 5.0}),
        ("c", "t1", {"valence": 5.0}),
        ("d", "t1", {"arousal": 2.0}),  # no valence: not a valence rater
    ]
    graph = build_multigraph(table_from_rows(rows), "valence", min_raters=3)
    assert graph.tasks[0].subjects == ["a", "b", "c"]


def test_build_unknown_dimension():
    table = rows_for_tasks({"t1": {"a": 5, "b": 5}})
    with pytest.raises(ValueError, match="dominance"):
        build_multigraph(table, "dominance", min_raters=2)


# ---------------------------------------------------------------------------
# AgreementMultigraph
# ---------------------------------------------------------------------------


def test_graph_sorts_tasks_and_derives_subjects():
    t2 = make_task("t2", ["c", "a"], {("c", "a"): 1})
    t1 = make_task("t1", ["b", "a", "d"], {("a", "d"): 1})
    given = [t2, t1]
    graph = AgreementMultigraph.from_tasks(given)
    assert [t.task_id for t in graph.tasks] == ["t1", "t2"]
    assert given == [t2, t1]
    assert graph.subjects == ["a", "b", "c", "d"]
    assert (graph.m, graph.n) == (4, 2)
    assert graph.degree.tolist() == [2, 1, 1, 1]


@pytest.mark.parametrize("seed", range(5))
def test_graph_layout_matches_per_task_packing(seed):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, m=12, n=30, r_lo=1, r_hi=7)
    pos = {s: i for i, s in enumerate(graph.subjects)}
    flat = [pos[s] for t in graph.tasks for s in t.subjects]
    sizes = [t.n_raters for t in graph.tasks]
    assert graph.offsets.tolist() == [0, *np.cumsum(sizes).tolist()]
    assert graph.flat_sidx.tolist() == flat
    assert [g.edges.shape[1] for g in graph.groups] == sorted(set(sizes))
    for g in graph.groups:
        r = g.edges.shape[1]
        assert g.tasks.tolist() == [k for k, size in enumerate(sizes) if size == r]
        assert g.edges.dtype == np.uint8
        for q, k in enumerate(g.tasks.tolist()):
            start = graph.offsets[k]
            assert np.array_equal(g.edges[q], graph.tasks[k].edges)
            assert g.dest[q].tolist() == list(range(start, start + r))
            assert g.sidx[q].tolist() == flat[start : start + r]
    assert graph.degree.tolist() == [flat.count(i) for i in range(graph.m)]


def test_graph_accepts_bool_and_float_indicators():
    edges = np.array([[0, 1], [0, 0]])
    graph = AgreementMultigraph.from_tasks(
        [TaskGraph("t1", ["a", "b"], edges.astype(bool)), TaskGraph("t2", ["a", "b"], edges * 1.0)]
    )
    assert graph.groups[0].edges.dtype == np.uint8
    assert graph.groups[0].edges.tolist() == [edges.tolist(), edges.tolist()]


def _diag_one():
    task = make_task("bad", ["a", "b", "c"], {}, default=1)
    task.edges[1, 1] = 1
    return task


@pytest.mark.parametrize(
    "bad,match",
    [
        (lambda: make_task("", ["a", "b"], {}), r"^empty task id \(raters a,b\)$"),
        (lambda: make_task("t0", ["a", "b"], {}), r"^duplicate task id 't0'$"),
        (lambda: make_task("bad", ["a", ""], {}), r"^task 'bad' has an empty subject id$"),
        (lambda: make_task("bad", ["a", "c", "a"], {}), r"^task 'bad' lists a subject more than once$"),
        (
            lambda: TaskGraph("bad", ["a", "b", "c"], np.zeros((2, 2), dtype=np.uint8)),
            r"^task 'bad' has edges of shape \(2, 2\), expected \(3, 3\)$",
        ),
        (
            lambda: TaskGraph("bad", ["a", "b"], np.zeros(4, dtype=np.uint8)),
            r"^task 'bad' has edges of shape \(4,\), expected \(2, 2\)$",
        ),
        (
            lambda: make_task("bad", ["a", "b", "c"], {("a", "b"): 2}),
            r"^task 'bad' has an indicator other than 0 or 1$",
        ),
        (
            lambda: TaskGraph("bad", ["a", "b"], np.array([[0.0, 0.5], [1.0, 0.0]])),
            r"^task 'bad' has an indicator other than 0 or 1$",
        ),
        (_diag_one, r"^task 'bad' has a nonzero diagonal$"),
    ],
    ids=[
        "empty-id", "duplicate-id", "empty-subject", "repeated-rater", "edges-shape",
        "edges-ndim", "indicator-2", "indicator-half", "diagonal",
    ],
)
def test_graph_rejects_malformed_task(bad, match):
    good = [make_task("t0", ["a", "b", "c"], {("a", "b"): 1}), make_task("t9", ["b", "c"], {})]
    # The constructor rejects the graph, so fit never sees it.
    with pytest.raises(ValueError, match=match):
        fit(AgreementMultigraph.from_tasks([*good, bad()]), FitConfig(gamma=0.37, max_iter=1))


@pytest.mark.parametrize(
    "tasks,match",
    [
        ([make_task("#t1", ["a", "b"], {}), make_task("t2", ["a", "b"], {})], r"^task '#t1' begins with '#'"),
        (
            [make_task("t1", ["a", "b"], {}), make_task("t2", ["#b", "a"], {})],
            r"^task 't2' has a subject id that begins with '#'$",
        ),
    ],
    ids=["task", "subject"],
)
def test_graph_rejects_ids_that_begin_with_a_comment_mark(tasks, match):
    with pytest.raises(ValueError, match=match):
        AgreementMultigraph.from_tasks(tasks)


def test_graph_packs_tasks_in_any_order():
    tasks = [make_task(f"t{k}", ["a", "b", "c"][: 1 + k % 3], {}, default=k % 2) for k in range(7)]
    want = AgreementMultigraph.from_tasks(tasks)
    ids = [t.task_id for t in tasks[::-1]]
    sizes = [t.n_raters for t in tasks[::-1]]
    raters = [s for t in tasks[::-1] for s in t.subjects]
    flags = np.concatenate([t.edges[~np.eye(t.n_raters, dtype=bool)] for t in tasks[::-1]])
    got = AgreementMultigraph(ids, sizes, raters, flags)
    assert got.task_ids == want.task_ids == sorted(ids)
    assert got.flat_sidx.tolist() == want.flat_sidx.tolist()
    for g, w in zip(got.groups, want.groups, strict=True):
        assert all(np.array_equal(a, b) for a, b in zip(g, w))
    with pytest.raises(ValueError, match="differ in length"):
        AgreementMultigraph(ids, sizes, raters, flags[1:])


def test_graph_tasks_are_read_only_records():
    graph = random_graph(np.random.default_rng(3), m=6, n=5, r_lo=1, r_hi=4)
    assert graph.tasks is graph.tasks
    with pytest.raises(ValueError, match="read-only"):
        graph.tasks[0].edges[0, 0] = 1


def test_graph_may_be_empty():
    graph = AgreementMultigraph.from_tasks([])
    assert (graph.subjects, graph.n, graph.groups) == ([], 0, [])
    assert graph.offsets.tolist() == [0]


# ---------------------------------------------------------------------------
# variance_ratio
# ---------------------------------------------------------------------------


def test_variance_ratio_hand_computed():
    table = rows_for_tasks({"t1": {"a": 1, "b": 3}, "t2": {"a": 5, "b": 7}})
    # within: var{1,3} = var{5,7} = 1.0; pooled var{1,3,5,7} = 5.0
    assert variance_ratio(table, "valence") == pytest.approx(0.2, abs=1e-15)


def test_variance_ratio_zero_within():
    table = rows_for_tasks({"t1": {"a": 2, "b": 2}, "t2": {"a": 7, "b": 7}})
    assert variance_ratio(table, "valence") == 0.0


def test_variance_ratio_degenerate_pool():
    table = rows_for_tasks({"t1": {"a": 5, "b": 5}, "t2": {"a": 5, "b": 5}})
    with pytest.raises(ValueError, match="cross-task variance"):
        variance_ratio(table, "valence")


def test_variance_ratio_needs_multirater_task():
    table = rows_for_tasks({"t1": {"a": 5}, "t2": {"b": 7}})
    with pytest.raises(ValueError, match="two or more"):
        variance_ratio(table, "valence")


# ---------------------------------------------------------------------------
# Columnar ResponseTable and its readers
# ---------------------------------------------------------------------------


def test_table_columns_and_record_view():
    table = table_from_rows(
        [("b", "t1", {"valence": 5, "likeness": 2.5}, 1.5), ("a", "t2", {"arousal": 3.0}, None, 0.0)]
    )
    assert table.subject_ids == ["b", "a"] and table.task_ids == ["t1", "t2"]
    assert table.subject_index == ["a", "b"] and table.subject_code.tolist() == [1, 0]
    assert np.array_equal(table.ratings("valence"), [5.0, np.nan], equal_nan=True)
    assert np.isnan(table.ratings("dominance")).all()
    assert np.array_equal(table.view_seconds, [1.5, np.nan], equal_nan=True)
    assert [(r.subject_id, r.scores, r.view_seconds, r.label_seconds) for r in table.rows] == [
        ("b", {"valence": 5.0, "likeness": 2.5}, 1.5, None),
        ("a", {"arousal": 3.0}, None, 0.0),
    ]


@pytest.mark.parametrize("row", [("a", "t1", {"valence": float("nan")}), ("a", "t1", {}, float("nan"))])
def test_table_from_rows_rejects_nan(row):
    # NaN marks a missing value in a column, so a record may not carry one
    with pytest.raises(ValueError, match="row 1: NaN"):
        table_from_rows([("b", "t1", {"valence": 5.0}), row])


def test_table_rejects_ragged_columns():
    with pytest.raises(ValueError, match="differ in length"):
        ResponseTable(["a"], ["t1"], {"valence": [5.0, 6.0]}, [1.0], [1.0])


TIMINGS = st.one_of(
    st.none(), st.sampled_from([0.0, -0.0]), st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
)


@st.composite
def timed_tables(draw):
    """Records with unique (subject, task) pairs, every dimension missing
    on some rows, missing or zero timings, and subject "u" untimed."""
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c", "u", "zz"]), st.sampled_from(["t1", "t2", "t3", "t4"])),
            unique=True,
            max_size=16,
        )
    )
    rows = []
    for s, t in pairs:
        scores = {}
        for dim in ("valence", "likeness"):
            lo, hi = DIMENSION_SCALES[dim]
            value = draw(st.one_of(st.none(), st.integers(int(lo * 10), int(hi * 10)).map(lambda v: v / 10)))
            if value is not None:
                scores[dim] = value
        view, label = (None, None) if s == "u" else (draw(TIMINGS), draw(TIMINGS))
        rows.append((s, t, scores, view, label))
    return table_from_rows(rows)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    table=timed_tables(),
    dimension=st.sampled_from(["valence", "likeness", "arousal"]),
    threshold=st.sampled_from([0.0, 0.5, 2.0]),
    scores=st.dictionaries(
        st.sampled_from(["a", "b", "u", "t1", "t2", "t4", "nobody"]),
        st.sampled_from([0.0, 0.1, 0.35, 0.5, 0.95, 1.0, float("nan")]),
    ),
)
def test_readers_match_record_loop_oracles(tmp_path, table, dimension, threshold, scores):
    assert repr(duration_rank(table)) == repr(oracle_duration_rank(table))
    got = categorize_table(table, dimension, threshold=threshold)
    assert got.rows == oracle_categorize_table(table, dimension, threshold=threshold).rows
    for mode, key, attr in (("subject-filter", "subject_id", "tau_mean"), ("image-filter", "task_id", "confidence")):
        reports = [SimpleNamespace(**{key: k, attr: v}) for k, v in scores.items()]
        want = oracle_overhead_curve(table, dimension, reports, mode)
        assert overhead_curve(table, dimension, reports, mode) == want
    write_responses(table, tmp_path / "got.csv")
    oracle_write_responses(table, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    # The file loads back to the same rows, and writes back to the same bytes.
    back = load_responses(str(tmp_path / "got.csv"))
    assert sorted(row_tuples(back)) == sorted(row_tuples(table))
    write_responses(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "got.csv").read_bytes()
