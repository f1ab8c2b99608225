import csv
import re
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from glba.baselines import CategoricalTable, categorize_table, dawid_skene_fit, duration_rank
from glba.ingest import (
    DIMENSION_SCALES,
    MISSING,
    AgreementMultigraph,
    ResponseTable,
    TaskGraph,
    _codes,
    _csv_fields,
    _read_fields,
    _scan_fields,
    _task_layout,
    build_multigraph,
    load_responses,
    variance_ratio,
)
from glba.model import FitConfig, fit
from glba.scoring import overhead_curve
from glba.simulate import sample_response_table
from glba.textio import write_responses
from helpers import (
    graph_from_tasks,
    make_task,
    oracle_agree,
    oracle_bin,
    oracle_build_multigraph,
    oracle_categorize_table,
    oracle_dawid_skene,
    oracle_duration_rank,
    oracle_load_responses,
    oracle_overhead_curve,
    oracle_percentile_table,
    oracle_task_layout,
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
    assert table.subject_index == ["a", "b"]
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
    "CRLF": f"{FULL}\r\na,t1,5,4,6,3,1,2\r\n\r\nb,t1,12,4,6,3,,\r\nc,t2,1,1,1,1,,\r\n",
    "CR only": f"{FULL}\ra,t1,5,4,6,3,1,2\r\rb,t1,12,4,6,3,,\rc,t2,1,1,1,1,,\r",
    "short row balances long row": f"{FULL}\na,t1,5,4,6,3,1\nb,t1,5,4,6,3,1,2,9\nc,t1,5,4,6,3,-1,2\n",
    "header only, no trailing newline": FULL,
    "whitespace-only line": f"{FULL}\na,t1,5,4,6,3,,\n   \nb,t1,5,4,6,3,,\n",
    "no trailing newline": f"{FULL}\na,t1,5,4,6,3,1,2\nb,t1,12,4,6,3,,",
    "final lone CR": f"{FULL}\na,t1,5,4,6,3,1,2\nb,t1,12,4,6,3,,\r",
    "breaks csv reads as text": f"{FULL}\na\x0cb,t1,5,4,6,3,,\nc,t1\x85,5,4,6,3,,\nd\u2028,t1,5,4\x1c,6,3,,\n",
}


def row_tuples(table):
    return [(r.subject_id, r.task_id, r.scores, r.view_seconds, r.label_seconds) for r in table.rows]


def load_outcome(loader, path):
    try:
        return ("rows", row_tuples(loader(path)))
    except ValueError as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("name", sorted(MALFORMED_CSVS))
def test_load_matches_dictreader_loader(tmp_path, name):
    path = tmp_path / "data.csv"
    path.write_text(MALFORMED_CSVS[name], encoding="utf-8", newline="")
    expected = load_outcome(oracle_load_responses, str(path))
    assert load_outcome(load_responses, str(path)) == expected


def test_load_rejects_ids_that_begin_with_a_comment_mark(tmp_path):
    # Every text reader skips '#' lines: such a task would vanish from the
    # graph file and such a subject from a fit report when read back.
    path = write_csv(tmp_path, "a,#t1,5,4,6,3,,\nb,t1,5,4,6,3,,\n #b,t2,5,4,6,3,,\nc,t#,5,4,6,3,,\n")
    message = "subject/task id begins with '#'"
    with pytest.raises(ValueError, match=rf"row 2: {message}; row 4: {message}$"):
        load_responses(path)


def test_load_counts_records_not_lines(tmp_path):
    # a quoted newline spans two lines but is one record; blank lines are not counted
    path = write_csv(tmp_path, '"x\ny",t1,5,4,6,3,,\n\nb,t1,12,4,6,3,,\n')
    with pytest.raises(ValueError, match=r"row 2: subject/task id holds a tab, comma, CR or LF; row 3: valence"):
        load_responses(path)


PLAIN_TOKENS = ["", " ", "a", "b", "t1", "t2", "5", "9", "9.5", "1", "-1", "x", "nan", "1e3", "a\tb", " #a"]
CSV_TOKENS = PLAIN_TOKENS + ['"c,d"', '"e\nf"']
LINE_ENDS = ["\n", "\r\n", "\r"]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    header=st.lists(
        st.sampled_from(FULL.split(",") + ["extra"]), min_size=6, max_size=10
    ),
    records=st.lists(st.lists(st.sampled_from(CSV_TOKENS), max_size=10), max_size=12),
    ends=st.one_of(
        st.sampled_from(LINE_ENDS).map(lambda end: [end] * 13),
        st.lists(st.sampled_from(LINE_ENDS), min_size=13, max_size=13),
    ),
    final=st.booleans(),
)
def test_load_matches_dictreader_loader_on_random_files(tmp_path, header, records, ends, final):
    # required columns first so that most files get past the header check
    header = FULL.split(",")[:6] + header
    lines = [",".join(header)] + [",".join(r) for r in records]
    path = tmp_path / "fuzz.csv"
    path.write_text(join_lines(lines, ends, final), encoding="utf-8", newline="")
    assert load_outcome(load_responses, str(path)) == load_outcome(oracle_load_responses, str(path))


def join_lines(lines, ends, final):
    """`lines`, each ended by the matching entry of `ends`, the last one
    only when `final`."""
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if final else text[: len(text) - len(ends[len(lines) - 1])]


def expanded(read):
    """A `_read_fields` result with each column written out as one field per
    record."""
    header, columns = read
    return header, [[distinct[i] for i in inverse.tolist()] for distinct, inverse in columns]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    header=st.lists(st.sampled_from(FULL.split(",") + ["extra"]), min_size=6, max_size=8),
    data=st.data(),
    ends=st.lists(st.sampled_from(LINE_ENDS + ["\n\n", "\r\n\r\n"]), min_size=11, max_size=11),
    final=st.booleans(),
)
def test_split_read_matches_csv_reader(tmp_path, header, data, ends, final):
    # Records mostly of the header's width, so that many files are plain.
    header = FULL.split(",")[:6] + header
    width = len(header)
    tokens = st.sampled_from(PLAIN_TOKENS + ['"q"'])
    lengths = st.sampled_from([width] * 6 + [width - 1, width + 1, 1])
    records = data.draw(st.lists(lengths.flatmap(lambda k: st.lists(tokens, min_size=k, max_size=k)), max_size=10))
    text = join_lines([",".join(header)] + [",".join(r) for r in records], ends, final)
    path = tmp_path / "fuzz.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert expanded(_read_fields(str(path))) == expanded(_csv_fields(str(path), text))
    assert load_outcome(load_responses, str(path)) == load_outcome(oracle_load_responses, str(path))


def test_written_ratings_take_the_split_read(tmp_path):
    # Every ratings file glba writes is plain (CRLF lines, no quotes).
    table, _ = sample_response_table(12, 30, 4, seed=0, with_timing=True)
    path = tmp_path / "ratings.csv"
    write_responses(table, path)
    data = path.read_bytes()
    text = data.decode("utf-8")
    split = _scan_fields(text, data)
    assert "\r\n" in text and split is not None
    assert expanded(split) == expanded(_csv_fields(str(path), text))


# Fields a byte scan can get wrong: multibyte UTF-8; U+00A0 and U+3000, which
# str.strip and float() take for whitespace; ids of 7, 8, 9, 16 and 17 bytes,
# around the scan's 8-byte key words, some differing in their last byte only;
# an id with a NUL next to the same id without it; ids that differ only by
# surrounding whitespace; one number written four ways; a 70-byte token,
# wider than any key.
SCAN_IDS = [
    "a", "a\x00", " a", "a ", "\u00a0a", "a\u3000", "é", "日本", "abcdefg", "abcdefgh", "abcdefgX",
    "abcdefghi", "p" * 16, "p" * 15 + "X", "p" * 17, "éééé", "日本日本日本", "q" * 70, "", "\u00a0",
]
SCAN_NUMBERS = ["", "5", "5.0", "05", " 5", "5\u00a0", "\u30005", "\u3000", "7.25", "x", "é", "r" * 70]


def table_codes(table):
    return table.subject_index, table.subject_code.tolist(), table.task_index, table.task_code.tolist()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    extra=st.lists(st.sampled_from(["extra", "valence"]), max_size=2),
    data=st.data(),
    end=st.sampled_from(["\n", "\r\n"]),
    final=st.booleans(),
)
def test_scan_matches_dictreader_loader_on_plain_files(tmp_path, extra, data, end, final):
    header = FULL.split(",") + extra
    fields = [st.sampled_from(SCAN_IDS)] * 2 + [st.sampled_from(SCAN_NUMBERS)] * (len(header) - 2)
    record = st.one_of(st.tuples(*fields), st.just(()))  # () is a blank line
    records = data.draw(st.lists(record, max_size=12))
    lines = [",".join(header)] + [",".join(r) for r in records]
    text = join_lines(lines, [end] * len(lines), final)
    path = tmp_path / "plain.csv"
    path.write_text(text, encoding="utf-8", newline="")
    scanned = _scan_fields(text, text.encode())
    assert scanned is not None and all(len(set(d)) == len(d) for d, _ in scanned[1])
    assert expanded(scanned) == expanded(_csv_fields(str(path), text))
    outcome = load_outcome(load_responses, str(path))
    assert outcome == load_outcome(oracle_load_responses, str(path))
    if outcome[0] == "rows":
        assert table_codes(load_responses(str(path))) == table_codes(oracle_load_responses(str(path)))


def test_scan_reads_one_very_wide_id_in_little_memory(tmp_path):
    # One 100,000-character id among 2,000 rows: gathering every id at the
    # widest id's width would take about 200 MB.
    rows = [f"{'w' * 100_000 if j == 1000 else f's{j % 50}'},t{j},5,,,,1.5,2" for j in range(2000)]
    text = FULL + "\n" + "\n".join(rows) + "\n"
    path = tmp_path / "wide.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _scan_fields(text, text.encode()) is not None
    tracemalloc.start()
    try:
        table = load_responses(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000
    expected = oracle_load_responses(str(path))
    assert row_tuples(table) == row_tuples(expected)
    assert table_codes(table) == table_codes(expected)


def test_load_names_the_line_of_an_oversized_field(tmp_path):
    # csv.reader refuses a field over csv.field_size_limit(); the split read
    # sends such a line to it, and both loaders name the file and the line.
    path = write_csv(tmp_path, "a,t1,5,4,6,3,,\n\n" + "b" * 200_000 + ",t1,5,4,6,3,,\nc,t1,5,4,6,3,,\n")
    expected = f"{path}: line 4: field larger than field limit ({csv.field_size_limit()})"
    for loader in (load_responses, oracle_load_responses):
        with pytest.raises(ValueError) as err:
            loader(path)
        assert str(err.value) == expected


@pytest.mark.parametrize(
    "body,line",
    [(b"a,t1,5,4,6,3,,\r\nb\xff,t1,5,4,6,3,,\r\n", 3), (b"a,t1,5,4,6,3,,\n\n\nb,t1,5,4,6,3,,\xe2\x82", 5)],
)
def test_load_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, body, line):
    path = tmp_path / "data.csv"
    path.write_bytes(CSV_HEADER.encode() + body)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line {line}: byte 0x(ff|e2) is not UTF-8"):
        load_responses(str(path))


# ---------------------------------------------------------------------------
# The percentile rule: hand-computed cases of the scalar oracle in helpers
# ---------------------------------------------------------------------------


def test_percentile_degenerate_pool():
    assert oracle_percentile_table([5.0] * 4) == {5.0: (1.0, 1.0)}


def test_percentile_counting():
    # brute-force count: 4 of 8 values are <= 2, 6 of 8 are <= 3
    t = oracle_percentile_table([1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0])
    assert t[2.0] == (0.5, 0.75)


def test_percentile_uniform_pool():
    t = oracle_percentile_table([float(k) for k in range(1, 10)])
    for k in range(1, 10):
        assert t[float(k)][0] == pytest.approx(k / 9, abs=0)


def test_percentile_top_of_scale_successor():
    # the successor is the next observed value, not the next scale value:
    # 1's is 9, and the top value's successor carries full mass
    t = oracle_percentile_table([1.0, 9.0])
    assert t == {1.0: (0.5, 1.0), 9.0: (1.0, 1.0)}


def test_agree_identical_ratings():
    t = oracle_percentile_table([1.0, 2.0, 3.0, 5.0, 9.0, 9.0])
    for delta in (0.01, 0.2, 0.99):
        assert oracle_agree(5.0, 5.0, t, delta) == 1


def test_agree_bimodal_pool_extremes():
    # ten 1s and ten 9s: percentile gap between the extremes is 0.5 > 0.2
    t = oracle_percentile_table([1.0] * 10 + [9.0] * 10)
    assert t == {1.0: (0.5, 1.0), 9.0: (1.0, 1.0)}
    assert oracle_agree(1.0, 9.0, t, 0.2) == 0
    assert oracle_agree(1.0, 9.0, t, 0.25) == 1


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


@pytest.mark.parametrize("min_raters", [0, -1])
def test_build_rejects_min_raters_below_one(min_raters):
    table = rows_for_tasks({"t1": {"a": 5, "b": 5}})
    with pytest.raises(ValueError, match=f"min_raters must be at least 1, got {min_raters}"):
        build_multigraph(table, "valence", min_raters=min_raters)


def test_build_matches_per_pair_agree_calls():
    rng = np.random.default_rng(5)
    ratings = {s: float(v) for s, v in zip("abcde", rng.integers(1, 10, size=5))}
    extra = {f"x{i}": float(v) for i, v in enumerate(rng.integers(1, 10, size=8))}
    table = rows_for_tasks({"t1": ratings, "t2": extra | {"pad": 5.0}})
    graph = build_multigraph(table, "valence", delta=0.2, min_raters=4)
    # oracle: the percentile table over the full retained pool, pair by pair
    pool = [oracle_bin(v) for v in list(ratings.values()) + list(extra.values()) + [5.0]]
    ptable = oracle_percentile_table(pool)
    task = next(t for t in graph.tasks if t.task_id == "t1")
    subs = task.subjects
    for i, si in enumerate(subs):
        for j, sj in enumerate(subs):
            if i == j:
                continue
            expected = oracle_agree(oracle_bin(ratings[si]), oracle_bin(ratings[sj]), ptable, 0.2)
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
        by_task.setdefault(t, []).append(oracle_bin(scores["valence"]))
    pool = [v for vs in by_task.values() if len(vs) >= min_raters for v in vs]
    table = oracle_percentile_table(pool)
    gaps = {
        0.5 * abs(pa - pb) + 0.5 * abs(pa_next - pb_next)
        for pa, pa_next in table.values()
        for pb, pb_next in table.values()
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


@settings(max_examples=100, deadline=None)
@given(rows=rating_tables(), delta=st.floats(0.001, 0.999))
def test_agree_symmetric_over_full_grid(rows, delta):
    # E[i, j] == E[j, i] for every rater pair of every task
    graph = build_multigraph(table_from_rows(rows), "valence", delta=delta, min_raters=1)
    for g in graph.groups:
        assert np.array_equal(g.edges, g.edges.transpose(0, 2, 1))


@settings(max_examples=100, deadline=None)
@given(rows=rating_tables(), data=st.data())
def test_agree_monotone_in_delta(rows, data):
    # raising delta never removes an edge; the deltas include the pool's
    # decision boundaries, where an edge appears
    gaps = pool_gaps(rows, 1)
    deltas = st.sampled_from(gaps) if gaps else st.floats(0.001, 0.999)
    low, high = sorted([data.draw(deltas), data.draw(st.floats(0.001, 0.999))])
    table = table_from_rows(rows)
    narrow, wide = (build_multigraph(table, "valence", delta=d, min_raters=1) for d in (low, high))
    for a, b in zip(narrow.groups, wide.groups):
        assert np.all(a.edges <= b.edges)


@settings(max_examples=100, deadline=None)
@given(rows=rating_tables(), min_raters=st.integers(1, 5), delta=st.floats(0.001, 0.999))
def test_percentile_invariant_under_pool_duplication(rows, min_raters, delta):
    # a copy of every task under a new id doubles the count of each pool
    # value: the fractions, and so every indicator, stay as they were
    assume(max(Counter(t for _, t, _ in rows).values()) >= min_raters)
    copies = rows + [(s, f"{t}-copy", scores) for s, t, scores in rows]
    once, twice = (
        build_multigraph(table_from_rows(r), "valence", delta=delta, min_raters=min_raters)
        for r in (rows, copies)
    )
    tasks = {t.task_id: t for t in twice.tasks}
    assert len(tasks) == 2 * once.n
    for task in once.tasks:
        for copy in (tasks[task.task_id], tasks[f"{task.task_id}-copy"]):
            assert copy.subjects == task.subjects
            assert np.array_equal(copy.edges, task.edges)


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
    graph = graph_from_tasks(given)
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
    graph = graph_from_tasks(
        [TaskGraph("t1", ["a", "b"], edges.astype(bool)), TaskGraph("t2", ["a", "b"], edges * 1.0)]
    )
    assert graph.groups[0].edges.dtype == np.uint8
    assert graph.groups[0].edges.tolist() == [edges.tolist(), edges.tolist()]


@pytest.mark.parametrize(
    "bad,match",
    [
        (lambda: make_task("", ["a", "b"], {}), r"^empty task id \(raters a,b\)$"),
        (lambda: make_task("t0", ["a", "b"], {}), r"^duplicate task id 't0'$"),
        (lambda: make_task("bad", ["a", ""], {}), r"^task 'bad' has an empty subject id$"),
        (lambda: make_task("bad", ["a", "c", "a"], {}), r"^task 'bad' lists a subject more than once$"),
        (
            lambda: make_task("bad", ["a", "b", "c"], {("a", "b"): 2}),
            r"^task 'bad' has an indicator other than 0 or 1$",
        ),
        (
            lambda: TaskGraph("bad", ["a", "b"], np.array([[0.0, 0.5], [1.0, 0.0]])),
            r"^task 'bad' has an indicator other than 0 or 1$",
        ),
        (
            lambda: TaskGraph("bad", ["a", "b"], np.array([[0, -1], [1, 0]])),
            r"^task 'bad' has an indicator other than 0 or 1$",
        ),
    ],
    ids=[
        "empty-id", "duplicate-id", "empty-subject", "repeated-rater", "indicator-2", "indicator-half",
        "indicator-minus-1",
    ],
)
def test_graph_rejects_malformed_task(bad, match):
    good = [make_task("t0", ["a", "b", "c"], {("a", "b"): 1}), make_task("t9", ["b", "c"], {})]
    # The packed constructor rejects the graph, so fit never sees it.
    with pytest.raises(ValueError, match=match):
        fit(graph_from_tasks([*good, bad()]), FitConfig(gamma=0.37, max_iter=1))


def test_graph_names_the_first_bad_indicator_in_the_order_given():
    # Checked before the cast to uint8: 2 would be stored as is, 0.5
    # truncated to 0 and -1 overflow.
    with pytest.raises(ValueError, match="^task 't' has an indicator other than 0 or 1$"):
        AgreementMultigraph(["t"], [2], ["a", "b"], [2, 0.5])
    with pytest.raises(ValueError, match="^task 'y' has an indicator other than 0 or 1$"):
        AgreementMultigraph(["z", "y", "x"], [2, 2, 2], ["a", "b"] * 3, [1, 0, 2, 0, -1, 0])


@pytest.mark.parametrize(
    "tasks,match",
    [
        ([make_task("#t1", ["a", "b"], {}), make_task("t2", ["a", "b"], {})], r"^task '#t1' begins with '#'"),
        (
            [make_task("t1", ["a", "b"], {}), make_task("t2", ["#b", "a"], {})],
            r"^task 't2' has a subject id that begins with '#'$",
        ),
        ([make_task("a\tb", ["a", "b"], {})], r"^task 'a\\tb' holds a tab, comma, CR or LF$"),
        (
            [make_task("t1", ["a,b", "c", "d"], {})],
            r"^task 't1' has a subject id that holds a tab, comma, CR or LF$",
        ),
        # glba pr reads its id lists stripped, so it could never name an id
        # with surrounding whitespace.
        ([make_task(" t1", ["a", "b"], {})], r"^task ' t1' has surrounding whitespace$"),
        ([make_task("t1\u3000", ["a", "b"], {})], r"^task 't1\\u3000' has surrounding whitespace$"),
        (
            [make_task("t1", ["a", "b"], {}), make_task("t2", ["a", " b"], {})],
            r"^task 't2' has a subject id that has surrounding whitespace$",
        ),
        ([make_task("t1", ["a\x0b", "b"], {})], r"^task 't1' has a subject id that has surrounding whitespace$"),
        ([make_task("t1", ["a", "b\xa0"], {})], r"^task 't1' has a subject id that has surrounding whitespace$"),
        ([make_task("#t1 ", ["a", "b"], {})], r"^task '#t1 ' begins with '#'$"),
    ],
    ids=[
        "task",
        "subject",
        "task-reserved",
        "subject-reserved",
        "task-space",
        "task-ideographic-space",
        "subject-space",
        "subject-vtab",
        "subject-nbsp",
        "task-comment-before-space",
    ],
)
def test_graph_rejects_ids_that_begin_with_a_comment_mark(tasks, match):
    with pytest.raises(ValueError, match=match):
        graph_from_tasks(tasks)


def test_graph_keeps_ids_with_inner_spaces():
    graph = graph_from_tasks([make_task("t 1", ["a b", "c"], {})])
    assert (graph.task_ids, graph.subjects) == (["t 1"], ["a b", "c"])


def test_graph_packs_tasks_in_any_order():
    tasks = [make_task(f"t{k}", ["a", "b", "c"][: 1 + k % 3], {}, default=k % 2) for k in range(7)]
    want = graph_from_tasks(tasks)
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
    graph = AgreementMultigraph([], [], [], [])
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
    assert table.subject_index == ["a", "b"] and table.subject_code.tolist() == [1, 0]
    assert table.task_index == ["t1", "t2"] and table.task_code.tolist() == [0, 1]
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
        ResponseTable(*_codes(["a"]), *_codes(["t1"]), {"valence": [5.0, 6.0]}, [1.0], [1.0])


def test_table_rejects_an_unknown_dimension():
    # Its column would be kept but never read or written.
    with pytest.raises(ValueError, match="unknown dimension 'valance'"):
        ResponseTable(*_codes(["a", "b"]), *_codes(["t", "t"]), {"valance": [3.0, 4.0]}, [MISSING] * 2, [MISSING] * 2)


def coded_table(kind, coded, rows):
    """A ResponseTable or CategoricalTable of the coded ids `coded` (subject
    index and codes, task index and codes) with data columns of `rows`."""
    if kind == "response":
        return ResponseTable(*coded, {"valence": [5.0] * rows}, [MISSING] * rows, [MISSING] * rows)
    return CategoricalTable(*coded, [1] * rows)


# Coded ids of two rows that both tables reject, and the fault named: an
# unsorted index, a repeated id, an unused id, a negative code, a code past
# the index, a code column of the wrong length, codes that are not integers,
# and ids the ratings loader would not read back as they are.
BAD_CODES = [
    ((["b", "a"], [0, 1], ["t"], [0, 0]), "subject index is not sorted: 'b' before 'a'"),
    ((["a", "b"], [0, 1], ["t", "t"], [0, 1]), "task index repeats 't'"),
    ((["a", "b", "c"], [0, 1], ["t"], [0, 0]), "subject id 'c' is used by no row"),
    ((["a", "b"], [0, -1], ["t"], [0, 0]), "subject code -1 outside 0..1"),
    ((["a", "b"], [0, 1], ["t"], [0, 1]), "task code 1 outside 0..0"),
    ((["a", "b"], [0, 1], ["t"], [0]), "columns differ in length"),
    ((["a", "b"], [0, 1], ["t"], [0, 0, 0]), "columns differ in length"),
    ((["a", "b"], [0.0, 1.0], ["t"], [0, 0]), "subject codes are not integers"),
    # These four ids name their cases as the tests were first named.
    pytest.param(
        (["", "a"], [0, 1], ["t"], [0, 0]), "subject id '' is empty", id="coded8-empty subject_id or task_id: ''"
    ),
    pytest.param(
        (["a", "b,c"], [0, 1], ["t"], [0, 0]),
        "subject id 'b,c' holds a tab, comma, CR or LF",
        id="coded9-subject/task id contains a reserved character: 'b,c'",
    ),
    pytest.param(
        (["a", "b"], [0, 1], ["t\n"], [0, 0]),
        "task id 't\\n' holds a tab, comma, CR or LF",
        id="coded10-subject/task id contains a reserved character: 't\\n'",
    ),
    pytest.param(
        (["#a", "b"], [0, 1], ["t"], [0, 0]),
        "subject id '#a' begins with '#'",
        id="coded11-subject/task id begins with '#', which marks a comment line: '#a'",
    ),
    ((["a", "b"], [0, 1], [" x"], [0, 0]), "task id ' x' has surrounding whitespace"),
]


@pytest.mark.parametrize("kind", ["response", "categorical"])
@pytest.mark.parametrize("coded, message", BAD_CODES)
def test_tables_reject_bad_codes(kind, coded, message):
    with pytest.raises(ValueError, match=f"^{kind} table.*{re.escape(message)}$"):
        coded_table(kind, coded, 2)
    coded_table(kind, (["a", "b"], [0, 1], ["t"], [0, 0]), 2)  # the same table, coded right


@pytest.mark.parametrize("kind", ["response", "categorical"])
def test_tables_reject_ragged_data_columns(kind):
    with pytest.raises(ValueError, match="differ in length"):
        coded_table(kind, (["a", "b"], [0, 1], ["t"], [0, 0]), 3)


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
    want = oracle_categorize_table(table, dimension, threshold=threshold)
    assert table_codes(got) == table_codes(want)
    assert np.array_equal(got.categories, want.categories) and got.categories.dtype == want.categories.dtype
    outcomes = []
    with np.printoptions(floatmode="unique"):  # every array element in full
        for ds, labels in ((dawid_skene_fit, got), (oracle_dawid_skene, want)):
            try:
                outcomes.append(repr(ds(labels)))
            except ValueError as exc:  # no labels on the drawn dimension
                outcomes.append(repr(exc))
    assert outcomes[0] == outcomes[1]
    subject_reports = [SimpleNamespace(subject_id=k, tau_mean=v) for k, v in scores.items()]
    image_scores = SimpleNamespace(task_id=list(scores), confidence=list(scores.values()))
    for mode, reports in (("subject-filter", subject_reports), ("image-filter", image_scores)):
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


def assert_same_layout(got, expected):
    assert (got.task_ids, got.subjects, got.n_tasks) == (expected.task_ids, expected.subjects, expected.n_tasks)
    for name in ("offsets", "scode", "ratings"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name


@settings(max_examples=200, deadline=None)
@given(
    table=timed_tables(), dimension=st.sampled_from(["valence", "likeness", "arousal"]), min_raters=st.integers(1, 3)
)
def test_task_layout_matches_record_loop_oracle(table, dimension, min_raters):
    # Tables where every row, some rows or no row carries the dimension.
    assert_same_layout(_task_layout(table, dimension, min_raters), oracle_task_layout(table, dimension, min_raters))


def test_task_layout_of_codes_wider_than_16_bits():
    # 2^16 + 3 tasks, so the two stable sorts run on full-width codes.
    rng = np.random.default_rng(5)
    n = (1 << 16) + 3
    tasks = [f"t{k:06d}" for k in rng.permutation(n).tolist()]
    raters = rng.integers(0, 3, size=n)
    sids = [f"s{r}" for r in raters.tolist()] + [f"s{r}" for r in ((raters[:500] + 1) % 3).tolist()]
    tids = tasks + tasks[:500]
    ratings = rng.integers(1, 10, size=len(sids)).astype(float)
    missing = [MISSING] * len(sids)
    table = ResponseTable(*_codes(sids), *_codes(tids), {"valence": ratings}, missing, missing)
    for min_raters in (1, 2):
        assert_same_layout(_task_layout(table, "valence", min_raters), oracle_task_layout(table, "valence", min_raters))
