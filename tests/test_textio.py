import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glba import textio
from glba.ingest import MISSING, AgreementMultigraph, ResponseTable, _codes, _ids_at, load_responses
from glba.model import EPS_POS, FitConfig, FitReport, ModelParams, Priors, fit
from glba.scoring import ImageReport, PRResult, SubjectReport
from glba.ingest import build_multigraph
from glba.simulate import sample_response_table
from helpers import image_columns, oracle_pair_indicators, oracle_read_multigraph, oracle_write_table, random_graph


def test_multigraph_roundtrip(tmp_path):
    graph = random_graph(np.random.default_rng(1), m=9, n=7, r_lo=2, r_hi=6)
    path = tmp_path / "graph.tsv"
    textio.write_multigraph(graph, path)
    back = textio.read_multigraph(path)
    assert back.subjects == graph.subjects
    for t1, t2 in zip(graph.tasks, back.tasks):
        assert t1.task_id == t2.task_id
        assert t1.subjects == t2.subjects
        assert np.array_equal(t1.edges, t2.edges)


def test_multigraph_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("not a graph\n")
    with pytest.raises(ValueError, match="header is not 'task_id\\\\tsubjects\\\\tindicators'") as info:
        textio.read_multigraph(path)
    assert str(info.value).startswith(f"{path}:1: ")


@pytest.mark.parametrize("seed", range(4))
def test_write_multigraph_matches_row_template_oracle(tmp_path, seed):
    # Tasks of 1 to 9 raters, and (seed 0) a graph with no tasks: the graph
    # writer writes the row template's bytes of its records.
    graph = random_graph(np.random.default_rng(seed), m=12, n=20 if seed else 0, r_lo=1, r_hi=9)
    records = [(t.task_id, ",".join(t.subjects), oracle_pair_indicators(t)) for t in graph.tasks]
    assert seed == 0 or any(t.n_raters == 1 for t in graph.tasks)
    head = [("multigraph", f"tasks={graph.n} subjects={graph.m}")]
    textio.write_multigraph(graph, tmp_path / "got.tsv")
    oracle_write_table(tmp_path / "want.tsv", textio._GRAPH_COLUMNS, records, head)
    assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()


def test_multigraph_skips_blank_and_whitespace_only_lines(tmp_path):
    path = tmp_path / "graph.tsv"
    path.write_text("task_id\tsubjects\tindicators\n\n   \nt1\ta,b\t10\n\t\n")
    graph = textio.read_multigraph(path)
    assert graph.task_ids == ["t1"] and graph.subjects == ["a", "b"]


def test_multigraph_rejects_counts_its_header_does_not_state(tmp_path):
    graph = random_graph(np.random.default_rng(3), m=9, n=7, r_lo=2, r_hi=6)
    path = tmp_path / "graph.tsv"
    textio.write_multigraph(graph, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")  # the last record lost
    with pytest.raises(ValueError, match=f"header states tasks=7 subjects={graph.m}, file holds tasks=6 ") as info:
        textio.read_multigraph(path)
    assert str(info.value).startswith(f"{path}: ")
    path.write_text("".join([lines[0].replace(" tasks=7", ""), *lines[1:]]), encoding="utf-8")
    assert textio.read_multigraph(path).n == 7


@pytest.mark.parametrize("seed", range(5))
def test_pair_indicators_match_loop(tmp_path, seed):
    graph = random_graph(np.random.default_rng(seed), m=12, n=20, r_lo=1, r_hi=9)
    textio.write_multigraph(graph, tmp_path / "graph.tsv")
    records = (tmp_path / "graph.tsv").read_text(encoding="utf-8").splitlines()[2:]
    assert [ln.split("\t")[2] for ln in records] == [oracle_pair_indicators(t) for t in graph.tasks]


@pytest.mark.parametrize("seed", range(3))
def test_multigraph_write_read_write_byte_identical(tmp_path, seed):
    table, _ = sample_response_table(15, 40, (2, 9), seed=seed)
    graphs = [
        random_graph(np.random.default_rng(seed), m=12, n=20, r_lo=1, r_hi=9),
        build_multigraph(table, "valence", min_raters=1),
    ]
    for k, graph in enumerate(graphs):
        first, second = tmp_path / f"g{k}a.tsv", tmp_path / f"g{k}b.tsv"
        textio.write_multigraph(graph, first)
        textio.write_multigraph(textio.read_multigraph(first), second)
        assert first.read_bytes() == second.read_bytes()
        body = first.read_text().splitlines()[2:]
        assert [ln.split("\t")[2] for ln in body] == [oracle_pair_indicators(t) for t in graph.tasks]


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_fit_report_independent_of_graph_record_order(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("order")
    graph = random_graph(np.random.default_rng(4), m=10, n=14, r_lo=2, r_hi=6)
    config = FitConfig(gamma=0.37, max_iter=30, eb_max_rounds=2)

    def fit_bytes(records, name):
        path = tmp / f"{name}.tsv"
        path.write_text("".join([*head, *records]), encoding="utf-8")
        textio.write_fit_report(fit(textio.read_multigraph(path), config), tmp / f"{name}.fit")
        return (tmp / f"{name}.fit").read_bytes()

    textio.write_multigraph(graph, tmp / "graph.tsv")
    lines = (tmp / "graph.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    head, records = lines[:2], lines[2:]
    shuffled = data.draw(st.permutations(records))
    assert fit_bytes(shuffled, "shuffled") == fit_bytes(records, "sorted")


GRAPH_HEAD = "# multigraph tasks=2 subjects=3\ntask_id\tsubjects\tindicators\n"


# Records whose fault the AgreementMultigraph constructor finds, named by
# the path alone; the reader names the line of every other fault (the
# record's last line).
CONSTRUCTOR_FAULTS = {"t1\ta,a,b\t111111", "t1\ta,,b\t111111", "t1\t\t", "t1\ta, b\t11", "t1\ta,#b\t11"}


@pytest.mark.parametrize(
    "record,match",
    [
        ("t1\ta,b,c\t222222", r"task 't1' has an indicator other than 0 or 1"),
        ("t1\ta,b,c\t01x010", r"task 't1' has an indicator other than 0 or 1"),
        ("t1\ta,b,c\t01 010", r"task 't1' has an indicator other than 0 or 1"),
        ("t1\ta,b,c\t01\u00e9010", r"task 't1' has an indicator other than 0 or 1"),
        ("t1\ta,b\t11\nt1\ta,c\t11", r"empty or duplicate task_id 't1'"),
        ("t1\ta,a,b\t111111", r"task 't1' lists a subject more than once"),
        ("t1\ta,,b\t111111", r"task 't1' has an empty subject id"),
        ("t1\t\t", r"task 't1' has an empty subject id"),
        ("\ta,b\t11", r"empty or duplicate task_id ''"),
        ("t1\ta,b,c\t1111", r"task 't1' has 4 indicators, expected 6"),
        ("t0\ta,b\t11\nt1\ta,b,c\t1111", r"task 't1' has 4 indicators, expected 6"),
        ("t1\ta,b", r"expected 3 fields, got 2"),
        ("t1\ta,b\t11\t", r"expected 3 fields, got 4"),
        (" t1\ta,b\t11", r"task_id ' t1' has surrounding whitespace"),
        ("t,1\ta,b\t11", r"task_id 't,1' holds a tab, comma, CR or LF"),
        # A fault _read_table finds wins over an indicator fault on an earlier line.
        ("t1\ta,b\t1x\nt1\ta,b\t11", r"empty or duplicate task_id 't1'"),
        ("t1\ta, b\t11", r"task 't1' has a subject id that has surrounding whitespace"),
        ("t1\ta,#b\t11", r"task 't1' has a subject id that begins with '#'"),
    ],
)
def test_multigraph_rejects_malformed_records(tmp_path, record, match):
    path = tmp_path / "bad.tsv"
    path.write_text(GRAPH_HEAD + record + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=match) as info:
        textio.read_multigraph(path)
    line = 3 + record.count("\n")
    assert str(info.value).startswith(f"{path}: " if record in CONSTRUCTOR_FAULTS else f"{path}:{line}: ")


def _break_record(kind, record, pick):
    """`record` with one fault of `kind` (most kinds of
    test_multigraph_rejects_malformed_records, plus a record turned into a
    comment line), as one or two records; `pick(n)` draws a position below
    n."""
    tid, raters, flags = record.split("\t")
    subjects = raters.split(",")
    if kind == "fields":
        return [f"{tid}\t{raters}"] if pick(2) else [f"{record}\t{flags}"]
    if kind == "count":
        return [f"{tid}\t{raters}\t{flags[1:] if flags and pick(2) else flags + '1'}"]
    if kind == "indicator":
        at, bad = pick(len(flags) + 1), "2x \u00e9"[pick(4)]
        return [f"{tid}\t{raters}\t{flags[:at]}{bad}{flags[at + 1 :]}"]
    if kind == "duplicate-id":
        return [record, record]
    if kind == "empty-id":
        return [f"\t{raters}\t{flags}"]
    if kind == "no-raters":
        return [f"{tid}\t\t"]
    if kind == "comment-record":
        return ["#" + record]
    if kind == "spaced-id":
        return [f"{tid} \t{raters}\t{flags}" if pick(2) else f"\u3000{tid}\t{raters}\t{flags}"]
    if kind == "comma-id":
        return [f"{tid},x\t{raters}\t{flags}"]
    at = pick(len(subjects))
    subjects[at] = {
        "repeated-rater": subjects[pick(len(subjects))],
        "empty-subject": "",
        "comment-subject": "#" + subjects[at],
    }[kind]
    return [f"{tid}\t{','.join(subjects)}\t{flags}"]


FAULTS = [
    "fields", "count", "indicator", "duplicate-id", "empty-id", "no-raters",
    "comment-record", "spaced-id", "comma-id", "repeated-rater", "empty-subject", "comment-subject",
]


def _read_outcome(reader, path):
    """A reader's packed fields, or its error text."""
    try:
        g = reader(path)
    except ValueError as exc:
        return "error", str(exc)
    groups = [(k.edges.dtype.str, *(a.tolist() for a in k)) for k in g.groups]
    return g.task_ids, g.subjects, g.offsets.tolist(), g.flat_sidx.tolist(), g.degree.tolist(), groups


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_read_multigraph_matches_record_loop(tmp_path_factory, data):
    # Shuffled records, comment, blank and whitespace-only lines, CRLF
    # endings, up to two faults per file and a '# multigraph' line with or
    # without counts: both readers give the same packed graph or the same
    # error.
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    graph = random_graph(np.random.default_rng(seed), m=8, n=data.draw(st.integers(0, 10)), r_lo=1, r_hi=5)
    tmp = tmp_path_factory.mktemp("graphs")
    textio.write_multigraph(graph, tmp / "clean.tsv")
    counts, head, *records = (tmp / "clean.tsv").read_text(encoding="utf-8").splitlines()
    records = data.draw(st.permutations(records), label="order")
    faulty = st.lists(st.integers(0, len(records) - 1), max_size=2, unique=True) if records else st.just([])
    for at in sorted(data.draw(faulty, label="faulty records"), reverse=True):
        kind = data.draw(st.sampled_from(FAULTS), label="fault")
        records[at : at + 1] = _break_record(kind, records[at], lambda n: data.draw(st.integers(0, max(n - 1, 0))))
    for _ in range(data.draw(st.integers(0, 2), label="comments")):
        line = data.draw(st.sampled_from(["#", "# note\tx", "", "  ", "\t"]))
        records.insert(data.draw(st.integers(0, len(records))), line)
    newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
    counts = data.draw(st.sampled_from([counts, "# multigraph"]), label="header")
    path = tmp / "graph.tsv"
    path.write_bytes(newline.join([counts, head, *records, ""]).encode("utf-8"))
    assert _read_outcome(textio.read_multigraph, path) == _read_outcome(oracle_read_multigraph, path)


def test_fit_report_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    params = ModelParams(
        subjects=["a", "b", "c"],
        tau=rng.uniform(0, 1, 3),
        alpha=rng.uniform(0.5, 4, 3),
        beta=rng.uniform(0.5, 4, 3),
        gamma=0.37,
    )
    report = FitReport(
        params=params,
        priors=Priors(tau0=0.61234, s0=1.75),
        iterations=42,
        converged=True,
        loglik_trace=[],
        fallback_subjects=["b"],
    )
    path = tmp_path / "fit.tsv"
    textio.write_fit_report(report, path)
    back = textio.read_fit_report(path)
    assert back.params.subjects == ["a", "b", "c"]
    assert np.array_equal(back.params.tau, params.tau)
    assert np.array_equal(back.params.alpha, params.alpha)
    assert back.params.gamma == 0.37
    assert back.priors.tau0 == 0.61234
    assert back.iterations == 42
    assert back.converged
    assert back.fallback_subjects == ["b"]


REPORT = (
    "# gamma 0.37\n# tau0 0.6\n# s0 1.5\n# iterations 12\n# converged 1\n"
    "subject_id\ttau\talpha\tbeta\n"
    "a\t0.9\t2.0\t1.0\n"
    "b\t0.1\t1.0\t3.0\n"
)


def test_fit_report_reads_hand_written_file(tmp_path):
    path = tmp_path / "fit.tsv"
    path.write_text(REPORT)
    report = textio.read_fit_report(path)
    assert report.params.subjects == ["a", "b"]
    assert report.params.tau.tolist() == [0.9, 0.1]
    assert report.params.beta.tolist() == [1.0, 3.0]
    assert report.priors.s0 == 1.5 and report.iterations == 12 and report.converged


@pytest.mark.parametrize(
    "old,new,match",
    [
        ("a\t0.9\t2.0\t1.0\n", "a\t0.9\t2.0\n", r":7: expected 4 fields, got 3"),
        ("a\t0.9\t2.0\t1.0\n", "a\t0.9\t2.0\t1.0\t5\n", r":7: expected 4 fields, got 5"),
        ("b\t0.1", "a\t0.1", r":8: empty or duplicate subject_id 'a'"),
        ("b\t0.1", "\t0.1", r":8: empty or duplicate subject_id ''"),
        ("b\t0.1", " b\t0.1", r":8: subject_id ' b' has surrounding whitespace"),
        ("b\t0.1", "b,c\t0.1", r":8: subject_id 'b,c' holds a tab, comma, CR or LF"),
        ("a\t0.9", "a\tx", r":7: tau 'x' is not a number"),
        ("a\t0.9", "a\tnan", r":7: tau .*: needs tau in \[0, 1\]"),
        ("a\t0.9", "a\t1.5", r":7: tau .*: needs tau in \[0, 1\]"),
        ("a\t0.9", "a\t-0.1", r":7: tau .*: needs tau in \[0, 1\]"),
        ("b\t0.1\t1.0", "b\t0.1\tinf", r":8: tau .*finite alpha and beta"),
        ("b\t0.1\t1.0", "b\t0.1\t0.0", r":8: tau .*finite alpha and beta"),
        ("\t3.0\n", "\tnan\n", r":8: tau .*finite alpha and beta"),
        ("\t3.0\n", "\t-inf\n", r":8: tau .*finite alpha and beta"),
        ("# gamma 0.37", "# gamma nan", r":1: non-finite gamma 'nan'"),
        ("# s0 1.5", "# s0 big", r":3: unparseable s0 'big'"),
        ("# converged 1", "# converged yes", r":5: unparseable converged 'yes'"),
        ("# gamma 0.37", "# gamma 0.7", r":1: gamma '0.7' is not in \(0, 0.5\)"),
        ("# gamma 0.37", "# gamma 0.5", r":1: gamma '0.5' is not in \(0, 0.5\)"),
        ("# gamma 0.37", "# gamma 0", r":1: gamma '0' is not in \(0, 0.5\)"),
        ("# tau0 0.6", "# tau0 5", r":2: tau0 '5' is not in \[0, 1\]"),
        ("# tau0 0.6", "# tau0 -0.1", r":2: tau0 '-0.1' is not in \[0, 1\]"),
        ("# s0 1.5", "# s0 -1", r":3: s0 '-1' is not > 0"),
        ("# s0 1.5", "# s0 0.0", r":3: s0 '0.0' is not > 0"),
        ("# iterations 12", "# iterations -3", r":4: iterations '-3' is not >= 0"),
        ("# converged 1", "# converged 7", r":5: converged '7' is not 0 or 1"),
        ("# converged 1", "# converged -1", r":5: converged '-1' is not 0 or 1"),
    ],
)
def test_fit_report_rejects_malformed_lines(tmp_path, old, new, match):
    path = tmp_path / "fit.tsv"
    assert old in REPORT
    path.write_text(REPORT.replace(old, new, 1))
    with pytest.raises(ValueError, match=match) as info:
        textio.read_fit_report(path)
    assert str(info.value).startswith(f"{path}:")


@pytest.mark.parametrize("key", ["gamma", "tau0", "s0", "iterations", "converged"])
def test_fit_report_rejects_missing_header(tmp_path, key):
    path = tmp_path / "fit.tsv"
    path.write_text("".join(ln + "\n" for ln in REPORT.splitlines() if not ln.startswith(f"# {key} ")))
    with pytest.raises(ValueError, match=f"{path}: missing header line\\(s\\): # {key}$"):
        textio.read_fit_report(path)


def test_subject_reports_roundtrip(tmp_path):
    reports = [
        SubjectReport(
            subject_id=f"s{i}",
            tau_mean=i / 10,
            tau_by_gamma={0.3: i / 10, 0.48: i / 9},
            alpha=1.5,
            beta=2.5,
            beta_variance=0.04,
            rank=i + 1,
        )
        for i in range(4)
    ]
    path = tmp_path / "subjects.tsv"
    textio.write_subject_reports(reports, path)
    back = textio.read_subject_reports(path)
    assert [r.subject_id for r in back] == [r.subject_id for r in reports]
    assert all(a.tau_by_gamma == b.tau_by_gamma for a, b in zip(back, reports))
    assert [r.rank for r in back] == [1, 2, 3, 4]


def test_image_reports_roundtrip(tmp_path):
    reports = [
        ImageReport(
            task_id="t1",
            adjusted_score=0.5,
            confidence=0.8,
            weighted_mean=0.625,
            raw_mean=5.5,
            n_raters=4,
            dimension="valence",
            direction="high",
        )
    ]
    path = tmp_path / "images.tsv"
    textio.write_image_reports(image_columns(reports), path)
    back = textio.read_image_reports(path)
    assert list(back) == reports


SUBJECTS_HEAD = "rank\tsubject_id\ttau_mean\talpha\tbeta\tbeta_variance\ttau[0.3]\n"
SUBJECT_ROW = "1\ts1\t0.5\t2.0\t1.0\t0.05\t0.5\n"


@pytest.mark.parametrize(
    "text,line,match",
    [
        ("", None, "empty file"),
        (SUBJECT_ROW, 1, "header is not"),  # no header row
        (SUBJECTS_HEAD.replace("tau_mean", "tau"), 1, "header is not"),
        (SUBJECTS_HEAD.replace("tau[0.3]", "tau[x]"), 1, "header is not"),
        (SUBJECTS_HEAD.replace("\n", "\tnote\n"), 1, "header is not"),
        (SUBJECTS_HEAD + "1\ts1\t0.5\n", 2, "expected 7 fields, got 3"),
        (SUBJECTS_HEAD + SUBJECT_ROW + SUBJECT_ROW.replace("1\t", "2\t", 1), 3, "duplicate subject_id 's1'"),
        (SUBJECTS_HEAD + SUBJECT_ROW.replace("s1", ""), 2, "empty or duplicate subject_id ''"),
        (SUBJECTS_HEAD + SUBJECT_ROW.replace("s1", "s1 "), 2, "subject_id 's1 ' has surrounding whitespace"),
        (SUBJECTS_HEAD + SUBJECT_ROW.replace("s1", "s,1"), 2, "subject_id 's,1' holds a tab, comma, CR or LF"),
        (SUBJECTS_HEAD + SUBJECT_ROW.replace("s1", "#s1"), 2, "subject_id '#s1' begins with '#'"),
        (
            SUBJECTS_HEAD.replace("\n", "\ttau[0.30]\n") + SUBJECT_ROW.replace("\n", "\t0.5\n"),
            1,
            r"header columns 'tau\[0.3\]' and 'tau\[0.30\]' both stand for 0.3$",
        ),
        (SUBJECTS_HEAD + SUBJECT_ROW.replace("0.05", "abc"), 2, "beta_variance 'abc' is not a number"),
        (SUBJECTS_HEAD + SUBJECT_ROW.replace("\t0.5\n", "\t-\n"), 2, "tau\\[0.3\\] '-' is not a number"),
        (SUBJECTS_HEAD + SUBJECT_ROW.replace("1\t", "1.5\t", 1), 2, "rank '1.5' is not an integer"),
    ],
    ids=[
        "empty",
        "no-header",
        "wrong-column",
        "bad-gamma-column",
        "extra-column",
        "short-row",
        "duplicate-id",
        "empty-id",
        "spaced-id",
        "comma-id",
        "comment-mark-id",
        "repeated-gamma",
        "bad-number",
        "bad-tau",
        "non-integer-rank",
    ],
)
def test_subject_reports_reject_malformed(tmp_path, text, line, match):
    path = tmp_path / "subjects.tsv"
    path.write_text(text)
    where = f"{path}:{line}: " if line else f"{path}: "
    with pytest.raises(ValueError, match=match) as exc:
        textio.read_subject_reports(path)
    assert str(exc.value).startswith(where)


IMAGES_HEAD = (
    "task_id\tadjusted_score\tconfidence\tweighted_mean\traw_mean\tn_raters"
    "\tweighted_mean_defined\tdimension\tdirection\n"
)
IMAGE_ROW = "t1\t0.5\t0.8\tnan\t5.5\t4\t0\tvalence\thigh\n"


@pytest.mark.parametrize(
    "text,line,match",
    [
        ("\n", None, "empty file"),
        (IMAGE_ROW, 1, "header is not"),  # no header row
        (IMAGES_HEAD.replace("\n", "\textra\n"), 1, "header is not"),
        (IMAGES_HEAD.replace("confidence", "conf"), 1, "header is not"),
        (IMAGES_HEAD + "t1\t0.5\n", 2, "expected 9 fields, got 2"),
        (IMAGES_HEAD + IMAGE_ROW + IMAGE_ROW, 3, "duplicate task_id 't1'"),
        (IMAGES_HEAD + IMAGE_ROW[2:], 2, "empty or duplicate task_id ''"),
        (IMAGES_HEAD + IMAGE_ROW.replace("t1", " t1"), 2, "task_id ' t1' has surrounding whitespace"),
        (IMAGES_HEAD + IMAGE_ROW.replace("t1", "t,1"), 2, "task_id 't,1' holds a tab, comma, CR or LF"),
        (IMAGES_HEAD + IMAGE_ROW.replace("0.8", "high"), 2, "confidence 'high' is not a number"),
        (IMAGES_HEAD + IMAGE_ROW.replace("\t4\t", "\t4.0\t"), 2, "n_raters '4.0' is not an integer"),
        (IMAGES_HEAD + IMAGE_ROW.replace("\t0\t", "\t7\t"), 2, "weighted_mean_defined '7' is not 0 or 1"),
        (IMAGES_HEAD + IMAGE_ROW.replace("high", "sideways"), 2, "direction 'sideways' is not high or low"),
    ],
    ids=[
        "blank",
        "no-header",
        "extra-column",
        "wrong-column",
        "short-row",
        "duplicate-id",
        "empty-id",
        "spaced-id",
        "comma-id",
        "bad-number",
        "non-integer-count",
        "non-flag-defined",
        "bad-direction",
    ],
)
def test_image_reports_reject_malformed(tmp_path, text, line, match):
    path = tmp_path / "images.tsv"
    path.write_text(text)
    where = f"{path}:{line}: " if line else f"{path}: "
    with pytest.raises(ValueError, match=match) as exc:
        textio.read_image_reports(path)
    assert str(exc.value).startswith(where)


@pytest.mark.parametrize(
    "read,head,row",
    [(textio.read_subject_reports, SUBJECTS_HEAD, SUBJECT_ROW), (textio.read_image_reports, IMAGES_HEAD, IMAGE_ROW)],
    ids=["subjects", "images"],
)
def test_report_readers_skip_comment_lines(tmp_path, read, head, row):
    path = tmp_path / "report.tsv"
    path.write_text(head + row)
    plain = read(path)
    path.write_text("# note\n" + head + "# another note\n" + row + "#\n")
    assert repr(read(path)) == repr(plain)


def test_image_reports_read_undefined_weighted_mean(tmp_path):
    path = tmp_path / "images.tsv"
    path.write_text(IMAGES_HEAD + IMAGE_ROW)
    (report,) = textio.read_image_reports(path)
    assert np.isnan(report.weighted_mean) and not report.weighted_mean_defined


def test_responses_roundtrip(tmp_path):
    table, _ = sample_response_table(6, 15, 3, seed=5, with_timing=True)
    path = tmp_path / "ratings.csv"
    textio.write_responses(table, path)
    back = load_responses(path)
    orig = sorted((r.subject_id, r.task_id) for r in table.rows)
    got = sorted((r.subject_id, r.task_id) for r in back.rows)
    assert orig == got
    by_key = {(r.subject_id, r.task_id): r for r in back.rows}
    for r in table.rows:
        assert by_key[(r.subject_id, r.task_id)].scores == r.scores


def _coded_rows(table):
    sids = _ids_at(table.subject_index, table.subject_code)
    return sorted(zip(sids, _ids_at(table.task_index, table.task_code), table.ratings("valence").tolist()))


# Ids holding the characters the text formats reserve, the comment mark and spaces.
RESERVED_IDS = st.lists(st.text(alphabet="ab\t,\r\n# ", max_size=3), min_size=1, max_size=4, unique=True)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_constructors_accept_only_ids_that_read_back(tmp_path_factory, data):
    # Whatever table or graph a constructor accepts writes and reads back equal.
    tmp = tmp_path_factory.mktemp("ids")
    subjects, tasks = data.draw(RESERVED_IDS, label="subjects"), data.draw(RESERVED_IDS, label="tasks")
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(subjects), st.sampled_from(tasks)), min_size=1, unique=True))
    sindex, scode = _codes([s for s, _ in pairs])
    tindex, tcode = _codes([t for _, t in pairs])
    missing = np.full(len(pairs), MISSING)
    try:
        table = ResponseTable(sindex, scode, tindex, tcode, {"valence": 1.0 + scode % 9}, missing, missing)
    except ValueError:
        pass
    else:
        textio.write_responses(table, tmp / "ratings.csv")
        back = load_responses(tmp / "ratings.csv")
        assert (back.subject_index, back.task_index) == (table.subject_index, table.task_index)
        assert _coded_rows(back) == _coded_rows(table)

    raters = [data.draw(st.lists(st.sampled_from(subjects), min_size=1, unique=True)) for _ in tasks]
    sizes = np.array([len(r) for r in raters])
    flags = data.draw(st.lists(st.integers(0, 1), min_size=int(sizes @ (sizes - 1)), max_size=int(sizes @ (sizes - 1))))
    try:
        graph = AgreementMultigraph(tasks, sizes, [s for r in raters for s in r], flags)
    except ValueError:
        return
    textio.write_multigraph(graph, tmp / "graph.tsv")
    assert _read_outcome(textio.read_multigraph, tmp / "graph.tsv") == _read_outcome(lambda _: graph, None)


def test_pr_and_overhead_files(tmp_path):
    result = PRResult(ks=[1, 2], precision=[1.0, 0.5], recall=[0.5, 0.5], top_k={2: 0.5})
    pr_path = tmp_path / "pr.tsv"
    textio.write_pr_result(result, pr_path)
    text = pr_path.read_text()
    assert "# top_2 0.5" in text
    assert "1\t1.0\t0.5" in text

    oh_path = tmp_path / "overhead.tsv"
    textio.write_overhead_curve([(0.0, 0), (0.5, 12)], "subject-filter", oh_path)
    assert "0.5\t12" in oh_path.read_text()


GOLDEN_PARAMS = ModelParams(
    subjects=["a", "b"], tau=[0.25, 1.0], alpha=[2.0, 0.1], beta=[1.5, 3.0000000000000004], gamma=0.37
)
GOLDEN = {
    "fit.tsv": (
        lambda path: textio.write_fit_report(
            FitReport(
                params=GOLDEN_PARAMS,
                priors=Priors(tau0=0.6, s0=1.5),
                iterations=12,
                converged=False,
                loglik_trace=[],
                fallback_subjects=["a", "b"],
            ),
            path,
        ),
        "# gamma 0.37\n# tau0 0.6\n# s0 1.5\n# iterations 12\n# converged 0\n# fallback_subjects a,b\n"
        "subject_id\ttau\talpha\tbeta\na\t0.25\t2.0\t1.5\nb\t1.0\t0.1\t3.0000000000000004\n",
    ),
    "truth.tsv": (
        lambda path: textio.write_params_table(GOLDEN_PARAMS, path),
        "# kind truth\n# gamma 0.37\n"
        "subject_id\ttau\talpha\tbeta\na\t0.25\t2.0\t1.5\nb\t1.0\t0.1\t3.0000000000000004\n",
    ),
    "subjects.tsv": (
        lambda path: textio.write_subject_reports(
            [
                SubjectReport("s2", 0.5, {0.3: 0.5, 0.45: 0.5}, 1e-06, 2.5, 0.04, rank=2),
                SubjectReport("s1", 0.1, {0.3: 0.2, 0.45: 0.0}, 1.5, 2.5, 1e20, rank=1),
            ],
            path,
        ),
        "rank\tsubject_id\ttau_mean\talpha\tbeta\tbeta_variance\ttau[0.3]\ttau[0.45]\n"
        "1\ts1\t0.1\t1.5\t2.5\t1e+20\t0.2\t0.0\n"
        "2\ts2\t0.5\t1e-06\t2.5\t0.04\t0.5\t0.5\n",
    ),
    "images.tsv": (
        lambda path: textio.write_image_reports(
            image_columns(
                [
                    ImageReport("t2", 0.5, 0.8, 0.625, 5.5, 4, True, "valence", "high"),
                    ImageReport("t1", 0.0, 0.0, float("nan"), 3.0, 1, False, "arousal", "low"),
                ]
            ),
            path,
        ),
        "task_id\tadjusted_score\tconfidence\tweighted_mean\traw_mean\tn_raters"
        "\tweighted_mean_defined\tdimension\tdirection\n"
        "t2\t0.5\t0.8\t0.625\t5.5\t4\t1\tvalence\thigh\n"
        "t1\t0.0\t0.0\tnan\t3.0\t1\t0\tarousal\tlow\n",
    ),
    "baseline.tsv": (
        lambda path: textio.write_baseline_ranking([("s2", 0.75), ("s1", 1)], "duration", path),
        "method\trank\tsubject_id\tscore\nduration\t1\ts2\t0.75\nduration\t2\ts1\t1.0\n",
    ),
    "pr.tsv": (
        lambda path: textio.write_pr_result(
            PRResult(ks=[1, 2], precision=[1.0, 0.5], recall=[0.5, 0.5], top_k={2: 0.5, 1: 1.0}), path
        ),
        "# top_1 1.0\n# top_2 0.5\nk\tprecision\trecall\n1\t1.0\t0.5\n2\t0.5\t0.5\n",
    ),
    "overhead.tsv": (
        lambda path: textio.write_overhead_curve([(0.0, 0), (0.05, 3)], "image-filter", path),
        "# mode image-filter\nthreshold\tlabels_removed\n0.0\t0\n0.05\t3\n",
    ),
    "ids.txt": (lambda path: textio.write_id_list(["s1", "s2"], path), "s1\ns2\n"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_writers_write_golden_bytes(tmp_path, name):
    write, expected = GOLDEN[name]
    write(tmp_path / name)
    assert (tmp_path / name).read_bytes() == expected.encode("utf-8")



IDS = st.text(st.characters(categories=("L", "N"), include_characters="_-.:[]"), min_size=1, max_size=6)
VALUES = {  # column parser -> the values a table column of that parser holds
    float: st.floats(),
    int: st.integers(),
    str: IDS,
    textio._parse_flag: st.booleans(),
    textio._parse_direction: st.sampled_from(["high", "low"]),
}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_table_spec_write_read_write(tmp_path_factory, data):
    # Any column spec: the values read back have the written reprs, and
    # writing them again gives the same bytes.
    parsers = data.draw(st.lists(st.sampled_from(list(VALUES)), max_size=5), label="parsers")
    columns = {"id": str, **{f"c{k}": parse for k, parse in enumerate(parsers)}}
    rows = st.tuples(*map(VALUES.__getitem__, columns.values()))
    rows = data.draw(st.lists(rows, max_size=6, unique_by=lambda row: row[0]), label="rows")
    head = data.draw(st.lists(st.tuples(IDS, IDS), max_size=3, unique_by=lambda kv: kv[0]), label="head")
    tmp = tmp_path_factory.mktemp("tables")
    textio._write_table(tmp / "first.tsv", columns, [[row[c] for row in rows] for c in range(len(columns))], head)
    meta, extras, values, linenos = textio._read_table(tmp / "first.tsv", columns, "id")
    assert {key: value for key, (_, value) in meta.items()} == dict(head)
    assert extras == [] and linenos == list(range(len(head) + 2, len(head) + 2 + len(rows)))
    assert repr(list(zip(*values))) == repr(rows)
    textio._write_table(tmp / "second.tsv", columns, values, head)
    assert (tmp / "second.tsv").read_bytes() == (tmp / "first.tsv").read_bytes()


# Every kind of cell a writer is given: floats with NaN (both signs), signed
# zeros, infinities and subnormals; integers beyond 64 bits and bools in %d
# columns; any text.
CELLS = {
    float: st.one_of(
        st.floats(),
        st.sampled_from([math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -2.2250738585072e-308]),
    ),
    int: st.one_of(st.integers(), st.booleans()),
    str: st.text(max_size=4),
    textio._parse_flag: st.booleans(),
    textio._parse_direction: st.sampled_from(["high", "low"]),
}
ARRAY_DTYPES = {float: float, int: np.int64, textio._parse_flag: bool}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_columnar_writer_matches_row_template_oracle(tmp_path_factory, data):
    # Random columns of every _FORMS type, numbers as lists or as arrays, and
    # head lines: the columnar writer writes the row template's bytes.
    parsers = data.draw(st.lists(st.sampled_from(list(textio._FORMS)), min_size=1, max_size=6), label="parsers")
    columns = {f"c{k}": parse for k, parse in enumerate(parsers)}
    n = data.draw(st.integers(0, 8), label="rows")
    values = [
        data.draw(st.lists(CELLS[parse], min_size=n, max_size=n), label=f"c{k}") for k, parse in enumerate(parsers)
    ]
    given_as = list(values)
    for k, parse in enumerate(parsers):
        fits = parse is not int or all(-(2**63) <= v < 2**63 for v in values[k])
        if parse in ARRAY_DTYPES and fits and data.draw(st.booleans(), label=f"c{k} as array"):
            given_as[k] = np.array(values[k], dtype=ARRAY_DTYPES[parse])
    head = data.draw(st.lists(st.tuples(IDS, st.one_of(IDS, st.floats(), st.integers()))), label="head")
    tmp = tmp_path_factory.mktemp("tables")
    textio._write_table(tmp / "got.tsv", columns, given_as, head)
    oracle_write_table(tmp / "want.tsv", columns, list(zip(*values)), head)
    assert (tmp / "got.tsv").read_bytes() == (tmp / "want.tsv").read_bytes()


@st.composite
def _fit_reports(draw):
    subjects = draw(st.lists(IDS, max_size=5, unique=True))
    per_subject = lambda lo, hi: st.lists(st.floats(lo, hi), min_size=len(subjects), max_size=len(subjects))
    tau, alpha, beta = (draw(per_subject(lo, hi)) for lo, hi in [(0.0, 1.0), (EPS_POS, 1e6), (EPS_POS, 1e6)])
    return FitReport(
        params=ModelParams(subjects, tau, alpha, beta, draw(st.floats(0.01, 0.49))),
        priors=Priors(tau0=draw(st.floats(0.0, 1.0)), s0=draw(st.floats(EPS_POS, 1e6))),
        iterations=draw(st.integers(0, 10**6)),
        converged=draw(st.booleans()),
        loglik_trace=[],
        fallback_subjects=draw(st.lists(st.sampled_from(subjects), unique=True)) if subjects else [],
    )


@st.composite
def _subject_reports(draw):
    gammas = sorted(draw(st.lists(st.floats(0.01, 0.49), max_size=3, unique=True)))
    floats = lambda k: draw(st.lists(st.floats(), min_size=k, max_size=k))
    return [
        SubjectReport(sid, *floats(1), dict(zip(gammas, floats(len(gammas)))), *floats(3), rank=rank)
        for rank, sid in enumerate(draw(st.lists(IDS, max_size=5, unique=True)), start=1)
    ]


_IMAGE_REPORTS = st.lists(
    st.builds(
        ImageReport, IDS, st.floats(), st.floats(), st.floats(), st.floats(), st.integers(), st.booleans(), IDS,
        st.sampled_from(["high", "low"]),
    ),
    max_size=5,
    unique_by=lambda r: r.task_id,
).map(image_columns)


def _fit_values(report):
    p = report.params
    arrays = [p.tau.tolist(), p.alpha.tolist(), p.beta.tolist()]
    return p.subjects, arrays, p.gamma, report.priors, report.iterations, report.converged, report.fallback_subjects


@pytest.mark.parametrize(
    "write,read,reports,values",
    [
        (textio.write_fit_report, textio.read_fit_report, _fit_reports(), _fit_values),
        (textio.write_subject_reports, textio.read_subject_reports, _subject_reports(), list),
        (textio.write_image_reports, textio.read_image_reports, _IMAGE_REPORTS, list),
    ],
    ids=["fit", "subjects", "images"],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reports_write_read_write(tmp_path_factory, data, write, read, reports, values):
    report = data.draw(reports, label="report")
    tmp = tmp_path_factory.mktemp("reports")
    write(report, tmp / "first.tsv")
    back = read(tmp / "first.tsv")
    assert repr(values(back)) == repr(values(report))
    write(back, tmp / "second.tsv")
    assert (tmp / "second.tsv").read_bytes() == (tmp / "first.tsv").read_bytes()

def test_id_list_roundtrip(tmp_path):
    path = tmp_path / "ids.txt"
    textio.write_id_list(["a", "b"], path)
    assert textio.read_id_list(path) == ["a", "b"]


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize(
    "read,text",
    [
        (textio.read_id_list, "# annotated\na\n\nb\n"),
        (textio.read_config_file, "# budget\ntol = 1e-3\nmax_iter = 5\n"),
        (lambda p: repr(textio.read_fit_report(p)), "# gamma 0.37\n# tau0 0.6\n# s0 1.5\n# iterations 3\n# converged 1\nsubject_id\ttau\talpha\tbeta\na\t0.9\t2.0\t1.0\n"),
    ],
    ids=["id-list", "config", "fit-report"],
)
def test_readers_break_lines_as_text_mode(tmp_path, read, text, newline):
    # Files written on other systems end their lines in CRLF or a lone CR.
    (tmp_path / "lf").write_text(text, encoding="utf-8")
    (tmp_path / "other").write_bytes(text.replace("\n", newline).encode("utf-8"))
    assert read(tmp_path / "other") == read(tmp_path / "lf")


def test_config_file_parsing(tmp_path):
    path = tmp_path / "fit.cfg"
    path.write_text(
        "# comment\n"
        "gamma = 0.3:0.48:10\n"
        "update_gamma = false\n"
        "tol = 1e-5\n"
        "max_iter = 120\n"
        "eb_tol = 1e-3\n"
        "eb_max_rounds = 4\n"
    )
    overrides = textio.read_config_file(path)
    config = FitConfig(**overrides)
    assert isinstance(config, FitConfig)
    assert len(config.gamma) == 10
    assert config.gamma[0] == 0.3 and config.gamma[-1] == 0.48
    assert config.tol == 1e-5


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "fit.cfg"
    keys = [("mystery", "1"), ("prior_grad_mode", "gamma-map"), ("psi_includes_self", "false"), ("seed", "7")]
    for key, value in keys:
        path.write_text(f"tol = 1e-4\n{key} = {value}\n")
        with pytest.raises(ValueError) as exc:
            textio.read_config_file(path)
        assert str(exc.value) == f"{path}:2: unknown config key {key!r}"


def test_config_file_accepts_and_drops_workers(tmp_path):
    path = tmp_path / "fit.cfg"
    path.write_text("workers = 1\ntol = 1e-4\n")
    overrides = textio.read_config_file(path)
    assert overrides == {"tol": 1e-4}
    assert FitConfig(**overrides).tol == 1e-4


@pytest.mark.parametrize(
    "line",
    [
        "tol = abc",
        "max_iter = 1.5",
        "update_gamma = maybe",
        "eb_max_rounds = x",
        "gamma = 0.3:0.4",
        "gamma = 0.3:0.4:0",
        # values that parse but FitConfig rejects
        "max_iter = 0",
        "tol = nan",
        "gamma = 0.7",
        "gamma = 0.3:0.6:4",
        "eb_max_rounds = 0",
        "eb_tol = -1",
        "workers = two",
        "workers = -1",
    ],
)
def test_config_file_names_line_and_key_of_bad_value(tmp_path, line):
    path = tmp_path / "fit.cfg"
    path.write_text(f"# comment\n{line}\n")
    key = line.split(" = ")[0]
    with pytest.raises(ValueError) as exc:
        textio.read_config_file(path)
    assert str(exc.value).startswith(f"{path}:2: invalid value for {key}: ")


def test_gamma_spec_single_value():
    assert textio.parse_gamma_spec("0.37") == 0.37
    grid = textio.parse_gamma_spec("0.3:0.48:10")
    assert len(grid) == 10


def test_manifest_is_reproducible(tmp_path):
    data = tmp_path / "input.txt"
    data.write_text("payload\n")
    m1 = tmp_path / "m1.txt"
    m2 = tmp_path / "m2.txt"
    textio.write_manifest(m1, "fit", {"delta": 0.2}, [str(data)])
    textio.write_manifest(m2, "fit", {"delta": 0.2}, [str(data)])
    assert m1.read_bytes() == m2.read_bytes()
    assert "sha256=" in m1.read_text()
