import filecmp
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from glba.cli import main
from glba.model import FitConfig, fit
from glba.simulate import sample_response_table
from glba.textio import read_multigraph, write_fit_report, write_responses

CSV_HEADER = "subject_id,task_id,valence,arousal,dominance,likeness,view_seconds,label_seconds\n"


@pytest.fixture
def ratings_csv(tmp_path):
    table, _ = sample_response_table(12, 60, 4, seed=0, with_timing=True)
    path = tmp_path / "ratings.csv"
    write_responses(table, path)
    return str(path)


def run(args):
    return main([str(a) for a in args])


def test_build_graph_happy_path(ratings_csv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["build-graph", ratings_csv, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "tasks" in text and "subjects" in text and "edges" in text
    assert (out / "graph.tsv").exists()
    assert (out / "manifest_build_graph.txt").exists()


def test_build_graph_missing_column_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("subject_id,task_id,valence\na,t1,5\n")
    assert run(["build-graph", bad, "--out", tmp_path / "o"]) == 2


@pytest.mark.parametrize("command", ["build-graph", "baseline-time"])
def test_ids_that_begin_with_a_comment_mark_exit_2(tmp_path, capsys, command):
    # Read back, the task '#t1' would vanish from graph.tsv and the subject
    # '#d' from every fit report and subject table.
    rows = "".join(f"{s},{t},5,4,6,3,1,2\n" for t in ("#t1", "t2") for s in "abc") + "#d,t2,5,4,6,3,1,2\n"
    bad = tmp_path / "bad.csv"
    bad.write_text("subject_id,task_id,valence,arousal,dominance,likeness,view_seconds,label_seconds\n" + rows)
    out = tmp_path / "out"
    assert run([command, bad, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "row 2: subject/task id begins with '#'" in err and "row 8: subject/task id begins with '#'" in err
    assert not out.exists()


def test_build_graph_reports_dropped_tasks(tmp_path, capsys):
    rows = "".join(
        f"s{i},t1,5,5,5,4,," + "\n" for i in range(5)
    ) + "".join(f"s{i},t2,5,5,5,4,," + "\n" for i in range(3))
    csv_path = tmp_path / "r.csv"
    csv_path.write_text(CSV_HEADER + rows)
    assert run(["build-graph", csv_path, "--out", tmp_path / "o", "--min-raters", 4]) == 0
    out = capsys.readouterr().out
    assert "dropped 1 tasks" in out


def test_fit_rank_pr_pipeline(ratings_csv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["build-graph", ratings_csv, "--out", out]) == 0
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("max_iter = 80\neb_max_rounds = 2\ntol = 1e-4\n")
    assert (
        run(["fit", out / "graph.tsv", "--gamma", 0.37, "--config", cfg, "--out", out]) == 0
    )
    fit_file = out / "fit_0.37.tsv"
    assert fit_file.exists()
    assert run(["rank", fit_file, "--out", out]) == 0
    subjects = out / "subjects.tsv"
    assert subjects.exists()

    annotated = tmp_path / "annotated.txt"
    first = subjects.read_text().splitlines()[1].split("\t")[1]
    annotated.write_text(first + "\n")
    assert run(["pr", subjects, annotated, "--top-k", "1,3", "--out", out]) == 0
    pr_text = (out / "pr.tsv").read_text()
    assert pr_text.startswith("# top_1")
    assert "k\tprecision\trecall" in pr_text


@pytest.mark.parametrize(
    "record",
    ["t1\ta,b,c\t222222", "t1\ta,b,c\t01x010", "t1\ta,b\t11\nt1\ta,c\t11", "t1\ta,a,b\t111111", "t1\ta,,b\t111111"],
)
def test_fit_malformed_graph_exits_2(tmp_path, capsys, record):
    graph = tmp_path / "graph.tsv"
    graph.write_text("task_id\tsubjects\tindicators\nt0\ta,b,c\t111111\n" + record + "\n")
    assert run(["fit", graph, "--gamma", 0.37, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert str(graph) in err and "'t1'" in err


def test_fit_truncated_graph_exits_2(tmp_path, capsys):
    graph = tmp_path / "graph.tsv"
    graph.write_text("# multigraph tasks=2 subjects=3\ntask_id\tsubjects\tindicators\nt0\ta,b,c\t111111\n")
    assert run(["fit", graph, "--gamma", 0.37, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert f"{graph}: header states tasks=2 subjects=3, file holds tasks=1 subjects=3" in err


GOOD_FIT = (
    "# gamma 0.37\n# tau0 0.6\n# s0 1.5\n# iterations 12\n# converged 1\n"
    "subject_id\ttau\talpha\tbeta\n"
)


@pytest.mark.parametrize(
    "body,line",
    [
        ("s000\t0.9\t2.0\n", 7),  # short row
        ("s000\t0.9\t2.0\t1.0\ns000\t0.8\t2.0\t1.0\n", 8),  # duplicate subject
        ("s000\tnan\t2.0\t1.0\n", 7),  # non-finite tau
        ("s000\t0.9\t-2.0\t1.0\n", 7),  # alpha out of bounds
    ],
)
def test_rank_and_images_malformed_fit_report_exit_2(ratings_csv, tmp_path, capsys, body, line):
    fit = tmp_path / "fit.tsv"
    fit.write_text(GOOD_FIT + body)
    assert run(["rank", fit, "--out", tmp_path / "out"]) == 2
    assert f"{fit}:{line}: " in capsys.readouterr().err
    assert run(["images", ratings_csv, fit, "--out", tmp_path / "out"]) == 2
    assert f"{fit}:{line}: " in capsys.readouterr().err


def test_rank_fit_report_missing_header_exits_2(tmp_path, capsys):
    fit = tmp_path / "fit.tsv"
    fit.write_text(GOOD_FIT.replace("# s0 1.5\n", "") + "s000\t0.9\t2.0\t1.0\n")
    assert run(["rank", fit, "--out", tmp_path / "out"]) == 2
    assert "missing header line(s): # s0" in capsys.readouterr().err


def test_images_and_overhead_commands(ratings_csv, tmp_path):
    out = tmp_path / "out"
    run(["build-graph", ratings_csv, "--out", out])
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("max_iter = 60\neb_max_rounds = 2\ntol = 1e-4\n")
    run(["fit", out / "graph.tsv", "--gamma", 0.37, "--config", cfg, "--out", out])
    assert (
        run(
            [
                "images",
                ratings_csv,
                out / "fit_0.37.tsv",
                "--direction",
                "high",
                "--min-raters",
                2,
                "--out",
                out,
            ]
        )
        == 0
    )
    images = out / "images_high.tsv"
    assert images.exists()

    run(["rank", out / "fit_0.37.tsv", "--out", out])
    assert (
        run(
            [
                "overhead",
                ratings_csv,
                out / "subjects.tsv",
                "--mode",
                "subject-filter",
                "--out",
                out,
            ]
        )
        == 0
    )
    oh = (out / "overhead_subject-filter.tsv").read_text()
    assert oh.splitlines()[1] == "threshold\tlabels_removed"

    assert (
        run(
            [
                "overhead",
                ratings_csv,
                images,
                "--mode",
                "image-filter",
                "--thresholds",
                "0:1:0.25",
                "--out",
                out,
            ]
        )
        == 0
    )
    lines = (out / "overhead_image-filter.tsv").read_text().splitlines()
    assert len(lines) == 2 + 5  # header comment, header, five thresholds


def test_baseline_commands(ratings_csv, tmp_path):
    out = tmp_path / "out"
    assert run(["baseline-ds", ratings_csv, "--out", out]) == 0
    ds = (out / "baseline_ds.tsv").read_text().splitlines()
    assert ds[0] == "method\trank\tsubject_id\tscore"
    assert ds[1].startswith("dawid-skene\t1\t")

    assert run(["baseline-time", ratings_csv, "--out", out]) == 0
    bt = (out / "baseline_time.tsv").read_text().splitlines()
    assert bt[1].startswith("duration\t1\t")
    assert (out / "baseline_time_excluded.txt").exists()


def test_baseline_ds_reports_convergence(ratings_csv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["baseline-ds", ratings_csv, "--out", out, "--ds-tol", 1e-3]) == 0
    assert "EM iterations, converged;" in capsys.readouterr().out
    # the default budget of 100 iterations stops short of tol 1e-6 here
    assert run(["baseline-ds", ratings_csv, "--out", out]) == 0
    assert "in 100 EM iterations, NOT converged;" in capsys.readouterr().out


@pytest.mark.parametrize("value", [0, -3])
def test_baseline_ds_rejects_max_iter_below_one(ratings_csv, tmp_path, capsys, value):
    assert run(["baseline-ds", ratings_csv, "--out", tmp_path / "out", "--ds-max-iter", value]) == 2
    assert "max_iter must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--threshold", "--ds-tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
def test_baseline_ds_rejects_bad_threshold_and_tol(ratings_csv, tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert run(["baseline-ds", ratings_csv, "--out", out, flag, value]) == 2
    assert flag in capsys.readouterr().err
    assert not (out / "baseline_ds.tsv").exists()


def test_baseline_ds_manifest_records_em_settings(ratings_csv, tmp_path):
    out = tmp_path / "out"
    flags = ["--threshold", 0.75, "--ds-max-iter", 7, "--ds-tol", 0.001]
    assert run(["baseline-ds", ratings_csv, "--out", out, *flags]) == 0
    lines = (out / "manifest_baseline_ds.txt").read_text().splitlines()
    for line in ("threshold = 0.75", "ds_max_iter = 7", "ds_tol = 0.001"):
        assert line in lines


def test_simulate_and_inject_commands(tmp_path):
    out = tmp_path / "out"
    assert (
        run(
            [
                "simulate",
                "--subjects",
                15,
                "--tasks",
                40,
                "--raters",
                4,
                "--spammers",
                2,
                "--ratings",
                "--seed",
                3,
                "--out",
                out,
            ]
        )
        == 0
    )
    assert (out / "graph.tsv").exists()
    assert (out / "truth.tsv").exists()
    ratings = out / "ratings.csv"
    assert ratings.exists()

    assert (
        run(
            [
                "inject",
                ratings,
                "--spammers",
                2,
                "--tasks-per-spammer",
                5,
                "--seed",
                1,
                "--out",
                out,
            ]
        )
        == 0
    )
    ids = (out / "injected_ids.txt").read_text().split()
    assert len(ids) == 2
    assert all(s.startswith("spammer_") for s in ids)


def test_inject_insufficient_tasks_exits_2(tmp_path):
    table, _ = sample_response_table(6, 10, 3, seed=2)
    path = tmp_path / "r.csv"
    write_responses(table, path)
    code = run(
        ["inject", path, "--spammers", 5, "--tasks-per-spammer", 10, "--out", tmp_path / "o"]
    )
    assert code == 2


def _pipeline(csv_path, out):
    run(["build-graph", csv_path, "--out", out])
    run(["fit", out / "graph.tsv", "--gamma", "0.4", "--out", out])
    run(["rank", out / "fit_0.4.tsv", "--out", out])


def test_pipeline_outputs_byte_identical(tmp_path):
    table, _ = sample_response_table(10, 50, 4, seed=8)
    csv_path = tmp_path / "r.csv"
    write_responses(table, csv_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    _pipeline(csv_path, out1)
    _pipeline(csv_path, out2)
    for name in os.listdir(out1):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


ORDER_FREE = [
    "graph.tsv",
    "fit_0.37.tsv",
    "images_high.tsv",
    "images_low.tsv",
    "baseline_time.tsv",
    "baseline_ds.tsv",
]


def _order_free_outputs(csv_path, out):
    cfg = out.parent / f"{out.name}.cfg"
    cfg.write_text("max_iter = 40\neb_max_rounds = 2\n")
    assert run(["build-graph", csv_path, "--out", out]) == 0
    assert run(["fit", out / "graph.tsv", "--gamma", 0.37, "--config", cfg, "--out", out]) == 0
    for direction in ("high", "low"):
        assert run(["images", csv_path, out / "fit_0.37.tsv", "--direction", direction, "--out", out]) == 0
    for baseline in ("baseline-time", "baseline-ds"):
        assert run([baseline, csv_path, "--out", out]) == 0
    return {name: (out / name).read_bytes() for name in ORDER_FREE}


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), blanks=st.lists(st.integers(0, 10_000), max_size=5))
def test_outputs_ignore_ratings_row_order(ratings_csv, tmp_path, seed, blanks):
    # Shuffling the data rows of a ratings CSV and adding blank lines changes
    # no graph, fit report, stimulus table or baseline ranking.
    with open(ratings_csv, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines(keepends=True)
    np.random.default_rng(seed).shuffle(rows)
    for at in blanks:
        rows.insert(at % (len(rows) + 1), "\n")
    shuffled = tmp_path / f"shuffled-{seed}.csv"
    shuffled.write_text(header + "".join(rows), encoding="utf-8")
    want = _order_free_outputs(ratings_csv, tmp_path / f"want-{seed}")
    assert _order_free_outputs(shuffled, tmp_path / f"got-{seed}") == want


def test_fit_gamma_grid_writes_one_file_per_value(tmp_path):
    table, _ = sample_response_table(10, 40, 4, seed=12)
    csv_path = tmp_path / "r.csv"
    write_responses(table, csv_path)
    out = tmp_path / "out"
    run(["build-graph", csv_path, "--out", out])
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("max_iter = 40\neb_max_rounds = 1\ntol = 1e-3\n")
    assert (
        run(["fit", out / "graph.tsv", "--gamma-grid", "0.3:0.4:2", "--config", cfg, "--out", out])
        == 0
    )
    assert (out / "fit_0.3.tsv").exists()
    assert (out / "fit_0.4.tsv").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


SUBJECTS = (
    "rank\tsubject_id\ttau_mean\talpha\tbeta\tbeta_variance\ttau[0.37]\n"
    "1\ts000\t0.2\t1.0\t2.0\t0.05\t0.2\n"
    "2\ts001\t0.9\t2.0\t1.0\t0.05\t0.9\n"
)


@pytest.mark.parametrize(
    "subjects,line",
    [
        (SUBJECTS + "3\ts002\t0.9\n", 4),  # a 3-field row was an IndexError, exit 1
        (SUBJECTS + SUBJECTS.splitlines(True)[1], 4),  # a repeat gave recall 2.0, exit 0
    ],
    ids=["short-row", "duplicate-subject"],
)
def test_pr_and_overhead_malformed_subjects_exit_2(ratings_csv, tmp_path, capsys, subjects, line):
    ranking = tmp_path / "subjects.tsv"
    ranking.write_text(subjects)
    annotated = tmp_path / "annotated.txt"
    annotated.write_text("s000\n")
    out = tmp_path / "out"
    assert run(["pr", ranking, annotated, "--top-k", "1,2", "--out", out]) == 2
    assert f"{ranking}:{line}: " in capsys.readouterr().err
    assert not (out / "pr.tsv").exists()
    assert run(["overhead", ratings_csv, ranking, "--out", out]) == 2
    assert f"{ranking}:{line}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "value", ["0:1:0", "0:1", "0:1:0.1:2", "a:1:0.1", "nan:1:0.1", "0:inf:0.1", "0:1:-0.1", "1:0:0.1"]
)
def test_overhead_rejects_bad_thresholds(ratings_csv, tmp_path, capsys, value):
    ranking = tmp_path / "subjects.tsv"
    ranking.write_text(SUBJECTS)
    out = tmp_path / "out"
    assert run(["overhead", ratings_csv, ranking, "--thresholds", value, "--out", out]) == 2
    assert "--thresholds" in capsys.readouterr().err
    assert not (out / "overhead_subject-filter.tsv").exists()


@pytest.mark.parametrize("value", ["a", "1.5", "0", "2,-1", "1,,2"])
def test_pr_rejects_bad_top_k(tmp_path, capsys, value):
    ranking = tmp_path / "subjects.tsv"
    ranking.write_text(SUBJECTS)
    annotated = tmp_path / "annotated.txt"
    annotated.write_text("s000\n")
    assert run(["pr", ranking, annotated, "--top-k", value, "--out", tmp_path / "out"]) == 2
    assert "--top-k" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["a", "1:2:3", "3:x", "5:3"])
def test_simulate_rejects_bad_raters(tmp_path, capsys, value):
    out = tmp_path / "out"
    assert run(["simulate", "--subjects", 6, "--tasks", 4, "--raters", value, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "--raters" in err and "R or LO:HI" in err
    assert not out.exists()


def test_fit_config_negative_workers_exits_2(tmp_path, capsys):
    graph = tmp_path / "graph.tsv"
    graph.write_text("task_id\tsubjects\tindicators\nt0\ta,b,c\t111111\n")
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("max_iter = 5\nworkers = -1\n")
    assert run(["fit", graph, "--gamma", 0.37, "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert f"{cfg}:2: invalid value for workers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, field",
    [
        ("tol = nan", "tol"),
        ("tol = inf", "tol"),
        ("eb_tol = nan", "eb_tol"),
        ("eb_tol = -1", "eb_tol"),
    ],
)
def test_fit_config_bad_tolerance_exits_2(tmp_path, capsys, line, field):
    graph = tmp_path / "graph.tsv"
    graph.write_text("task_id\tsubjects\tindicators\nt0\ta,b,c\t111111\n")
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"max_iter = 5\n{line}\n")
    out = tmp_path / "out"
    assert run(["fit", graph, "--gamma", 0.37, "--config", cfg, "--out", out]) == 2
    assert f"error: {field} must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--gamma-grid", "0.3:0.6:4"], "gamma must be a finite number in (0, 0.5), got 0.5"),
        (["--gamma-grid", "0.3:nan:3"], "gamma must be a finite number in (0, 0.5), got nan"),
        (["--gamma", "nan"], "gamma must be a finite number in (0, 0.5), got nan"),
        (["--gamma-grid", "0.3:0.48:x"], "--gamma-grid must be a rate or lo:hi:count, got '0.3:0.48:x'"),
        (["--gamma-grid", "abc"], "--gamma-grid must be a rate or lo:hi:count, got 'abc'"),
    ],
)
def test_fit_bad_gamma_exits_2_before_any_fit(tmp_path, capsys, flags, message):
    graph = tmp_path / "graph.tsv"
    graph.write_text("task_id\tsubjects\tindicators\nt0\ta,b,c\t111111\n")
    out = tmp_path / "out"
    assert run(["fit", graph, *flags, "--out", out]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_fit_report_matches_library_fit_with_trace(ratings_csv, tmp_path):
    # The CLI fits without the objective trace; its report must be the
    # library default's (traced) report byte for byte.
    out = tmp_path / "out"
    run(["build-graph", ratings_csv, "--out", out])
    assert run(["fit", out / "graph.tsv", "--gamma", 0.37, "--out", out]) == 0
    graph = read_multigraph(out / "graph.tsv")
    want = tmp_path / "library.tsv"
    write_fit_report(fit(graph, FitConfig(gamma=0.37)), want)
    assert filecmp.cmp(out / "fit_0.37.tsv", want, shallow=False)


@pytest.mark.parametrize(
    "argv",
    [
        ["build-graph", "r.csv", "--gamma", "0.4"],
        ["build-graph", "r.csv", "--config", "f"],
        ["fit", "graph.tsv", "--delta", "0.3"],
        ["fit", "graph.tsv", "--dimension", "valence"],
        ["fit", "graph.tsv", "--min-raters", "3"],
        ["rank", "fit.tsv", "--delta", "0.3"],
        ["rank", "fit.tsv", "--dimension", "valence"],
        ["images", "r.csv", "fit.tsv", "--delta", "0.3"],
        ["images", "r.csv", "fit.tsv", "--gamma", "0.4"],
        ["overhead", "r.csv", "subjects.tsv", "--min-raters", "3"],
        ["pr", "subjects.tsv", "ids.txt", "--gamma", "0.4"],
        ["baseline-ds", "r.csv", "--delta", "0.3"],
        ["baseline-time", "r.csv", "--config", "f"],
        ["baseline-time", "r.csv", "--dimension", "valence"],
        ["simulate", "--gamma-grid", "0.3:0.4:2"],
        ["simulate", "--min-raters", "3"],
        ["inject", "r.csv", "--gamma", "0.4"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_flag_a_command_does_not_read_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
