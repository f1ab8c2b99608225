import argparse
import dataclasses
import filecmp
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import glba
from glba import cli, textio
from glba.cli import _report_names, main
from glba.ingest import DEFAULT_MIN_RATERS, load_responses
from glba.model import DEFAULT_GAMMA_GRID, FitConfig, fit
from glba.simulate import sample_response_table
from glba.textio import read_fit_report, read_multigraph, write_fit_report, write_responses
from helpers import oracle_image_scores, oracle_write_table

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


def test_id_holding_a_carriage_return_exits_2(tmp_path, capsys):
    # Every text reader breaks lines at a lone CR too, so the graph record of
    # a task rated by "a\rb" would read back as two malformed records.
    rows = "".join(f"{s},t1,5,4,6,3,1,2\n" for s in ("x", '"a\rb"', "c", "d"))
    bad = tmp_path / "bad.csv"
    bad.write_text(CSV_HEADER + rows, newline="")
    out = tmp_path / "out"
    assert run(["build-graph", bad, "--out", out]) == 2
    assert "row 3: subject/task id contains a reserved character" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "command",
    [["build-graph"], ["images", "fit.tsv"], ["overhead", "subjects.tsv"], ["baseline-ds"], ["baseline-time"], ["inject"]],
    ids=lambda command: command[0],
)
@pytest.mark.parametrize(
    "body,line,message",
    [
        (b"a,t1,5,4,6,3,,\n" + b"b" * 200_000 + b",t1,5,4,6,3,,\n", 3, "field larger than field limit"),
        (b"a,t1,5,4,6,3,,\r\n\r\nb,t1,5\xff,4,6,3,,\r\n", 4, "byte 0xff is not UTF-8"),
    ],
    ids=["oversized-field", "bad-utf8"],
)
def test_unreadable_ratings_exit_2_naming_the_line(tmp_path, capsys, command, body, line, message):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(CSV_HEADER.encode() + body)
    out = tmp_path / "out"
    assert run([command[0], bad, *command[1:], "--out", out]) == 2
    assert f"error: {bad}: line {line}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,value", [("build-graph", -1), ("build-graph", 0), ("images", -2), ("images", 0)])
def test_min_raters_below_one_exits_2(ratings_csv, tmp_path, capsys, command, value):
    inputs = [ratings_csv]
    if command == "images":
        fit_dir = tmp_path / "fit"
        run(["build-graph", ratings_csv, "--out", fit_dir])
        run(["fit", fit_dir / "graph.tsv", "--gamma", 0.37, "--out", fit_dir])
        inputs.append(fit_dir / "fit_0.37.tsv")
    out = tmp_path / "out"
    assert run([command, *inputs, "--min-raters", value, "--out", out]) == 2
    assert f"min_raters must be at least 1, got {value}" in capsys.readouterr().err
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
    [
        "t1\ta,b,c\t222222",
        "t1\ta,b,c\t01x010",
        "t1\ta,b\t11\nt1\ta,c\t11",
        "t1\ta,a,b\t111111",
        "t1\ta,,b\t111111",
        "t1\ta, b,c\t111111",  # a rater glba pr's stripped id lists could never name
    ],
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
        # a header value out of range, on a '#' line that overrides GOOD_FIT's
        *(
            (f"# {kv}\ns000\t0.9\t2.0\t1.0\n", 7)
            for kv in ("gamma 0.7", "tau0 5", "s0 -1", "iterations -3", "converged 7")
        ),
    ],
)
def test_rank_and_images_malformed_fit_report_exit_2(ratings_csv, tmp_path, capsys, body, line):
    fit = tmp_path / "fit.tsv"
    fit.write_text(GOOD_FIT + body)
    assert run(["rank", fit, "--out", tmp_path / "out"]) == 2
    assert f"{fit}:{line}: " in capsys.readouterr().err
    assert run(["images", ratings_csv, fit, "--out", tmp_path / "out"]) == 2
    assert f"{fit}:{line}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "subject,fault", [(" s0000", "has surrounding whitespace"), ("s0,000", "holds a tab, comma, CR or LF")]
)
def test_rank_fit_report_with_an_id_pr_cannot_name_exits_2(tmp_path, capsys, subject, fault):
    # glba pr strips and splits the ids it reads, so it could never name
    # such a subject in the ranking rank would write.
    fit = tmp_path / "fit.tsv"
    fit.write_text(GOOD_FIT + f"{subject}\t0.9\t2.0\t1.0\n")
    out = tmp_path / "out"
    assert run(["rank", fit, "--out", out]) == 2
    assert f"error: {fit}:7: subject_id {subject!r} {fault}" in capsys.readouterr().err
    assert not (out / "subjects.tsv").exists()


def test_rank_fit_report_missing_header_exits_2(tmp_path, capsys):
    fit = tmp_path / "fit.tsv"
    fit.write_text(GOOD_FIT.replace("# s0 1.5\n", "") + "s000\t0.9\t2.0\t1.0\n")
    assert run(["rank", fit, "--out", tmp_path / "out"]) == 2
    assert "missing header line(s): # s0" in capsys.readouterr().err


def test_rank_two_fits_at_one_gamma_exits_2(tmp_path, capsys):
    # Fits of two graphs (say, at two deltas) at one gamma.
    fits = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
    for path, tau in zip(fits, (0.9, 0.8)):
        path.write_text(GOOD_FIT + f"s000\t{tau}\t2.0\t1.0\n")
    assert run(["rank", *fits, "--out", tmp_path / "out"]) == 2
    assert "error: two fits at gamma 0.37; rank needs one fit per gamma" in capsys.readouterr().err
    assert not (tmp_path / "out" / "subjects.tsv").exists()


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


@pytest.mark.parametrize("direction", ["high", "low"])
def test_images_command_writes_the_oracle_table(ratings_csv, tmp_path, direction):
    # The stimulus table equals the per-task scoring oracle's records written
    # row by row through the row-template oracle writer.
    out = tmp_path / "out"
    assert run(["build-graph", ratings_csv, "--out", out]) == 0
    assert run(["fit", out / "graph.tsv", "--gamma", 0.37, "--out", out]) == 0
    assert run(["images", ratings_csv, out / "fit_0.37.tsv", "--direction", direction, "--out", out]) == 0
    params = read_fit_report(out / "fit_0.37.tsv").params
    reports = oracle_image_scores(load_responses(ratings_csv), "valence", params, direction, DEFAULT_MIN_RATERS)
    oracle_write_table(tmp_path / "want.tsv", textio._IMAGE_COLUMNS, map(dataclasses.astuple, reports))
    assert (out / f"images_{direction}.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()


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
    assert f"error: --ds-max-iter must be at least 1, got {value}" in capsys.readouterr().err


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


def _options(command):
    """(name, add_argument keywords) of every argument `command` takes but
    --out and -h."""
    entry = cli._COMMANDS[command]
    options = [(flag, cli._FLAGS[flag]) for flag in entry.flags]
    for names, kwargs in entry.args.items():
        options += [(names, kwargs)] if isinstance(names, str) else list(zip(names, kwargs))
    return options


def _other_value(kwargs):
    """A command-line value, other than the default, for an option."""
    default = kwargs.get("default")
    if "choices" in kwargs:
        return next(choice for choice in kwargs["choices"] if choice != default)
    return default + "1" if isinstance(default, str) else str(1 if default is None else default + 1)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_manifest_changes_with_every_flag_and_input(tmp_path, command):
    # The manifest is written from the parsed arguments alone, so the input
    # files need not parse.  Positional arguments and --config are inputs.
    inputs, base = [], []
    for name, _ in _options(command):
        if name[0] != "-" or name == "--config":
            inputs.append(tmp_path / name.lstrip("-"))
            inputs[-1].write_text("first\n")
            base += [str(inputs[-1])] if name[0] != "-" else [name, str(inputs[-1])]

    def manifest(argv, out=tmp_path / "out"):
        cli._manifest(cli.build_parser().parse_args([command, *argv, "--out", str(out)]))
        return (out / f"manifest_{command.replace('-', '_')}.txt").read_bytes()

    (tmp_path / "out").mkdir()
    (tmp_path / "elsewhere").mkdir()
    want = manifest(base)
    assert manifest(base, tmp_path / "elsewhere") == want
    for name, kwargs in _options(command):
        if name[0] == "-" and name != "--config":
            flag = [name] if kwargs.get("action") == "store_true" else [name, _other_value(kwargs)]
            assert manifest(base + flag) != want, flag
    for path in inputs:
        path.write_text("second\n")
        assert manifest(base) != want, path.name
        path.write_text("first\n")


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


def test_fit_gamma_values_sharing_a_report_name_exit_2_before_any_fit(tmp_path, capsys):
    graph = tmp_path / "graph.tsv"
    graph.write_text("task_id\tsubjects\tindicators\nt0\ta,b,c\t111111\n")
    out = tmp_path / "out"
    assert run(["fit", graph, "--gamma-grid", "0.3:0.3000001:3", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == "error: gamma values 0.3 and 0.30000004999999996 both write fit_0.3.tsv\n"
    assert not out.exists()


def test_fit_learned_gammas_sharing_a_report_name_exit_2(tmp_path, capsys):
    # Fits from different starting rates learn the same gamma; each would
    # overwrite the last one's report.
    table, _ = sample_response_table(10, 40, 4, seed=12)
    csv_path = tmp_path / "r.csv"
    write_responses(table, csv_path)
    run(["build-graph", csv_path, "--out", tmp_path / "graph"])
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("update_gamma = true\ntol = 1e-9\nmax_iter = 5000\neb_max_rounds = 2\n")
    out = tmp_path / "out"
    argv = ["fit", tmp_path / "graph" / "graph.tsv", "--gamma-grid", "0.3:0.45:2", "--config", cfg]
    assert run([*argv, "--out", out]) == 2
    assert "error: fitted gamma values " in capsys.readouterr().err
    assert not list(out.glob("fit_*.tsv"))


def test_default_gamma_grid_keeps_its_report_names():
    names = [f"fit_{g}.tsv" for g in ("0.3", "0.32", "0.34", "0.36", "0.38", "0.4", "0.42", "0.44", "0.46", "0.48")]
    assert _report_names(DEFAULT_GAMMA_GRID) == names


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


COMMAND_HELP = {
    "build-graph": "CSV ratings -> agreement multigraph",
    "fit": "fit the reliability model on a multigraph",
    "rank": "rank subjects from one or more fits",
    "images": "confidence-weighted stimulus scores",
    "overhead": "labels removed vs quality threshold",
    "pr": "precision/recall against annotated spammers",
    "baseline-ds": "confusion-matrix EM baseline",
    "baseline-time": "mean-duration baseline",
    "simulate": "sample a synthetic multigraph",
    "inject": "inject population-mimicking spammers",
}
DIMENSION = "[--dimension {valence,arousal,dominance,likeness}]"
COMMAND_USAGE = {
    "build-graph": f"{DIMENSION} [--delta DELTA] [--min-raters MIN_RATERS] [--out OUT] responses",
    "fit": "[--out OUT] [--gamma GAMMA | --gamma-grid GAMMA_GRID] [--config CONFIG] graph",
    "rank": "[--out OUT] fits [fits ...]",
    "images": f"{DIMENSION} [--min-raters MIN_RATERS] [--out OUT] [--direction {{high,low}}] responses fit",
    "overhead": (
        f"{DIMENSION} [--out OUT] [--mode {{subject-filter,image-filter}}] "
        "[--thresholds THRESHOLDS] responses report"
    ),
    "pr": "[--out OUT] [--top-k TOP_K] ranking annotated",
    "baseline-ds": (
        f"{DIMENSION} [--out OUT] [--threshold THRESHOLD] [--ds-max-iter DS_MAX_ITER] "
        "[--ds-tol DS_TOL] responses"
    ),
    "baseline-time": "[--out OUT] responses",
    "simulate": (
        f"[--seed SEED] {DIMENSION} [--gamma GAMMA] [--out OUT] [--subjects SUBJECTS] [--tasks TASKS] "
        "[--raters RATERS] [--spammers SPAMMERS] [--tau-reliable TAU_RELIABLE] [--agree-mean AGREE_MEAN] "
        "[--strength STRENGTH] [--ratings]"
    ),
    "inject": f"[--seed SEED] {DIMENSION} [--out OUT] [--spammers SPAMMERS] [--tasks-per-spammer TASKS_PER_SPAMMER] responses",
}
TOP_USAGE = f"usage: glba [-h] [--version] {{{','.join(COMMAND_HELP)}}} ...\n"


def _exit_text(monkeypatch, capsys, argv):
    """The exit code, stdout and stderr of `glba argv`, with the help
    formatter's terminal wide enough that no usage line wraps."""
    monkeypatch.setenv("COLUMNS", "1000")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def test_help_lists_every_command_in_order(monkeypatch, capsys):
    code, out, _ = _exit_text(monkeypatch, capsys, ["-h"])
    assert code == 0 and out.startswith(TOP_USAGE)
    lines = out.splitlines()
    first = lines.index(f"  {{{','.join(COMMAND_HELP)}}}") + 1
    listed = [line.split(None, 1) for line in lines[first : first + len(COMMAND_HELP) + 1]]
    assert listed == [[name, text] for name, text in COMMAND_HELP.items()] + [[]]


@pytest.mark.parametrize("command", list(COMMAND_USAGE))
def test_command_help_exits_0_with_its_usage(monkeypatch, capsys, command):
    code, out, _ = _exit_text(monkeypatch, capsys, [command, "-h"])
    assert code == 0
    assert out.splitlines()[0] == f"usage: glba {command} [-h] {COMMAND_USAGE[command]}"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from "
         + ", ".join(map(repr, COMMAND_HELP)) + ")"),
        (["--bogus", "rank", "f.tsv"], "unrecognized arguments: --bogus"),
        (["rank", "f.tsv", "--bogus"], "unrecognized arguments: --bogus"),
        (["fit", "g.tsv", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    ],
)
def test_unknown_command_or_flag_exits_2_with_the_top_level_usage(monkeypatch, capsys, argv, error):
    code, out, err = _exit_text(monkeypatch, capsys, argv)
    assert (code, out, err) == (2, "", f"{TOP_USAGE}glba: error: {error}\n")


def test_dispatch_builds_only_the_dispatched_commands_arguments(monkeypatch, tmp_path):
    built, build_parser = [], cli.build_parser

    def recording_build_parser():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", recording_build_parser)
    assert run(["rank", tmp_path / "missing.tsv", "--out", tmp_path]) == 1
    (subs,) = (a for a in built[0]._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subs.choices) == list(COMMAND_HELP)
    # Only rank's parser is constructed (ArgumentParser.__init__ sets _actions).
    constructed = {name: sub for name, sub in subs.choices.items() if hasattr(sub, "_actions")}
    assert {name: [a.dest for a in sub._actions] for name, sub in constructed.items()} == {
        "rank": ["help", "out", "fits"]
    }


SUBJECTS = (
    "rank\tsubject_id\ttau_mean\talpha\tbeta\tbeta_variance\ttau[0.37]\n"
    "1\ts000\t0.2\t1.0\t2.0\t0.05\t0.2\n"
    "2\ts001\t0.9\t2.0\t1.0\t0.05\t0.9\n"
)


GRAPH = "task_id\tsubjects\tindicators\nt0\ta,b,c\t111111\n"
IDS = "# annotated\ns000\ns001\n"
CONFIG = "# budget\nmax_iter = 5\ntol = 1e-3\n"


@pytest.mark.parametrize(
    "command,bad_text,good_text",
    [
        (["fit", "{bad}", "--gamma", "0.37"], GRAPH, None),
        (["rank", "{bad}"], GOOD_FIT + "s000\t0.9\t2.0\t1.0\n", None),
        (["pr", "{bad}", "{good}"], SUBJECTS, IDS),
        (["pr", "{good}", "{bad}"], IDS, SUBJECTS),
        (["fit", "{good}", "--config", "{bad}"], CONFIG, GRAPH),
    ],
    ids=["graph", "fit-report", "subject-report", "id-list", "config"],
)
def test_non_utf8_input_files_exit_2_naming_the_line(tmp_path, capsys, command, bad_text, good_text):
    # A 0xff byte at the start of the last line of each reader's input.
    *head, last = bad_text.splitlines(keepends=True)
    bad, good = tmp_path / "bad", tmp_path / "good"
    bad.write_bytes("".join(head).encode() + b"\xff" + last.encode())
    if good_text:
        good.write_text(good_text)
    out = tmp_path / "out"
    assert run([arg.format(bad=bad, good=good) for arg in command] + ["--out", out]) == 2
    assert f"error: {bad}: line {len(head) + 1}: byte 0xff is not UTF-8" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "value, first, last, count",
    [("0:1:0.6", 0.0, 0.6, 2), ("0:1:0.05", 0.0, 1.0, 21), ("0:1:0.25", 0.0, 1.0, 5)],
)
def test_overhead_thresholds_stop_at_hi(ratings_csv, tmp_path, value, first, last, count):
    # The thresholds stop at hi even where step does not divide hi - lo.
    ranking = tmp_path / "subjects.tsv"
    ranking.write_text(SUBJECTS)
    out = tmp_path / "out"
    assert run(["overhead", ratings_csv, ranking, "--thresholds", value, "--out", out]) == 0
    rows = (out / "overhead_subject-filter.tsv").read_text().splitlines()[2:]
    thresholds = [float(row.split("\t")[0]) for row in rows]
    assert (thresholds[0], thresholds[-1], len(thresholds)) == (first, last, count)


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


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--spammers", -1, "spammer count must lie in 0..20 (the subject count), got -1"),
        ("--spammers", 500, "spammer count must lie in 0..20 (the subject count), got 500"),
        ("--tasks", -5, "task count must be at least 1, got -5"),
        ("--tasks", 0, "task count must be at least 1, got 0"),
        ("--subjects", -3, "subject count must be at least 1, got -3"),
    ],
    ids=["spammers-negative", "spammers-above-m", "tasks-negative", "tasks-zero", "subjects-negative"],
)
def test_simulate_rejects_bad_counts(tmp_path, capsys, flag, value, message):
    out = tmp_path / "out"
    args = {"--subjects": 20, "--tasks": 10, "--spammers": 2, flag: value}
    assert run(["simulate", *(x for kv in args.items() for x in kv), "--raters", 3, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_fit_config_negative_workers_exits_2(tmp_path, capsys):
    graph = tmp_path / "graph.tsv"
    graph.write_text("task_id\tsubjects\tindicators\nt0\ta,b,c\t111111\n")
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("max_iter = 5\nworkers = -1\n")
    assert run(["fit", graph, "--gamma", 0.37, "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert f"{cfg}:2: invalid value for workers" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["prior_grad_mode = gamma-map", "psi_includes_self = false"])
def test_fit_config_unknown_key_exits_2(tmp_path, capsys, line):
    graph = tmp_path / "graph.tsv"
    graph.write_text("task_id\tsubjects\tindicators\nt0\ta,b,c\t111111\n")
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"max_iter = 5\n{line}\n")
    out = tmp_path / "out"
    assert run(["fit", graph, "--gamma", 0.37, "--config", cfg, "--out", out]) == 2
    key = line.split(" = ")[0]
    assert f"error: {cfg}:2: unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


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
    assert f"error: {cfg}:2: invalid value for {field}: {field} must be a finite number" in capsys.readouterr().err
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
        # only simulate and inject draw random numbers
        ["build-graph", "r.csv", "--seed", "1"],
        ["fit", "graph.tsv", "--seed", "1"],
        ["rank", "fit.tsv", "--seed", "1"],
        ["images", "r.csv", "fit.tsv", "--seed", "1"],
        ["overhead", "r.csv", "subjects.tsv", "--seed", "1"],
        ["pr", "subjects.tsv", "ids.txt", "--seed", "1"],
        ["baseline-ds", "r.csv", "--seed", "1"],
        ["baseline-time", "r.csv", "--seed", "1"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_flag_a_command_does_not_read_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _fresh_python(tmp_path, script):
    """Run `script` in a new interpreter that imports glba from where this
    one does; returns its stdout and stderr."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(glba.__file__)))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout, done.stderr


NON_FIT_COMMANDS = {
    "simulate": "--subjects 8 --tasks 30 --raters 4 --spammers 2 --ratings",
    "build-graph": "ratings.csv",
    "baseline-ds": "ratings.csv",
    "baseline-time": "ratings.csv",
    "rank": "fit_0.37.tsv",
    "images": "ratings.csv fit_0.37.tsv",
    "overhead": "ratings.csv out/subjects.tsv",
    "pr": "out/subjects.tsv ids.txt --top-k 1",
    "inject": "ratings.csv --spammers 2 --tasks-per-spammer 5",
}


def test_commands_but_fit_never_load_scipy_special(ratings_csv, tmp_path):
    # No scipy module at all: not scipy.special, nor the scipy package that
    # only the fit manifest's version line reads.
    os.replace(ratings_csv, tmp_path / "ratings.csv")
    run(["build-graph", tmp_path / "ratings.csv", "--out", tmp_path])
    (tmp_path / "fit.cfg").write_text("max_iter = 40\neb_max_rounds = 1\ntol = 1e-3\n")
    run(["fit", tmp_path / "graph.tsv", "--gamma", 0.37, "--config", tmp_path / "fit.cfg", "--out", tmp_path])
    first_subject = (tmp_path / "ratings.csv").read_text().splitlines()[1].split(",")[0]
    (tmp_path / "ids.txt").write_text(first_subject + "\n")
    script = f"""
import sys
import glba
import glba.cli
print("before", *(m for m in sys.modules if m.split(".")[0] == "scipy"))
for command, args in {NON_FIT_COMMANDS!r}.items():
    print(command, glba.cli.main([command, *args.split(), "--out", "out"]), file=sys.stderr)
print("after", *(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    stdout, stderr = _fresh_python(tmp_path, script)
    assert stderr.splitlines() == [f"{command} 0" for command in NON_FIT_COMMANDS]
    lines = stdout.splitlines()
    assert (lines[0], lines[-1]) == ("before", "after")
    versions = f"version glba={glba.__version__} numpy={np.__version__}"
    for command in NON_FIT_COMMANDS:
        manifest = tmp_path / "out" / f"manifest_{command.replace('-', '_')}.txt"
        assert manifest.read_text().splitlines()[-1] == versions
    assert (tmp_path / "manifest_fit.txt").read_text().splitlines()[-1].startswith(versions + " scipy=")


def test_fit_in_a_fresh_interpreter_matches_an_in_process_fit(ratings_csv, tmp_path):
    run(["build-graph", ratings_csv, "--out", tmp_path])
    script = """
import sys
import glba.cli
print(glba.cli.main(["fit", "graph.tsv", "--gamma", "0.37", "--out", "fresh"]))
print("scipy.special" in sys.modules)
"""
    assert _fresh_python(tmp_path, script)[0].splitlines()[-2:] == ["0", "True"]
    want = tmp_path / "library.tsv"
    write_fit_report(fit(read_multigraph(tmp_path / "graph.tsv"), FitConfig(gamma=0.37)), want)
    assert filecmp.cmp(tmp_path / "fresh" / "fit_0.37.tsv", want, shallow=False)
