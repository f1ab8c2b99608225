"""Command-line front end: file-mediated pipelines over the library.

Every command is a pure function of its input files and flags (`simulate`
and `inject` draw their random numbers from `--seed`); rerunning with the
same inputs produces byte-identical artifacts, and each run drops a
manifest, written from the command's table entry, recording its flags,
input digests and versions.
"""

import argparse
import math
import os
import sys
from collections import namedtuple

import numpy as np

from . import __version__, baselines, ingest, model, scoring, simulate, textio

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2


# Optional flags, each given only to the commands that read it.
_FLAGS = {
    "--seed": dict(type=int, default=0),
    "--dimension": dict(choices=list(ingest.DIMENSIONS), default="valence"),
    "--delta": dict(type=float, default=ingest.DEFAULT_DELTA),
    "--min-raters": dict(type=int, default=ingest.DEFAULT_MIN_RATERS),
    "--gamma": dict(type=float, help="single chance-agreement rate"),
}


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _fit_config(args):
    overrides = {}
    if args.config:
        overrides.update(textio.read_config_file(args.config))
    if args.gamma is not None:
        overrides["gamma"] = args.gamma
    elif args.gamma_grid is not None:
        try:
            overrides["gamma"] = textio.parse_gamma_spec(args.gamma_grid)
        except ValueError as exc:
            raise ValueError(f"--gamma-grid {exc}") from None
    elif "gamma" not in overrides:
        overrides["gamma"] = list(model.DEFAULT_GAMMA_GRID)
    # Fit reports carry no objective trace, so the fits skip computing it.
    overrides["trace"] = False
    return model.FitConfig(**overrides)


def _manifest(args):
    """Write manifest_<command>.txt into --out from the command's table
    entry: its positional arguments and --config as file inputs, every
    other flag it takes (but --out) that is set, and the versions of the
    libraries the entry names."""
    command = _COMMANDS[args.command]
    settings, inputs = {}, []
    names = list(command.flags)
    for key in command.args:
        names += [key] if isinstance(key, str) else key
    for name in names:
        dest = name.lstrip("-").replace("-", "_")
        value = getattr(args, dest)
        if name[0] != "-" or name == "--config":
            inputs += [value] if isinstance(value, str) else value or []
        elif value is not None:
            settings[dest] = value
    path = os.path.join(args.out, f"manifest_{args.command.replace('-', '_')}.txt")
    versions = {lib: __import__(lib).__version__ for lib in command.libraries}
    textio.write_manifest(path, args.command, settings, inputs, versions)


def _gamma_tag(g):
    return f"{g:.6g}"


def _report_names(gammas, kind="gamma values"):
    """The fit report file name of each gamma value.  Rejects two values
    that would write the same file, naming both and the file."""
    names = {}
    for g in gammas:
        name = f"fit_{_gamma_tag(g)}.tsv"
        if name in names:
            raise ValueError(f"{kind} {names[name]!r} and {g!r} both write {name}")
        names[name] = g
    return list(names)


def cmd_build_graph(args):
    table = ingest.load_responses(args.responses)
    graph = ingest.build_multigraph(
        table, args.dimension, delta=args.delta, min_raters=args.min_raters
    )
    out = _outdir(args)
    path = os.path.join(out, "graph.tsv")
    textio.write_multigraph(graph, path)
    sizes = graph.offsets[1:] - graph.offsets[:-1]
    edges = int(sizes @ (sizes - 1))
    dropped = np.unique(table.task_code[table.rated(args.dimension)]).size - graph.n
    print(f"{graph.n} tasks, {graph.m} subjects, {edges} edges")
    print(f"dropped {dropped} tasks with fewer than {args.min_raters} raters")
    print(f"wrote {path}")


def cmd_fit(args):
    graph = textio.read_multigraph(args.graph)
    config = _fit_config(args)
    if not config.update_gamma:  # each report is named by its fixed gamma
        _report_names(model._gamma_values(config.gamma))
    out = _outdir(args)
    reports = model.fit_grid(graph, config)
    # A learned gamma names its report, and fits from different starts
    # can learn the same one.
    names = _report_names([report.params.gamma for report in reports], "fitted gamma values")
    for report, name in zip(reports, names):
        textio.write_fit_report(report, os.path.join(out, name))
        status = "converged" if report.converged else "NOT converged"
        print(
            f"gamma={_gamma_tag(report.params.gamma)}: {report.iterations} iterations, "
            f"{status}, tau0={report.priors.tau0:.4f}, s0={report.priors.s0:.4f}"
        )
    print(f"wrote {len(reports)} fit report(s) to {out}")


def cmd_rank(args):
    fits = [textio.read_fit_report(p) for p in args.fits]
    reports = scoring.rank_subjects(fits)
    out = _outdir(args)
    path = os.path.join(out, "subjects.tsv")
    textio.write_subject_reports(reports, path)
    print(f"ranked {len(reports)} subjects; wrote {path}")


def cmd_images(args):
    table = ingest.load_responses(args.responses)
    fit_report = textio.read_fit_report(args.fit)
    scores = scoring.image_scores(
        table,
        args.dimension,
        fit_report.params,
        direction=args.direction,
        min_raters=args.min_raters,
    )
    out = _outdir(args)
    path = os.path.join(out, f"images_{args.direction}.tsv")
    textio.write_image_reports(scores, path)
    print(f"scored {len(scores)} tasks; wrote {path}")


def cmd_overhead(args):
    table = ingest.load_responses(args.responses)
    if args.mode == "subject-filter":
        reports = textio.read_subject_reports(args.report)
    else:
        reports = textio.read_image_reports(args.report)
    thresholds = _parse_thresholds(args.thresholds) if args.thresholds else None
    curve = scoring.overhead_curve(table, args.dimension, reports, args.mode, thresholds)
    out = _outdir(args)
    path = os.path.join(out, f"overhead_{args.mode}.tsv")
    textio.write_overhead_curve(curve, args.mode, path)
    print(f"wrote {path}")


def cmd_pr(args):
    ranked = textio.read_subject_reports(args.ranking)
    annotated = textio.read_id_list(args.annotated)
    top_k = _parse_top_k(args.top_k) if args.top_k else (20, 40, 60)
    result = scoring.precision_recall(ranked, annotated, top_k=top_k)
    out = _outdir(args)
    path = os.path.join(out, "pr.tsv")
    textio.write_pr_result(result, path)
    for k in sorted(result.top_k):
        print(f"top-{k} precision: {result.top_k[k]:.4f}")
    print(f"wrote {path}")


def cmd_baseline_ds(args):
    for flag, value in (("--threshold", args.threshold), ("--ds-tol", args.ds_tol)):
        if not math.isfinite(value) or value < 0:
            raise ValueError(f"{flag} must be a finite number >= 0, got {value}")
    if args.ds_max_iter < 1:
        raise ValueError(f"--ds-max-iter must be at least 1, got {args.ds_max_iter}")
    table = ingest.load_responses(args.responses)
    cat = baselines.categorize_table(table, args.dimension, threshold=args.threshold)
    ds = baselines.dawid_skene_fit(cat, max_iter=args.ds_max_iter, tol=args.ds_tol)
    ranked = baselines.dawid_skene_rank(ds)
    out = _outdir(args)
    path = os.path.join(out, "baseline_ds.tsv")
    textio.write_baseline_ranking(ranked, "dawid-skene", path)
    status = "converged" if ds.converged else "NOT converged"
    print(f"ranked {len(ranked)} subjects in {ds.iterations} EM iterations, {status}; wrote {path}")


def cmd_baseline_time(args):
    table = ingest.load_responses(args.responses)
    ranked, excluded = baselines.duration_rank(table)
    out = _outdir(args)
    path = os.path.join(out, "baseline_time.tsv")
    textio.write_baseline_ranking(ranked, "duration", path)
    excl_path = os.path.join(out, "baseline_time_excluded.txt")
    textio.write_id_list(excluded, excl_path)
    print(f"ranked {len(ranked)} subjects ({len(excluded)} without timing); wrote {path}")


def cmd_simulate(args):
    raters = _parse_raters(args.raters)
    gamma = args.gamma if args.gamma is not None else 0.37
    params = simulate.make_true_params(
        args.subjects,
        spammer_count=args.spammers,
        tau_reliable=args.tau_reliable,
        agree_mean=args.agree_mean,
        strength=args.strength,
        gamma=gamma,
    )
    spec = simulate.GenerativeSpec(
        m=args.subjects,
        n=args.tasks,
        raters_per_task=raters,
        true_params=params,
        seed=args.seed,
    )
    graph, truth = simulate.sample_multigraph(spec)
    out = _outdir(args)
    graph_path = os.path.join(out, "graph.tsv")
    truth_path = os.path.join(out, "truth.tsv")
    textio.write_multigraph(graph, graph_path)
    textio.write_params_table(truth, truth_path)
    written = [graph_path, truth_path]
    if args.ratings:
        table, _ = simulate.sample_response_table(
            args.subjects,
            args.tasks,
            raters,
            tau_true=params.tau,
            seed=args.seed,
            dimensions=(args.dimension,),
            with_timing=True,
        )
        ratings_path = os.path.join(out, "ratings.csv")
        textio.write_responses(table, ratings_path)
        written.append(ratings_path)
    print(f"sampled {graph.n} tasks over {graph.m} subjects; wrote {', '.join(written)}")


def cmd_inject(args):
    table = ingest.load_responses(args.responses)
    spec = simulate.InjectionSpec(
        spammer_count=args.spammers,
        tasks_per_spammer=args.tasks_per_spammer,
        seed=args.seed,
    )
    new_table, injected = simulate.inject_spammers(table, args.dimension, spec)
    out = _outdir(args)
    csv_path = os.path.join(out, "injected.csv")
    ids_path = os.path.join(out, "injected_ids.txt")
    textio.write_responses(new_table, csv_path)
    textio.write_id_list(injected, ids_path)
    print(f"injected {len(injected)} spammers x {args.tasks_per_spammer} tasks; wrote {csv_path}")


def _parse_thresholds(raw):
    """--thresholds lo:hi:step as the thresholds lo, lo + step, ..., hi."""
    try:
        lo, hi, step = (float(x) for x in raw.split(":"))
    except ValueError:
        raise ValueError(f"--thresholds must be lo:hi:step, got {raw!r}") from None
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise ValueError(f"--thresholds needs finite lo <= hi and step > 0, got {raw!r}")
    # Floor, so no threshold passes hi; the slack absorbs rounding in the
    # division (0.3 / 0.1 is 2.9999999999999996).
    count = math.floor((hi - lo) / step + 1e-9) + 1
    return [round(lo + i * step, 10) for i in range(count)]


def _parse_top_k(raw):
    """--top-k K1,K2,... as a tuple of integers >= 1."""
    try:
        top_k = tuple(int(k) for k in raw.split(","))
    except ValueError:
        raise ValueError(f"--top-k must be comma-separated integers, got {raw!r}") from None
    if min(top_k) < 1:
        raise ValueError(f"--top-k values must be >= 1, got {raw!r}")
    return top_k


def _parse_raters(raw):
    """--raters R or LO:HI as an int or an inclusive (lo, hi) pair."""
    try:
        bounds = tuple(int(x) for x in raw.split(":"))
    except ValueError:
        bounds = ()
    if len(bounds) not in (1, 2) or bounds[0] > bounds[-1]:
        raise ValueError(f"--raters must be R or LO:HI (integers, LO <= HI), got {raw!r}")
    return bounds if len(bounds) == 2 else bounds[0]


_Command = namedtuple("Command", "func help flags args libraries", defaults=((),))

# The commands in `glba -h` order: handler, help, the _FLAGS it takes, its
# own arguments, each name mapped to add_argument's keywords (a tuple of
# names, to a tuple of keywords, is a mutually exclusive group), and the
# libraries besides glba and numpy whose versions its manifest records.
# Every command also takes --out.  A handler raises on bad input; after it
# returns, main writes the manifest from the entry alone.
_COMMANDS = {
    "build-graph": _Command(
        cmd_build_graph, "CSV ratings -> agreement multigraph", ("--dimension", "--delta", "--min-raters"),
        {"responses": dict(help="ratings CSV")},
    ),
    "fit": _Command(cmd_fit, "fit the reliability model on a multigraph", (), {
        "graph": dict(help="multigraph file"),
        ("--gamma", "--gamma-grid"): (
            _FLAGS["--gamma"], dict(help="lo:hi:count grid (default 0.3:0.48:10)"),
        ),
        "--config": dict(help="fit configuration file (key = value lines)"),
    }, ("scipy",)),
    "rank": _Command(cmd_rank, "rank subjects from one or more fits", (), {
        "fits": dict(nargs="+", help="fit report files (one per gamma)"),
    }),
    "images": _Command(cmd_images, "confidence-weighted stimulus scores", ("--dimension", "--min-raters"), {
        "responses": {},
        "fit": dict(help="fit report supplying subject reliabilities"),
        "--direction": dict(choices=["high", "low"], default="high"),
    }),
    "overhead": _Command(cmd_overhead, "labels removed vs quality threshold", ("--dimension",), {
        "responses": {},
        "report": dict(help="subjects.tsv or images tsv, per --mode"),
        "--mode": dict(choices=["subject-filter", "image-filter"], default="subject-filter"),
        "--thresholds": dict(help="lo:hi:step (default 0:1:0.05)"),
    }),
    "pr": _Command(cmd_pr, "precision/recall against annotated spammers", (), {
        "ranking": dict(help="subjects.tsv from rank"),
        "annotated": dict(help="file of known-spammer ids, one per line"),
        "--top-k": dict(help="comma-separated K values (default 20,40,60)"),
    }),
    "baseline-ds": _Command(cmd_baseline_ds, "confusion-matrix EM baseline", ("--dimension",), {
        "responses": {},
        "--threshold": dict(type=float, default=baselines.DEFAULT_MARGIN),
        "--ds-max-iter": dict(type=int, default=100),
        "--ds-tol": dict(type=float, default=1e-6),
    }),
    "baseline-time": _Command(cmd_baseline_time, "mean-duration baseline", (), {"responses": {}}),
    "simulate": _Command(cmd_simulate, "sample a synthetic multigraph", ("--seed", "--dimension", "--gamma"), {
        "--subjects": dict(type=int, default=200),
        "--tasks": dict(type=int, default=2000),
        "--raters": dict(default="5", help="raters per task: int or lo:hi"),
        "--spammers": dict(type=int, default=20),
        "--tau-reliable": dict(type=float, default=0.9),
        "--agree-mean": dict(type=float, default=0.7),
        "--strength": dict(type=float, default=5.0),
        "--ratings": dict(action="store_true", help="also emit a synthetic ratings CSV"),
    }),
    "inject": _Command(cmd_inject, "inject population-mimicking spammers", ("--seed", "--dimension"), {
        "responses": {},
        "--spammers": dict(type=int, default=10),
        "--tasks-per-spammer": dict(type=int, default=50),
    }),
}


class _CommandParser(argparse.ArgumentParser):
    """One command's parser.  It is registered by name and help alone, and
    runs ArgumentParser.__init__ and adds -h and its command's arguments on
    its first parse, so a run builds the parser of the command it
    dispatches and of no other."""

    def __init__(self, command, **kwargs):  # ArgumentParser.__init__ waits for the first parse
        self._unbuilt = command, kwargs

    def parse_known_args(self, args=None, namespace=None):
        if self._unbuilt is not None:
            (command, kwargs), self._unbuilt = self._unbuilt, None
            super().__init__(add_help=False, **kwargs)
            self._add_arguments(command)
        return super().parse_known_args(args, namespace)

    def _add_arguments(self, command):
        # The order of these calls is the order of the help and usage texts.
        self.add_argument(
            "-h", "--help", action="help", default=argparse.SUPPRESS,
            help="show this help message and exit",
        )
        for flag in command.flags:
            self.add_argument(flag, **_FLAGS[flag])
        self.add_argument("--out", default="out", help="output directory")
        for names, kwargs in command.args.items():
            if isinstance(names, str):
                self.add_argument(names, **kwargs)
            else:
                group = self.add_mutually_exclusive_group()
                for name, keywords in zip(names, kwargs):
                    group.add_argument(name, **keywords)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="glba",
        description="Reliability estimation for crowdsourced ratings over agreement multigraphs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, command in _COMMANDS.items():
        subs.add_parser(name, help=command.help, command=command)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.command].func(args)
        _manifest(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
