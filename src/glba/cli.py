"""Command-line front end: file-mediated pipelines over the library.

Every command is a pure function of its inputs, flags, and seed; rerunning
with the same inputs produces byte-identical artifacts, and each run drops
a manifest recording settings, input digests, and versions.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import __version__, baselines, ingest, model, scoring, simulate, textio

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2


# Optional flags, each given only to the commands that read it.
_FLAGS = {
    "--dimension": dict(choices=list(ingest.DIMENSIONS), default="valence"),
    "--delta": dict(type=float, default=ingest.DEFAULT_DELTA),
    "--min-raters": dict(type=int, default=ingest.DEFAULT_MIN_RATERS),
    "--gamma": dict(type=float, help="single chance-agreement rate"),
}


def _add_command(subs, name, func, help, *flags):
    """Subcommand `name` running `func`, with --seed (every manifest records
    it), --out and the named optional `flags`."""
    p = subs.add_parser(name, help=help)
    p.add_argument("--seed", type=int, default=0)
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=func)
    return p


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


def _settings(args, keys):
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _manifest(args, command, inputs, extra=None):
    settings = _settings(
        args, ("dimension", "delta", "gamma", "gamma_grid", "min_raters", "config")
    )
    if extra:
        settings.update(extra)
    path = os.path.join(args.out, f"manifest_{command.replace('-', '_')}.txt")
    textio.write_manifest(path, command, settings, args.seed, inputs)


def _gamma_tag(g):
    return f"{g:.6g}"


def cmd_build_graph(args):
    table = ingest.load_responses(args.responses)
    graph = ingest.build_multigraph(
        table, args.dimension, delta=args.delta, min_raters=args.min_raters
    )
    out = _outdir(args)
    path = os.path.join(out, "graph.tsv")
    textio.write_multigraph(graph, path)
    _manifest(args, "build-graph", [args.responses])
    sizes = graph.offsets[1:] - graph.offsets[:-1]
    edges = int(sizes @ (sizes - 1))
    dropped = np.unique(table.task_code[table.rated(args.dimension)]).size - graph.n
    print(f"{graph.n} tasks, {graph.m} subjects, {edges} edges")
    print(f"dropped {dropped} tasks with fewer than {args.min_raters} raters")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_fit(args):
    graph = textio.read_multigraph(args.graph)
    config = _fit_config(args)
    out = _outdir(args)
    written = []
    for report in model.fit_grid(graph, config):
        path = os.path.join(out, f"fit_{_gamma_tag(report.params.gamma)}.tsv")
        textio.write_fit_report(report, path)
        written.append(path)
        status = "converged" if report.converged else "NOT converged"
        print(
            f"gamma={_gamma_tag(report.params.gamma)}: {report.iterations} iterations, "
            f"{status}, tau0={report.priors.tau0:.4f}, s0={report.priors.s0:.4f}"
        )
    _manifest(args, "fit", [args.graph], extra={"gamma_values": len(written)})
    print(f"wrote {len(written)} fit report(s) to {out}")
    return EXIT_OK


def cmd_rank(args):
    fits = [textio.read_fit_report(p) for p in args.fits]
    reports = scoring.rank_subjects(fits)
    out = _outdir(args)
    path = os.path.join(out, "subjects.tsv")
    textio.write_subject_reports(reports, path)
    _manifest(args, "rank", list(args.fits))
    print(f"ranked {len(reports)} subjects; wrote {path}")
    return EXIT_OK


def cmd_images(args):
    table = ingest.load_responses(args.responses)
    fit_report = textio.read_fit_report(args.fit)
    reports = scoring.image_scores(
        table,
        args.dimension,
        fit_report.params,
        direction=args.direction,
        min_raters=args.min_raters,
    )
    out = _outdir(args)
    path = os.path.join(out, f"images_{args.direction}.tsv")
    textio.write_image_reports(reports, path)
    _manifest(args, "images", [args.responses, args.fit], extra={"direction": args.direction})
    print(f"scored {len(reports)} tasks; wrote {path}")
    return EXIT_OK


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
    _manifest(args, "overhead", [args.responses, args.report], extra={"mode": args.mode})
    print(f"wrote {path}")
    return EXIT_OK


def cmd_pr(args):
    ranked = textio.read_subject_reports(args.ranking)
    annotated = textio.read_id_list(args.annotated)
    top_k = _parse_top_k(args.top_k) if args.top_k else (20, 40, 60)
    result = scoring.precision_recall(ranked, annotated, top_k=top_k)
    out = _outdir(args)
    path = os.path.join(out, "pr.tsv")
    textio.write_pr_result(result, path)
    _manifest(args, "pr", [args.ranking, args.annotated])
    for k in sorted(result.top_k):
        print(f"top-{k} precision: {result.top_k[k]:.4f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_baseline_ds(args):
    for flag, value in (("--threshold", args.threshold), ("--ds-tol", args.ds_tol)):
        if not math.isfinite(value) or value < 0:
            raise ValueError(f"{flag} must be a finite number >= 0, got {value}")
    table = ingest.load_responses(args.responses)
    cat = baselines.categorize_table(table, args.dimension, threshold=args.threshold)
    ds = baselines.dawid_skene_fit(cat, max_iter=args.ds_max_iter, tol=args.ds_tol)
    ranked = baselines.dawid_skene_rank(ds)
    out = _outdir(args)
    path = os.path.join(out, "baseline_ds.tsv")
    textio.write_baseline_ranking(ranked, "dawid-skene", path)
    settings = {"threshold": args.threshold, "ds_max_iter": args.ds_max_iter, "ds_tol": args.ds_tol}
    _manifest(args, "baseline-ds", [args.responses], extra=settings)
    status = "converged" if ds.converged else "NOT converged"
    print(f"ranked {len(ranked)} subjects in {ds.iterations} EM iterations, {status}; wrote {path}")
    return EXIT_OK


def cmd_baseline_time(args):
    table = ingest.load_responses(args.responses)
    ranked, excluded = baselines.duration_rank(table)
    out = _outdir(args)
    path = os.path.join(out, "baseline_time.tsv")
    textio.write_baseline_ranking(ranked, "duration", path)
    excl_path = os.path.join(out, "baseline_time_excluded.txt")
    textio.write_id_list(excluded, excl_path)
    _manifest(args, "baseline-time", [args.responses])
    print(f"ranked {len(ranked)} subjects ({len(excluded)} without timing); wrote {path}")
    return EXIT_OK


def cmd_simulate(args):
    gamma = args.gamma if args.gamma is not None else 0.37
    params = simulate.make_true_params(
        args.subjects,
        spammer_count=args.spammers,
        tau_reliable=args.tau_reliable,
        agree_mean=args.agree_mean,
        strength=args.strength,
        gamma=gamma,
    )
    raters = _parse_raters(args.raters)
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
    _manifest(
        args,
        "simulate",
        [],
        extra={
            "subjects": args.subjects,
            "tasks": args.tasks,
            "raters": args.raters,
            "spammers": args.spammers,
        },
    )
    print(f"sampled {graph.n} tasks over {graph.m} subjects; wrote {', '.join(written)}")
    return EXIT_OK


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
    _manifest(
        args,
        "inject",
        [args.responses],
        extra={"spammers": args.spammers, "tasks_per_spammer": args.tasks_per_spammer},
    )
    print(f"injected {len(injected)} spammers x {args.tasks_per_spammer} tasks; wrote {csv_path}")
    return EXIT_OK


def _parse_thresholds(raw):
    """--thresholds lo:hi:step as the thresholds lo, lo + step, ..., hi."""
    try:
        lo, hi, step = (float(x) for x in raw.split(":"))
    except ValueError:
        raise ValueError(f"--thresholds must be lo:hi:step, got {raw!r}") from None
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise ValueError(f"--thresholds needs finite lo <= hi and step > 0, got {raw!r}")
    count = int(round((hi - lo) / step)) + 1
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="glba",
        description="Reliability estimation for crowdsourced ratings over agreement multigraphs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = _add_command(
        subs, "build-graph", cmd_build_graph, "CSV ratings -> agreement multigraph",
        "--dimension", "--delta", "--min-raters",
    )
    p.add_argument("responses", help="ratings CSV")

    p = _add_command(subs, "fit", cmd_fit, "fit the reliability model on a multigraph")
    p.add_argument("graph", help="multigraph file")
    gam = p.add_mutually_exclusive_group()
    gam.add_argument("--gamma", **_FLAGS["--gamma"])
    gam.add_argument("--gamma-grid", help="lo:hi:count grid (default 0.3:0.48:10)")
    p.add_argument("--config", help="fit configuration file (key = value lines)")

    p = _add_command(subs, "rank", cmd_rank, "rank subjects from one or more fits")
    p.add_argument("fits", nargs="+", help="fit report files (one per gamma)")

    p = _add_command(
        subs, "images", cmd_images, "confidence-weighted stimulus scores",
        "--dimension", "--min-raters",
    )
    p.add_argument("responses")
    p.add_argument("fit", help="fit report supplying subject reliabilities")
    p.add_argument("--direction", choices=["high", "low"], default="high")

    p = _add_command(
        subs, "overhead", cmd_overhead, "labels removed vs quality threshold", "--dimension"
    )
    p.add_argument("responses")
    p.add_argument("report", help="subjects.tsv or images tsv, per --mode")
    p.add_argument("--mode", choices=["subject-filter", "image-filter"], default="subject-filter")
    p.add_argument("--thresholds", help="lo:hi:step (default 0:1:0.05)")

    p = _add_command(subs, "pr", cmd_pr, "precision/recall against annotated spammers")
    p.add_argument("ranking", help="subjects.tsv from rank")
    p.add_argument("annotated", help="file of known-spammer ids, one per line")
    p.add_argument("--top-k", help="comma-separated K values (default 20,40,60)")

    p = _add_command(
        subs, "baseline-ds", cmd_baseline_ds, "confusion-matrix EM baseline", "--dimension"
    )
    p.add_argument("responses")
    p.add_argument("--threshold", type=float, default=baselines.DEFAULT_MARGIN)
    p.add_argument("--ds-max-iter", type=int, default=100)
    p.add_argument("--ds-tol", type=float, default=1e-6)

    p = _add_command(subs, "baseline-time", cmd_baseline_time, "mean-duration baseline")
    p.add_argument("responses")

    p = _add_command(
        subs, "simulate", cmd_simulate, "sample a synthetic multigraph", "--dimension", "--gamma"
    )
    p.add_argument("--subjects", type=int, default=200)
    p.add_argument("--tasks", type=int, default=2000)
    p.add_argument("--raters", default="5", help="raters per task: int or lo:hi")
    p.add_argument("--spammers", type=int, default=20)
    p.add_argument("--tau-reliable", type=float, default=0.9)
    p.add_argument("--agree-mean", type=float, default=0.7)
    p.add_argument("--strength", type=float, default=5.0)
    p.add_argument("--ratings", action="store_true", help="also emit a synthetic ratings CSV")

    p = _add_command(
        subs, "inject", cmd_inject, "inject population-mimicking spammers", "--dimension"
    )
    p.add_argument("responses")
    p.add_argument("--spammers", type=int, default=10)
    p.add_argument("--tasks-per-spammer", type=int, default=50)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
