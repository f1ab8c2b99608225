"""Span tracing of glba's layers from outside the library.

The tracer replaces public functions on their *module* objects
(``glba.ingest.load_responses``, ``glba.model.fit``, ...).  The CLI calls
them as ``module.function`` and ``fit_grid`` looks ``fit`` up in its module
at call time, so every call goes through the wrapper; the names that
``glba/__init__`` re-exports were bound at import time and would miss calls.
Per-pair helpers such as ``ingest.agree`` are never wrapped: pair counts are
taken from the returned graph instead.

Spans (name, start, end, parent, run id, counts) are kept in memory and
written out by the caller when the run ends.
"""

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import defaultdict


def graph_pairs(graph):
    """Ordered rater pairs of an agreement multigraph, sum of r(r-1)."""
    return sum(t.n_raters * (t.n_raters - 1) for t in graph.tasks)


def _fit_counts(p, report):
    return {
        "model.fit_calls": 1,
        "model.iterations": report.iterations,
        "model.eb_rounds": len(report.round_starts),
        "model.pair_updates": graph_pairs(p["multigraph"]) * report.iterations,
        "model.unconverged_fits": int(not report.converged),
        "model.fallback_subjects": len(report.fallback_subjects),
        "model.gamma_kept": report.gamma_kept_count,
    }


def _ds_counts(p, model):
    return {
        "baselines.ds_iterations": model.iterations,
        "baselines.ds_hit_max_iter": int(model.iterations >= p["max_iter"]),
    }


# module -> {function: (time metric, counts from (bound arguments, result))}
LAYERS = {
    "ingest": {
        "load_responses": (
            "ingest.load_responses_s",
            lambda p, table: {"ingest.load_responses_calls": 1, "ingest.rows_loaded": len(table.rows)},
        ),
        "build_multigraph": (
            "ingest.build_multigraph_s",
            lambda p, graph: {"ingest.pairs": graph_pairs(graph)},
        ),
    },
    "textio": {
        "write_multigraph": (
            "textio.write_multigraph_s",
            lambda p, _: {"textio.graph_bytes": os.path.getsize(p["path"])},
        ),
        "read_multigraph": ("textio.read_multigraph_s", None),
        "read_fit_report": ("textio.fit_report_io_s", None),
        "write_fit_report": ("textio.fit_report_io_s", None),
        "read_subject_reports": ("textio.report_read_s", None),
        "read_image_reports": ("textio.report_read_s", None),
        "read_id_list": ("textio.report_read_s", None),
        "write_subject_reports": ("textio.report_write_s", None),
        "write_image_reports": ("textio.report_write_s", None),
        "write_overhead_curve": ("textio.report_write_s", None),
        "write_pr_result": ("textio.report_write_s", None),
        "write_baseline_ranking": ("textio.report_write_s", None),
        "write_id_list": ("textio.report_write_s", None),
        "write_responses": ("textio.write_responses_s", None),
        "write_manifest": ("textio.manifest_s", None),
    },
    "model": {
        "fit": ("model.fit_s", _fit_counts),
        "fit_grid": ("model.fit_grid_s", None),
    },
    "scoring": {
        "rank_subjects": ("scoring.rank_subjects_s", None),
        "image_scores": ("scoring.image_scores_s", None),
        "overhead_curve": ("scoring.overhead_curve_s", None),
        "precision_recall": ("scoring.precision_recall_s", None),
    },
    "baselines": {
        "categorize_table": ("baselines.categorize_table_s", None),
        "dawid_skene_fit": ("baselines.dawid_skene_fit_s", _ds_counts),
        "duration_rank": ("baselines.duration_rank_s", None),
    },
    "simulate": {
        "inject_spammers": ("simulate.inject_spammers_s", None),
    },
}


class Tracer:
    """Wraps the functions named in LAYERS while active (a context manager)
    and records one span per call, plus one root span per CLI stage run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id, counts]
        # Open spans.  Only the stage's own thread calls wrapped functions
        # (the E-step threads run inside model.fit), so one stack will do.
        self._stack = []
        self._saved = []
        self._run = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._run, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def stage(self, stage, rep, call):
        """Run `call()` as CLI stage `stage`, repetition `rep`, under a root span."""
        self._run = f"{stage}#{rep}"
        idx = self._open(f"cli.{stage}")
        try:
            return call()
        finally:
            self._close(idx)
            self._run = None

    def _wrap(self, module, name, counter):
        original = getattr(module, name)
        span_name = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx][5] = counter(bound.arguments, result)
            return result

        setattr(module, name, traced)
        self._saved.append((module, name, original))

    def __enter__(self):
        for mod_name, funcs in LAYERS.items():
            module = importlib.import_module(f"glba.{mod_name}")
            for name, (_, counter) in funcs.items():
                self._wrap(module, name, counter)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)
        return False

    def records(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": r, "counts": c or {}}
            for n, s, e, p, r, c in self.spans
        ]


_TIME_METRIC = {
    f"{mod}.{name}": metric for mod, funcs in LAYERS.items() for name, (metric, _) in funcs.items()
}


def _run_metrics(members, scale):
    """Per-layer values of one stage run from its (span index, span) pairs,
    with times scaled to reference speed."""
    out = defaultdict(float)
    child_time = defaultdict(float)
    for _, s in members:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    for idx, s in members:
        dur = (s["end"] - s["start"]) * scale
        if s["parent"] is None:
            stage = s["name"].split(".", 1)[1]
            out[f"cli.{stage}_s"] += dur
            # Wrapped calls run one after another on the stage's thread,
            # so their spans do not overlap and self time is a difference.
            out[f"cli.{stage}_self_s"] += dur - child_time[idx] * scale
        else:
            out[_TIME_METRIC[s["name"]]] += dur
        for key, value in s["counts"].items():
            out[key] += value
        out["trace.spans"] += 1
    return out


def layer_metrics(spans, scales):
    """Aggregate spans into per-layer metrics for one pass of the workload.

    `scales` maps each stage run ("fit#2") to its scale to reference speed.
    A stage may have run several times; each metric is the median over that
    stage's runs, summed over stages.  Counts repeat exactly from run to
    run, so their median is the count of one run.
    """
    runs = defaultdict(list)
    for idx, s in enumerate(spans):
        runs[s["run"]].append((idx, s))
    per_stage = defaultdict(list)
    for run, members in runs.items():
        per_stage[run.split("#")[0]].append(_run_metrics(members, scales[run]))
    totals = defaultdict(float)
    for stage_runs in per_stage.values():
        for key in set().union(*stage_runs):
            totals[key] += statistics.median(r.get(key, 0.0) for r in stage_runs)
    fit_s = totals["model.fit_s"]
    iterations = totals["model.iterations"]
    totals["model.s_per_iteration"] = fit_s / iterations if iterations else 0.0
    totals["model.pair_updates_per_s"] = totals["model.pair_updates"] / fit_s if fit_s else 0.0
    return dict(totals)
