"""Output checks and answer-quality measures on a finished workload run.

Each check belongs to the CLI stage whose artifact it reads; a stage that
fails its check counts as a failed operation.  The fit reports' sha256
digests are recorded so outputs of two commits can be diffed; they are a
record only, never a gate.
"""

import csv
import glob
import math
import os

import numpy as np
from glba import textio

import workloads


def _graph_index(path):
    """(task ids, subject ids) of a multigraph file, without building it."""
    tasks, subjects = [], set()
    with open(path, encoding="utf-8") as fh:
        for ln in fh:
            if ln.startswith("#") or ln.startswith("task_id\t"):
                continue
            tid, subj, _ = ln.rstrip("\n").split("\t")
            tasks.append(tid)
            subjects.update(subj.split(","))
    return tasks, subjects


def _csv_subjects(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return {row["subject_id"] for row in csv.DictReader(fh)}


def _check_fit(path, graph_subjects):
    report = textio.read_fit_report(path)
    p = report.params
    values = np.concatenate([p.tau, p.alpha, p.beta])
    if not np.all(np.isfinite(values)):
        return f"{path}: non-finite parameters"
    if not (np.all((p.tau >= 0.0) & (p.tau <= 1.0)) and np.all(p.alpha > 0) and np.all(p.beta > 0)):
        return f"{path}: parameters out of bounds"
    if not 0.0 < p.gamma < 0.5:
        return f"{path}: gamma {p.gamma} outside (0, 0.5)"
    if set(p.subjects) != graph_subjects:
        return f"{path}: subjects differ from the graph's"
    return None


def _bottom_share(ranked_ids, spammers):
    """Share of spammers among the k most suspect, k the spammer count."""
    k = len(spammers)
    return sum(s in spammers for s in ranked_ids[:k]) / k


def _auc(ranked_ids, spammers):
    """Chance that a random spammer is ranked more suspect than a random
    other subject: the whole ranking's quality, where the bottom-k share
    moves in steps of 1/k."""
    ahead = flagged = 0
    for sid in ranked_ids:
        if sid in spammers:
            flagged += 1
        else:
            ahead += flagged
    return ahead / (flagged * (len(ranked_ids) - flagged))


def check_outputs(workload, stage_names):
    """Check the artifacts in the current directory.

    Returns (failures by stage, quality measures, fit report digests).
    """
    failures = {name: [] for name in stage_names}
    quality = {}
    ratings = workloads.ratings_file(workload)

    def check(stage, fn):
        try:
            problem = fn()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            failures[stage].append(problem)

    if "inject" in failures:
        check("inject", lambda: None if os.path.exists(ratings) else f"{ratings} missing")
    graph = {}

    def read_graph():
        graph["tasks"], graph["subjects"] = _graph_index("out/graph.tsv")
        return None if graph["tasks"] else "graph has no tasks"

    check("build_graph", read_graph)
    if not graph.get("tasks"):
        return failures, quality, {}

    fits = sorted(glob.glob("out/fit_*.tsv"))
    digests = {os.path.basename(p): textio.file_digest(p) for p in fits}
    check("fit", lambda: None if fits else "no fit reports")
    for path in fits:
        check("fit", lambda path=path: _check_fit(path, graph["subjects"]))

    spammers = set(textio.read_id_list(workloads.spammer_file(workload)))

    def check_rank():
        ranked = sorted(textio.read_subject_reports("out/subjects.tsv"), key=lambda r: r.rank)
        ids = [r.subject_id for r in ranked]
        if len(ids) != len(graph["subjects"]) or set(ids) != graph["subjects"]:
            return "subjects.tsv does not rank every subject of the graph"
        if [r.rank for r in ranked] != list(range(1, len(ids) + 1)):
            return "subjects.tsv ranks are not 1..m"
        quality["spammer_precision"] = _bottom_share(ids, spammers)
        quality["spammer_auc"] = _auc(ids, spammers)
        return None

    check("rank", check_rank)

    def check_images():
        reports = textio.read_image_reports("out/images_high.tsv")
        if sorted(r.task_id for r in reports) != sorted(graph["tasks"]):
            return "images_high.tsv does not score every task of the graph"
        if not all(math.isfinite(r.adjusted_score) and 0.0 <= r.confidence <= 1.0 for r in reports):
            return "images_high.tsv has scores out of range"
        return None

    check("images", check_images)
    if "overhead" in failures:

        def check_overhead():
            with open("out/overhead_subject-filter.tsv", encoding="utf-8") as fh:
                rows = [ln.split("\t") for ln in fh if ln[0].isdigit()]
            removed = [int(r[1]) for r in rows]
            if not rows or removed != sorted(removed):
                return "overhead curve is empty or not monotone"
            return None

        check("overhead", check_overhead)
    if "pr" in failures:

        def check_pr():
            with open("out/pr.tsv", encoding="utf-8") as fh:
                top = [float(ln.split()[2]) for ln in fh if ln.startswith("# top_")]
            if top != [quality.get("spammer_precision")]:
                return f"pr.tsv top-k precision {top} disagrees with subjects.tsv"
            return None

        check("pr", check_pr)
    table_subjects = _csv_subjects(ratings)

    def baseline_ids(path):
        with open(path, encoding="utf-8") as fh:
            return [ln.split("\t")[2] for ln in list(fh)[1:]]

    if "baseline_ds" in failures:

        def check_ds():
            ids = baseline_ids("out/baseline_ds.tsv")
            if sorted(ids) != sorted(table_subjects):
                return "baseline_ds.tsv does not rank every subject"
            quality["ds_precision"] = _bottom_share(ids, spammers)
            return None

        check("baseline_ds", check_ds)

    def check_time():
        ids = baseline_ids("out/baseline_time.tsv")
        excluded = textio.read_id_list("out/baseline_time_excluded.txt")
        if sorted(ids + excluded) != sorted(table_subjects):
            return "baseline_time ranking plus exclusions do not cover every subject"
        return None

    check("baseline_time", check_time)
    return failures, quality, digests
