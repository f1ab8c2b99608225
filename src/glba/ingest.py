"""Loading of rating tables and construction of per-task agreement multigraphs.

Two raters agree on a task when their ratings are close in *percentile*
terms rather than in absolute value: the rule adapts to non-uniform rating
distributions.  The percentile table is computed once from the whole pool
of retained answers for a dimension, and every ordered rater pair within a
task receives a binary agreement indicator.
"""

import csv
import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

# Rating scale (inclusive bounds) per affective dimension.
DIMENSION_SCALES = {
    "valence": (1.0, 9.0),
    "arousal": (1.0, 9.0),
    "dominance": (1.0, 9.0),
    "likeness": (1.0, 7.0),
}

DIMENSIONS = tuple(DIMENSION_SCALES)

# Continuous slider ratings are binned to this many decimals before any
# percentile computation, so that "the next rating value" is well defined.
BIN_DECIMALS = 1

DEFAULT_DELTA = 0.2
DEFAULT_MIN_RATERS = 4


@dataclass
class ResponseRow:
    subject_id: str
    task_id: str
    scores: dict  # dimension name -> float rating
    view_seconds: float | None = None
    label_seconds: float | None = None


@dataclass
class ResponseTable:
    """Raw per-(subject, task) ordinal ratings, at most one row per pair."""

    rows: list

    def subjects(self):
        return sorted({r.subject_id for r in self.rows})

    def rows_for(self, dimension):
        """Rows that carry a rating for `dimension`."""
        return [r for r in self.rows if r.scores.get(dimension) is not None]


@dataclass
class PercentileTable:
    """Cumulative rating fractions over a discrete support.

    ``cdf[v]`` is the fraction of the pool with rating <= v (inclusive, so
    the maximum support value maps to exactly 1.0).  ``value_after(v)``
    steps to the next support value; one step past the top of the scale
    carries full cumulative mass.
    """

    dimension: str
    support: list
    cdf: dict
    _index: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        self._index = {v: i for i, v in enumerate(self.support)}

    def cum(self, value):
        if value not in self._index:
            raise ValueError(f"rating {value!r} not in the {self.dimension or 'rating'} support")
        return self.cdf[value]

    def cum_after(self, value):
        """Cumulative fraction at the support value following `value`."""
        i = self._index.get(value)
        if i is None:
            raise ValueError(f"rating {value!r} not in the {self.dimension or 'rating'} support")
        if i + 1 >= len(self.support):
            return 1.0
        return self.cdf[self.support[i + 1]]


@dataclass
class TaskGraph:
    """Agreement indicators for one task over its ordered rater list.

    ``edges[a, b]`` is the indicator for the ordered pair
    (subjects[a], subjects[b]); the diagonal is unused and kept at zero.
    """

    task_id: str
    subjects: list
    edges: np.ndarray

    @property
    def n_raters(self):
        return len(self.subjects)


# The tasks with one rater count r, stacked in task order: their positions
# in the task list (G,), uint8 indicators (G, r, r), global rater indices
# (G, r) and positions in the flat rater layout (G, r).
SizeGroup = namedtuple("SizeGroup", "tasks edges sidx dest")


def _codes(ids):
    """The sorted distinct ids, and each id's position among them."""
    unique = sorted(set(ids))
    pos = {s: i for i, s in enumerate(unique)}
    return unique, np.fromiter(map(pos.__getitem__, ids), np.intp, len(ids))


@dataclass(eq=False)
class AgreementMultigraph:
    """Task graphs over one global subject list, checked and packed once.

    Built from the task graphs alone: sorts them by task id, derives
    ``subjects`` and lays every (task, rater) slot out task-major, as
    ``offsets`` per task, ``flat_sidx`` (global rater index per slot),
    ``groups`` (a SizeGroup per rater count, ascending) and ``degree``
    (tasks per subject); ``blocks`` adds the groups' float forms on first
    use.  Raises ValueError naming the task on an empty or duplicate task
    id, an empty or repeated subject id, edges not of shape (r, r), an
    indicator other than 0 or 1, or a nonzero diagonal.
    """

    tasks: list  # TaskGraph, sorted by task_id
    subjects: list = field(init=False)  # sorted union of the raters
    offsets: np.ndarray = field(init=False, repr=False)
    flat_sidx: np.ndarray = field(init=False, repr=False)
    groups: list = field(init=False, repr=False)
    degree: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        tasks = self.tasks = sorted(self.tasks, key=attrgetter("task_id"))
        ids = [t.task_id for t in tasks]
        if ids and not ids[0]:
            raise ValueError(f"empty task id (raters {','.join(tasks[0].subjects)})")
        for a, b in zip(ids, ids[1:]):
            if a == b:
                raise ValueError(f"duplicate task id {a!r}")
        self.subjects, self.flat_sidx = _codes([s for t in tasks for s in t.subjects])
        empty = 0 if self.subjects[:1] == [""] else -1  # "" sorts first
        sizes = np.array([len(t.subjects) for t in tasks], dtype=np.intp)
        self.offsets = np.append(0, np.cumsum(sizes))
        self.degree = np.bincount(self.flat_sidx, minlength=len(self.subjects))
        self.groups = []
        for r in np.unique(sizes).tolist():
            members = np.flatnonzero(sizes == r)
            try:
                edges = np.stack([tasks[i].edges for i in members.tolist()])
            except ValueError:  # shapes differ
                edges = None
            if edges is None or edges.shape[1:] != (r, r):
                t = next(tasks[i] for i in members if np.shape(tasks[i].edges) != (r, r))
                shape = np.shape(t.edges)
                raise ValueError(f"task {t.task_id!r} has edges of shape {shape}, expected ({r}, {r})")
            dest = self.offsets[members, None] + np.arange(r)
            sidx = self.flat_sidx[dest]
            ranked = np.sort(sidx, axis=1)
            for bad, what in (
                ((sidx == empty).any(axis=1), "has an empty subject id"),
                ((ranked[:, 1:] == ranked[:, :-1]).any(axis=1), "lists a subject more than once"),
                (((edges != 0) & (edges != 1)).any(axis=(1, 2)), "has an indicator other than 0 or 1"),
                (np.einsum("gii->gi", edges).any(axis=1), "has a nonzero diagonal"),
            ):
                if bad.any():
                    raise ValueError(f"task {ids[members[bad.argmax()]]!r} {what}")
            self.groups.append(SizeGroup(members, edges.astype(np.uint8), sidx, dest))

    @functools.cached_property
    def blocks(self):
        """Per entry of ``groups``: its indicators as floats (G, r, r) and
        their complement 1 - E with the unused diagonal at zero, the forms
        the fit's kernels read.  Built on first use and kept, so a grid of
        fits converts once and a graph that is only read or written never
        does."""
        blocks = []
        for g in self.groups:
            E = g.edges.astype(float)
            comp = 1.0 - E
            np.einsum("gii->gi", comp)[...] = 0.0
            blocks.append((E, comp))
        return blocks

    @property
    def m(self):
        return len(self.subjects)

    @property
    def n(self):
        return len(self.tasks)


def bin_rating(value, decimals=BIN_DECIMALS):
    return round(float(value), decimals)


def load_responses(path, schema=None):
    """Read a delimited rating file into a validated ResponseTable.

    Parameters
    ----------
    path : str
        Comma-separated file with a header row.  Expected columns are
        subject_id, task_id, the four dimension columns, and optionally
        view_seconds / label_seconds.
    schema : dict, optional
        Maps the canonical column names above to the actual header names
        in the file.

    Raises
    ------
    ValueError
        On a missing required column, a duplicated (subject, task) pair,
        an unparseable number, a rating outside its scale, or a negative or
        non-finite timing.  The message names the offending rows.
    """
    schema = schema or {}

    def col(name):
        return schema.get(name, name)

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file (no header row)")
        # Of duplicated header names the last one wins, as in csv.DictReader.
        index = {name: i for i, name in enumerate(header)}
        required = ["subject_id", "task_id"] + list(DIMENSIONS)
        missing = [c for c in required if col(c) not in index]
        if missing:
            raise ValueError(f"{path}: missing required column(s): {', '.join(missing)}")
        i_sid = index[col("subject_id")]
        i_tid = index[col("task_id")]
        dims = [(dim, index[col(dim)], *DIMENSION_SCALES[dim]) for dim in DIMENSIONS]
        timing = [(name, index.get(col(name))) for name in ("view_seconds", "label_seconds")]
        width = len(header)

        rows = []
        problems = []
        seen = {}
        # Blank lines are skipped and not counted; the header is line 1.
        for lineno, rec in enumerate(filter(None, reader), start=2):
            if len(rec) < width:  # a short row's missing fields read as empty
                rec += [""] * (width - len(rec))
            sid = rec[i_sid].strip()
            tid = rec[i_tid].strip()
            if not sid or not tid:
                problems.append(f"row {lineno}: empty subject_id or task_id")
                continue
            bad_id = [c for c in "\t,\n" if c in sid + tid]
            if bad_id:
                problems.append(f"row {lineno}: subject/task id contains a reserved character")
                continue
            key = (sid, tid)
            if key in seen:
                problems.append(f"row {lineno}: duplicate (subject, task) pair {key}, first seen at row {seen[key]}")
                continue
            seen[key] = lineno

            scores = {}
            for dim, i, lo, hi in dims:
                raw = rec[i].strip()
                if raw == "":
                    continue
                try:
                    value = float(raw)
                except ValueError:
                    problems.append(f"row {lineno}: unparseable {dim} value {raw!r}")
                    continue
                if not (lo <= value <= hi) or not math.isfinite(value):
                    problems.append(f"row {lineno}: {dim} {value} outside [{lo:g}, {hi:g}]")
                    continue
                scores[dim] = value

            seconds = []
            for name, i in timing:
                raw = "" if i is None else rec[i].strip()
                value = None
                if raw != "":
                    try:
                        value = float(raw)
                    except ValueError:
                        problems.append(f"row {lineno}: unparseable {name} value {raw!r}")
                    else:
                        if not math.isfinite(value):
                            problems.append(f"row {lineno}: non-finite {name} value {raw!r}")
                            value = None
                        elif value < 0:
                            problems.append(f"row {lineno}: negative {name}")
                            value = None
                seconds.append(value)

            rows.append(ResponseRow(sid, tid, scores, *seconds))

    if problems:
        shown = "; ".join(problems[:20])
        more = f" (+{len(problems) - 20} more)" if len(problems) > 20 else ""
        raise ValueError(f"{path}: {shown}{more}")
    return ResponseTable(rows=rows)


def _cumulative(at, size):
    """Fraction of a pool at or below each of `size` sorted support values,
    from the support position `at` of every pool value."""
    return np.cumsum(np.bincount(at, minlength=size)) / len(at)


def percentile_table(values, scale, dimension=""):
    """Build the cumulative-fraction table of a rating pool.

    Parameters
    ----------
    values : iterable of ratings (the pool, with multiplicity)
    scale : iterable of the valid discrete rating values
    """
    pool = np.asarray([float(v) for v in values])
    if not pool.size:
        raise ValueError("empty rating pool")
    support = np.array(sorted({float(s) for s in scale}))
    outside = ~np.isin(pool, support)
    if outside.any():
        raise ValueError(f"pool value {float(pool[outside][0])!r} not in scale")
    cdf = _cumulative(np.searchsorted(support, pool), len(support))
    keys = support.tolist()
    return PercentileTable(dimension=dimension, support=keys, cdf=dict(zip(keys, cdf.tolist())))


def _check_delta(delta):
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def _agree_rule(c0_i, c0_j, c1_i, c1_j, delta):
    """The percentile rule, elementwise: the mean of the cumulative-fraction
    gap at two ratings (c0) and at their successor values (c1) is at most
    `delta`."""
    return 0.5 * np.abs(c0_i - c0_j) + 0.5 * np.abs(c1_i - c1_j) <= delta


def agree(a_i, a_j, table, delta=DEFAULT_DELTA):
    """Percentile-rule agreement indicator for two ratings.

    Returns 1 iff the mean of the percentile gap at the two ratings and
    the gap at their successor values is at most `delta`.  Symmetric in
    the two ratings.
    """
    _check_delta(delta)
    c0_i, c0_j = table.cum(a_i), table.cum(a_j)
    c1_i, c1_j = table.cum_after(a_i), table.cum_after(a_j)
    return 1 if _agree_rule(c0_i, c0_j, c1_i, c1_j, delta) else 0


# One dimension's ratings on its tasks with at least min_raters raters, task
# k's at slots offsets[k]:offsets[k+1]: the kept task ids (sorted) and per
# slot the rater's code into `subjects` (all raters, sorted; ascending within
# a task) and rating.  n_tasks counts every task rated on the dimension.
TaskLayout = namedtuple("TaskLayout", "task_ids offsets subjects scode ratings n_tasks")


def _task_layout(table, dimension, min_raters):
    """TaskLayout from one stable lexsort of the rows by (task, rater) code."""
    rows = table.rows_for(dimension)
    task_ids, tcode = _codes([r.task_id for r in rows])
    subjects, scode = _codes([r.subject_id for r in rows])
    ratings = np.fromiter((r.scores[dimension] for r in rows), float, len(rows))
    counts = np.bincount(tcode, minlength=len(task_ids))
    kept = counts >= min_raters
    order = np.lexsort((scode, tcode))
    order = order[kept[tcode[order]]]
    kept_ids = [t for t, k in zip(task_ids, kept.tolist()) if k]
    offsets = np.append(0, np.cumsum(counts[kept]))
    return TaskLayout(kept_ids, offsets, subjects, scode[order], ratings[order], len(task_ids))


def build_multigraph(table, dimension, delta=DEFAULT_DELTA, min_raters=DEFAULT_MIN_RATERS):
    """Build the per-task agreement multigraph for one rating dimension.

    Rows without a rating on `dimension` are ignored.  Tasks rated by
    fewer than `min_raters` subjects are dropped; the percentile table is
    computed from the remaining pool.  Task lists and rater lists are
    sorted by id so the result does not depend on input order.

    Each distinct rating is binned once; the percentile rule is evaluated
    once per pair of distinct binned ratings, and the indicators of all
    tasks with the same rater count are gathered from that table in one
    step.
    """
    _check_delta(delta)
    layout = _task_layout(table, dimension, min_raters)
    if not layout.n_tasks:
        raise ValueError(f"no rows carry a rating for dimension {dimension!r}")
    if not layout.task_ids:
        raise ValueError(
            f"no task has at least {min_raters} raters on {dimension!r}; nothing to build"
        )

    offsets, sizes = layout.offsets, np.diff(layout.offsets)
    values, inverse = np.unique(layout.ratings, return_inverse=True)
    pool = np.fromiter(map(bin_rating, values.tolist()), float, len(values))[inverse]
    support = np.unique(pool)
    at = np.searchsorted(support, pool)
    cdf = _cumulative(at, len(support))
    # One step past the top of the scale carries full cumulative mass.
    cdf_after = np.append(cdf[1:], 1.0)
    # The rule depends on the two ratings alone, so it is evaluated once per
    # pair of support values (at most 81 values on a 1..9 scale binned to
    # one decimal) and every rater pair looks its indicator up.
    agrees = _agree_rule(
        cdf[:, None], cdf[None, :], cdf_after[:, None], cdf_after[None, :], delta
    ).astype(np.uint8)

    raters = list(map(layout.subjects.__getitem__, layout.scode.tolist()))
    bounds = offsets.tolist()
    tasks = [None] * len(sizes)
    for k in np.unique(sizes).tolist():
        members = np.flatnonzero(sizes == k)
        g = at[offsets[members, None] + np.arange(k)]
        block = agrees[g[:, :, None], g[:, None, :]]
        block[:, np.arange(k), np.arange(k)] = 0
        for q, t in enumerate(members.tolist()):
            tasks[t] = TaskGraph(layout.task_ids[t], raters[bounds[t] : bounds[t + 1]], block[q])
    return AgreementMultigraph(tasks)


def variance_ratio(table, dimension):
    """Within-task variance share of one dimension's ratings.

    Returns the mean (over tasks with at least two ratings) of the
    within-task population variance, divided by the population variance of
    the pooled ratings.  Values well below 1 indicate that raters disagree
    less on the same stimulus than across stimuli.
    """
    rows = table.rows_for(dimension)
    if not rows:
        raise ValueError(f"no rows carry a rating for dimension {dimension!r}")
    by_task = {}
    for r in rows:
        by_task.setdefault(r.task_id, []).append(r.scores[dimension])

    within = [
        float(np.var(np.asarray(vals, dtype=float)))
        for tid, vals in sorted(by_task.items())
        if len(vals) >= 2
    ]
    if not within:
        raise ValueError("need at least one task with two or more ratings")
    pooled = float(np.var(np.asarray([r.scores[dimension] for r in rows], dtype=float)))
    if pooled == 0.0:
        raise ValueError("all ratings identical: cross-task variance is zero")
    return float(np.mean(within)) / pooled
