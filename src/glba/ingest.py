"""Loading of rating tables and construction of per-task agreement multigraphs.

A rating table is columnar: ``load_responses`` parses the CSV with
``csv.reader``, transposes the records into one column per field, checks
whole columns and returns a ResponseTable of id lists and float arrays (NaN
marks a missing value).  Every reader in the library works on those
columns; ``ResponseTable.rows`` gives the same table as ResponseRow records
for callers that want them, and ``ResponseTable.from_rows`` packs records
into columns.

Two raters agree on a task when their ratings are close in *percentile*
terms rather than in absolute value: the rule adapts to non-uniform rating
distributions.  The percentile table is computed once from the whole pool
of retained answers for a dimension, and every ordered rater pair within a
task receives a binary agreement indicator.

A multigraph has one packed form: ``AgreementMultigraph`` takes the task
ids, each task's rater count, the rater ids and the pair indicators as flat
task-major arrays, checks them and stacks each rater-count group into one
indicator block.  ``build_multigraph`` gathers the indicators straight into
that form; ``AgreementMultigraph.from_tasks`` packs TaskGraph records and
``AgreementMultigraph.tasks`` gives the graph back as records, for callers
that want them.
"""

import csv
import functools
import math
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter, gt, itemgetter

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
    """One rating record: the form tables are built from and read back as."""

    subject_id: str
    task_id: str
    scores: dict  # dimension name -> float rating
    view_seconds: float | None = None
    label_seconds: float | None = None


# Marks a missing rating or timing in a ResponseTable column.  The loader
# rejects a literal nan and ResponseTable.from_rows rejects a NaN value, so
# in a column NaN only ever means "no value".
MISSING = math.nan


@dataclass(eq=False)
class ResponseTable:
    """Raw per-(subject, task) ordinal ratings, at most one row per pair,
    stored as columns in file order.

    ``subject_ids`` and ``task_ids`` hold one id per row; ``scores`` maps a
    dimension to one float per row and ``view_seconds``/``label_seconds``
    hold one float per row, each MISSING (NaN) where the row has no value.
    Derived on construction: ``subject_index``/``task_index``, the sorted
    distinct ids, and ``subject_code``/``task_code``, each row's position
    among them.  ``rows`` is a record view (ResponseRow per row), built on
    first read; the library itself reads only the columns.
    """

    subject_ids: list
    task_ids: list
    scores: dict
    view_seconds: np.ndarray
    label_seconds: np.ndarray
    subject_index: list = field(init=False, repr=False)
    task_index: list = field(init=False, repr=False)
    subject_code: np.ndarray = field(init=False, repr=False)
    task_code: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.subject_ids)
        self.scores = {dim: np.asarray(col, dtype=float) for dim, col in self.scores.items()}
        self.view_seconds = np.asarray(self.view_seconds, dtype=float)
        self.label_seconds = np.asarray(self.label_seconds, dtype=float)
        columns = [self.task_ids, self.view_seconds, self.label_seconds, *self.scores.values()]
        if any(len(col) != n for col in columns):
            raise ValueError("response table columns differ in length")
        self.subject_index, self.subject_code = _codes(self.subject_ids)
        self.task_index, self.task_code = _codes(self.task_ids)

    @classmethod
    def from_rows(cls, rows):
        """Pack ResponseRow records into columns.  A dimension missing from a
        row's ``scores`` and a timing of None become MISSING; a NaN rating or
        timing raises ValueError naming the row (0-based)."""
        rows = list(rows)
        dims = list(dict.fromkeys(d for r in rows for d in r.scores))

        def column(name, values):
            nan = next((i for i, v in enumerate(values) if v is not None and v != v), None)
            if nan is not None:
                raise ValueError(f"row {nan}: NaN {name}")
            return [MISSING if v is None else v for v in values]

        return cls(
            subject_ids=[r.subject_id for r in rows],
            task_ids=[r.task_id for r in rows],
            scores={d: column(d, [r.scores.get(d) for r in rows]) for d in dims},
            view_seconds=column("view_seconds", [r.view_seconds for r in rows]),
            label_seconds=column("label_seconds", [r.label_seconds for r in rows]),
        )

    def __len__(self):
        return len(self.subject_ids)

    def ratings(self, dimension):
        """The `dimension` column, MISSING where a row has no rating (all
        MISSING for a dimension the table does not carry)."""
        col = self.scores.get(dimension)
        return np.full(len(self), MISSING) if col is None else col

    def rated(self, dimension):
        """Mask of the rows that carry a rating for `dimension`."""
        return ~np.isnan(self.ratings(dimension))

    def subjects(self):
        return list(self.subject_index)

    @functools.cached_property
    def rows(self):
        """The table as ResponseRow records in file order (read-only)."""
        dims = list(self.scores)
        cells = zip(*(self.scores[d].tolist() for d in dims)) if dims else [()] * len(self)
        view, label = (
            [None if v != v else v for v in col.tolist()]
            for col in (self.view_seconds, self.label_seconds)
        )
        return [
            ResponseRow(s, t, {d: v for d, v in zip(dims, vals) if v == v}, vs, ls)
            for s, t, vals, vs, ls in zip(self.subject_ids, self.task_ids, cells, view, label)
        ]


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
    """Agreement indicators for one task over its ordered rater list: the
    record form that AgreementMultigraph.from_tasks packs and
    AgreementMultigraph.tasks gives back.

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
    pos = dict(zip(unique, range(len(unique))))
    return unique, np.fromiter(map(pos.get, ids), np.intp, len(ids))


def _commented(ids):
    """The range of the sorted `ids` that begin with '#', the mark of a
    comment line in every text format (so such an id would not read back)."""
    return bisect_left(ids, "#"), bisect_left(ids, "$")


def _size_blocks(offsets):
    """Per rater count r, ascending, over the tasks of a task-major layout
    (task k at slots offsets[k]:offsets[k+1]): the positions of the tasks
    with r raters and their slots as a (G, r) array."""
    sizes = np.diff(offsets)
    for r in np.unique(sizes).tolist():
        members = np.flatnonzero(sizes == r)
        yield members, offsets[members, None] + np.arange(r)


@functools.lru_cache(maxsize=None)
def _offdiag(r):
    """Boolean mask of the ordered pairs (i, j), i != j, of r raters
    (read-only: every caller shares it)."""
    mask = ~np.eye(r, dtype=bool)
    mask.flags.writeable = False
    return mask


def _segments(lengths, order):
    """Positions, in a layout of consecutive segments of `lengths`, of the
    segments listed in `order`, concatenated in that order."""
    picked = lengths[order]
    shift = (np.cumsum(lengths) - lengths)[order] - (np.cumsum(picked) - picked)
    return np.repeat(shift, picked) + np.arange(picked.sum())


class AgreementMultigraph:
    """Task graphs over one global subject list, checked and packed once.

    Built from packed fields: the task ids, in any order; each task's
    rater count; the rater ids, task-major; and the 0/1 indicators as
    uint8, task-major and row-major over the ordered rater pairs (i, j),
    i != j (the order graph files store them in).  Sorts the tasks by id,
    derives ``subjects`` and lays every (task, rater) slot out task-major,
    as ``offsets`` per task, ``flat_sidx`` (global rater index per slot),
    ``groups`` (a SizeGroup per rater count, ascending) and ``degree``
    (tasks per subject); ``blocks`` adds the groups' float forms on first
    use.  Raises ValueError naming the task on an empty or duplicate task
    id, an empty or repeated subject id, and a task or subject id that
    begins with '#'.

    ``from_tasks`` packs TaskGraph records and ``tasks`` gives them back;
    the library itself reads only the packed fields.
    """

    def __init__(self, task_ids, sizes, raters, indicators):
        ids = list(task_ids)
        sizes = np.asarray(sizes, dtype=np.intp)
        raters = list(raters)
        flags = np.asarray(indicators, dtype=np.uint8)
        pairs = sizes * (sizes - 1)
        if len(sizes) != len(ids) or sizes.sum() != len(raters) or pairs.sum() != len(flags):
            raise ValueError("task ids, rater counts, raters and indicators differ in length")
        if any(map(gt, ids, ids[1:])):
            order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
            ids = list(map(ids.__getitem__, order.tolist()))
            raters = list(map(raters.__getitem__, _segments(sizes, order).tolist()))
            flags = flags[_segments(pairs, order)]
            sizes, pairs = sizes[order], pairs[order]
        if ids and not ids[0]:
            raise ValueError(f"empty task id (raters {','.join(raters[: sizes[0]])})")
        for a, b in zip(ids, ids[1:]):
            if a == b:
                raise ValueError(f"duplicate task id {a!r}")
        self.task_ids = ids
        self.subjects, self.flat_sidx = _codes(raters)
        empty = 0 if self.subjects[:1] == [""] else -1  # "" sorts first
        self.offsets = np.append(0, np.cumsum(sizes))
        self.degree = np.bincount(self.flat_sidx, minlength=len(self.subjects))
        starts = np.cumsum(pairs) - pairs  # each task's first indicator
        self.groups = []
        for members, dest in _size_blocks(self.offsets):
            r = dest.shape[1]
            sidx = self.flat_sidx[dest]
            ranked = np.sort(sidx, axis=1)
            for bad, what in (
                ((sidx == empty).any(axis=1), "has an empty subject id"),
                ((ranked[:, 1:] == ranked[:, :-1]).any(axis=1), "lists a subject more than once"),
            ):
                if bad.any():
                    raise ValueError(f"task {ids[members[bad.argmax()]]!r} {what}")
            edges = np.zeros((len(members), r, r), dtype=np.uint8)
            edges[:, _offdiag(r)] = flags[starts[members, None] + np.arange(r * (r - 1))]
            self.groups.append(SizeGroup(members, edges, sidx, dest))
        lo, hi = _commented(ids)
        if lo < hi:
            raise ValueError(f"task {ids[lo]!r} begins with '#', which marks a comment line")
        lo, hi = _commented(self.subjects)
        if lo < hi:
            slot = np.flatnonzero((self.flat_sidx >= lo) & (self.flat_sidx < hi))[0]
            k = int(np.searchsorted(self.offsets, slot, side="right")) - 1
            raise ValueError(f"task {ids[k]!r} has a subject id that begins with '#'")

    @classmethod
    def from_tasks(cls, tasks):
        """Pack TaskGraph records, in any order.  Besides what the
        constructor rejects, raises ValueError naming the task on edges not
        of shape (r, r), an indicator other than 0 or 1 (of any dtype) and
        a nonzero diagonal."""
        tasks = sorted(tasks, key=attrgetter("task_id"))
        flags = []
        for t in tasks:
            r = len(t.subjects)
            edges = np.asarray(t.edges)
            if edges.shape != (r, r):
                raise ValueError(f"task {t.task_id!r} has edges of shape {edges.shape}, expected ({r}, {r})")
            if ((edges != 0) & (edges != 1)).any():
                raise ValueError(f"task {t.task_id!r} has an indicator other than 0 or 1")
            if np.diagonal(edges).any():
                raise ValueError(f"task {t.task_id!r} has a nonzero diagonal")
            flags.append(edges[_offdiag(r)])
        return cls(
            [t.task_id for t in tasks],
            [len(t.subjects) for t in tasks],
            [s for t in tasks for s in t.subjects],
            np.concatenate(flags) if flags else [],
        )

    @functools.cached_property
    def tasks(self):
        """The graph as TaskGraph records in task order, built on first read
        (read-only: each record's edges view the packed indicators)."""
        names = list(map(self.subjects.__getitem__, self.flat_sidx.tolist()))
        bounds = self.offsets.tolist()
        edges = [None] * self.n
        for g in self.groups:
            for k, e in zip(g.tasks.tolist(), g.edges):
                e.flags.writeable = False
                edges[k] = e
        return tuple(
            TaskGraph(t, names[a:b], e) for t, a, b, e in zip(self.task_ids, bounds, bounds[1:], edges)
        )

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
        return len(self.task_ids)


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
        On a missing required column, an empty id, an id holding a tab,
        comma or newline or beginning with '#' (which marks a comment line
        in the text formats), a duplicated (subject, task) pair, an
        unparseable number, a rating outside its scale, or a negative or
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
        # Blank lines are skipped and not counted: record j is row j + 2, as
        # the header is row 1.
        records = list(filter(None, reader))

    n, width = len(records), len(header)
    if records and min(map(len, records)) < width:
        for rec in records:  # a short row's missing fields read as empty
            rec += [""] * (width - len(rec))

    def field(name):
        """Column `name` as one raw field per record ("" when absent)."""
        i = index.get(col(name))
        return [""] * n if i is None else list(map(itemgetter(i), records))

    names = list(DIMENSIONS) + ["view_seconds", "label_seconds"]
    raws = [field(name) for name in names]
    parsed = [_parse_floats(raw) for raw in raws]
    sids, tids = (list(map(str.strip, field(name))) for name in ("subject_id", "task_id"))
    *ratings, view, label = (values for _, values, _ in parsed)
    table = ResponseTable(sids, tids, dict(zip(DIMENSIONS, ratings)), view, label)

    problems = []  # (record, column order, message); one per record and column
    empty = ~(_flags(sids) & _flags(tids))
    reserved = np.zeros(n, dtype=bool)
    joined = "".join(sids) + "".join(tids)
    if any(c in joined for c in "\t,\n"):
        reserved = np.fromiter((any(c in s + t for c in "\t,\n") for s, t in zip(sids, tids)), bool, n)
    reserved &= ~empty
    commented = np.zeros(n, dtype=bool)
    for index, code in ((table.subject_index, table.subject_code), (table.task_index, table.task_code)):
        lo, hi = _commented(index)
        if lo < hi:
            commented |= (lo <= code) & (code < hi)
    commented &= ~(empty | reserved)
    for mask, message in (
        (empty, "empty subject_id or task_id"),
        (reserved, "subject/task id contains a reserved character"),
        (commented, "subject/task id begins with '#', which marks a comment line"),
    ):
        problems += [(j, 0, f"row {j + 2}: {message}") for j in np.flatnonzero(mask).tolist()]
    live = np.flatnonzero(~(empty | reserved | commented))
    # Each live row's (subject, task) pair, and the first live row with it.
    pair = table.subject_code[live] * len(table.task_index) + table.task_code[live]
    _, first, inverse = np.unique(pair, return_index=True, return_inverse=True)
    first = live[first][inverse]
    for j, f in zip(live[first != live].tolist(), first[first != live].tolist()):
        key = (sids[j], tids[j])
        problems.append((j, 0, f"row {j + 2}: duplicate (subject, task) pair {key}, first seen at row {f + 2}"))
    ok = np.zeros(n, dtype=bool)  # rows whose values are checked
    ok[live[first == live]] = True

    for order, (name, raw, (present, values, bad)) in enumerate(zip(names, raws, parsed), start=1):
        checked = ok & present & ~bad
        checks = [(ok & bad, lambda j: f"unparseable {name} value {raw[j].strip()!r}")]
        if name in DIMENSION_SCALES:
            lo, hi = DIMENSION_SCALES[name]
            outside = checked & ~((lo <= values) & (values <= hi))
            checks.append((outside, lambda j: f"{name} {float(values[j])} outside [{lo:g}, {hi:g}]"))
        else:
            finite = np.isfinite(values)
            checks.append((checked & ~finite, lambda j: f"non-finite {name} value {raw[j].strip()!r}"))
            checks.append((checked & finite & (values < 0), lambda j: f"negative {name}"))
        for mask, message in checks:
            problems += [(j, order, f"row {j + 2}: {message(j)}") for j in np.flatnonzero(mask).tolist()]

    if problems:
        problems.sort(key=itemgetter(0, 1))
        shown = "; ".join(p[2] for p in problems[:20])
        more = f" (+{len(problems) - 20} more)" if len(problems) > 20 else ""
        raise ValueError(f"{path}: {shown}{more}")
    return table


def _flags(strings):
    """Whether each string is non-empty."""
    return np.fromiter(map(bool, strings), bool, len(strings))


def _parse_floats(raw):
    """Parse raw fields as float() does after str.strip(): (mask of the
    fields not blank, values with MISSING where a field is blank or does
    not parse, mask of the fields that do not parse)."""
    n = len(raw)
    if not any(raw):  # an empty column
        return np.zeros(n, dtype=bool), np.full(n, MISSING), np.zeros(n, dtype=bool)
    try:  # float() ignores the surrounding whitespace it accepts
        return np.ones(n, dtype=bool), np.fromiter(map(float, raw), float, n), np.zeros(n, dtype=bool)
    except ValueError:
        pass
    raw = list(map(str.strip, raw))
    present = _flags(raw)
    values = np.full(n, MISSING)
    bad = np.zeros(n, dtype=bool)
    filled = list(compress(raw, present))
    try:
        values[present] = np.fromiter(map(float, filled), float, len(filled))
    except ValueError:
        for j, s in zip(np.flatnonzero(present).tolist(), filled):
            try:
                values[j] = float(s)
            except ValueError:
                bad[j] = True
    return present, values, bad


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
    """TaskLayout from one stable lexsort of the rated rows by (task, rater)
    code, both re-coded to the ids that carry the dimension."""
    rated = table.rated(dimension)
    used_tasks, tcode = np.unique(table.task_code[rated], return_inverse=True)
    used_subjects, scode = np.unique(table.subject_code[rated], return_inverse=True)
    ratings = table.ratings(dimension)[rated]
    counts = np.bincount(tcode, minlength=len(used_tasks))
    kept = counts >= min_raters
    order = np.lexsort((scode, tcode))
    order = order[kept[tcode[order]]]
    kept_ids = [table.task_index[t] for t in used_tasks[kept].tolist()]
    offsets = np.append(0, np.cumsum(counts[kept]))
    subjects = [table.subject_index[s] for s in used_subjects.tolist()]
    return TaskLayout(kept_ids, offsets, subjects, scode[order], ratings[order], len(used_tasks))


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

    # Each rater-count group's indicators, gathered from the table straight
    # into the flat task-major layout over ordered pairs (i, j), i != j.
    sizes = np.diff(layout.offsets)
    pairs = sizes * (sizes - 1)
    starts = np.cumsum(pairs) - pairs
    flags = np.empty(pairs.sum(), dtype=np.uint8)
    for members, slots in _size_blocks(layout.offsets):
        i, j = np.nonzero(_offdiag(slots.shape[1]))
        g = at[slots]
        flags[starts[members, None] + np.arange(len(i))] = agrees[g[:, i], g[:, j]]
    raters = list(map(layout.subjects.__getitem__, layout.scode.tolist()))
    return AgreementMultigraph(layout.task_ids, sizes, raters, flags)


def variance_ratio(table, dimension):
    """Within-task variance share of one dimension's ratings.

    Returns the mean (over tasks with at least two ratings) of the
    within-task population variance, divided by the population variance of
    the pooled ratings.  Values well below 1 indicate that raters disagree
    less on the same stimulus than across stimuli.
    """
    layout = _task_layout(table, dimension, 2)
    if not layout.n_tasks:
        raise ValueError(f"no rows carry a rating for dimension {dimension!r}")
    if not layout.task_ids:
        raise ValueError("need at least one task with two or more ratings")
    within = np.empty(len(layout.task_ids))
    for members, slots in _size_blocks(layout.offsets):
        within[members] = np.var(layout.ratings[slots], axis=1)
    pooled = float(np.var(table.ratings(dimension)[table.rated(dimension)]))
    if pooled == 0.0:
        raise ValueError("all ratings identical: cross-task variance is zero")
    return float(np.mean(within)) / pooled
