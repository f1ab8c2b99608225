"""Loading of rating tables and construction of per-task agreement multigraphs.

A rating table is columnar; it holds each id column once, as the sorted
distinct ids and each row's position among them (its codes).
``load_responses`` reads each CSV column as its distinct raw fields and
each record's position among them, so every distinct field is stripped,
parsed and checked once; it returns a ResponseTable of the id codes and
float arrays (NaN marks a missing value).  A plain file (no quote, LF or
CRLF line ends, every record as wide as the header) is read by one numpy
scan of its bytes for commas and LFs, its fields deduplicated as bytes;
``csv.reader`` reads any other file into the same form.  Every builder
passes the codes it holds, and every reader works on the columns.

Two raters agree on a task when their ratings are close in *percentile*
terms rather than in absolute value: the rule adapts to non-uniform rating
distributions.  ``build_multigraph`` holds the one percentile rule: over
the pool of a dimension's ratings on the kept tasks, binned to one
decimal, P(v) is the fraction at or below v and v+ the next observed
value (P(v+) = 1 for the top one), and two ratings a, b agree iff
0.5 |P(a) - P(b)| + 0.5 |P(a+) - P(b+)| <= delta.  Every ordered rater
pair within a task receives that binary indicator.

A multigraph has one packed form: ``AgreementMultigraph`` takes the task
ids, each task's rater count, the rater ids and the pair indicators as flat
task-major arrays, checks them and stacks each rater-count group into one
indicator block.  ``build_multigraph`` gathers the indicators straight into
that form.  ``ResponseTable.rows`` and ``AgreementMultigraph.tasks`` give
records back as read-only output views, which the library never reads.
"""

import csv
import functools
import io
import math
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass
from itertools import compress
from operator import ge, gt, itemgetter

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
    """One rating record, as ``ResponseTable.rows`` gives it back."""

    subject_id: str
    task_id: str
    scores: dict  # dimension name -> float rating
    view_seconds: float | None = None
    label_seconds: float | None = None


# Marks a missing rating or timing in a ResponseTable column.  The loader
# rejects a literal nan, so in a column NaN only ever means "no value".
MISSING = math.nan


@dataclass(eq=False)
class ResponseTable:
    """Raw per-(subject, task) ordinal ratings, at most one row per pair,
    stored as columns in file order.

    Each id column is held once, coded: ``subject_index``/``task_index``
    are the sorted distinct ids and ``subject_code``/``task_code`` each
    row's position among them (``_codes`` codes a list of per-row ids;
    ``_check_ids`` checks the four).  ``scores`` maps a dimension of
    DIMENSIONS to one float per row and ``view_seconds``/``label_seconds``
    hold one float per row, each MISSING (NaN) where the row has no value.
    ``rows`` is a read-only record view (ResponseRow per row), built on
    first read; the library itself reads only the columns.
    """

    subject_index: list
    subject_code: np.ndarray
    task_index: list
    task_code: np.ndarray
    scores: dict
    view_seconds: np.ndarray
    label_seconds: np.ndarray

    def __post_init__(self):
        unknown = [dim for dim in self.scores if dim not in DIMENSION_SCALES]
        if unknown:
            raise ValueError(f"unknown dimension {unknown[0]!r} (known: {', '.join(DIMENSIONS)})")
        self.scores = {dim: np.asarray(col, dtype=float) for dim, col in self.scores.items()}
        self.view_seconds = np.asarray(self.view_seconds, dtype=float)
        self.label_seconds = np.asarray(self.label_seconds, dtype=float)
        _check_ids(self, "response table", [self.view_seconds, self.label_seconds, *self.scores.values()])

    def __len__(self):
        return len(self.subject_code)

    def ratings(self, dimension):
        """The `dimension` column, MISSING where a row has no rating (all
        MISSING for a dimension the table does not carry)."""
        col = self.scores.get(dimension)
        return np.full(len(self), MISSING) if col is None else col

    def rated(self, dimension):
        """Mask of the rows that carry a rating for `dimension`."""
        return ~np.isnan(self.ratings(dimension))

    @functools.cached_property
    def rows(self):
        """The table as ResponseRow records in file order (read-only).  An
        output view only, kept because glbabench/tracer.py counts rows
        through it."""
        dims = list(self.scores)
        cells = zip(*(self.scores[d].tolist() for d in dims)) if dims else [()] * len(self)
        view, label = (
            [None if v != v else v for v in col.tolist()]
            for col in (self.view_seconds, self.label_seconds)
        )
        sids, tids = _ids_at(self.subject_index, self.subject_code), _ids_at(self.task_index, self.task_code)
        return [
            ResponseRow(s, t, {d: v for d, v in zip(dims, vals) if v == v}, vs, ls)
            for s, t, vals, vs, ls in zip(sids, tids, cells, view, label)
        ]


def _check_ids(table, what, columns):
    """Check the coded ids of `table` (a ResponseTable or CategoricalTable),
    keeping each index as a list and each code column as intp: each index
    sorted and distinct, each of its ids one the ratings loader reads back
    as it is (see `_id_status`) and used, and one integer code in range per
    row of the data `columns`.  Raises ValueError naming the table (`what`)
    and the first fault."""
    n = len(table.subject_code)
    if any(len(col) != n for col in [table.task_code, *columns]):
        raise ValueError(f"{what} columns differ in length")
    for name in ("subject", "task"):
        index = list(getattr(table, f"{name}_index"))
        code = np.asarray(getattr(table, f"{name}_code"))
        for a, b in compress(zip(index, index[1:]), map(ge, index, index[1:])):
            fault = f"repeats {a!r}" if a == b else f"is not sorted: {a!r} before {b!r}"
            raise ValueError(f"{what}: {name} index {fault}")
        status = _id_status(index)
        for i in np.flatnonzero(status < len(_ID_PROBLEMS))[:1].tolist():
            if status[i] == _SPACED:
                raise ValueError(f"{what}: {name} id {index[i]!r} has surrounding whitespace")
            raise ValueError(f"{what}: {_ID_PROBLEMS[status[i]]}: {index[i]!r}")
        if n and code.dtype.kind not in "iu":
            raise ValueError(f"{what}: {name} codes are not integers")
        code = code.astype(np.intp, copy=False)
        for bad in code[(code < 0) | (code >= len(index))][:1].tolist():
            raise ValueError(f"{what}: {name} code {bad} outside 0..{len(index) - 1}")
        unused = np.bincount(code, minlength=len(index)) == 0
        if unused.any():
            raise ValueError(f"{what}: {name} id {index[unused.argmax()]!r} is used by no row")
        setattr(table, f"{name}_index", index)
        setattr(table, f"{name}_code", code)


@dataclass
class TaskGraph:
    """Agreement indicators for one task over its ordered rater list, as
    AgreementMultigraph.tasks gives them back.

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


def _ids_at(index, code):
    """The ids of coded rows: `index` at each code, as references to its
    strings."""
    return np.array(index, dtype=object)[code].tolist()


def _recoded(index, code):
    """The distinct ids among coded rows (sorted, as `index` is) and each
    row's position among them."""
    used, code = np.unique(code, return_inverse=True)
    return list(map(index.__getitem__, used.tolist())), code


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
    rater count; the rater ids, task-major; and the 0/1 indicators (of
    any dtype, stored as uint8), task-major and row-major over the ordered
    rater pairs (i, j), i != j (the order graph files store them in).
    Sorts the tasks by id, derives ``subjects`` and lays every (task,
    rater) slot out task-major, as ``offsets`` per task, ``flat_sidx``
    (global rater index per slot), ``groups`` (a SizeGroup per rater
    count, ascending) and ``degree`` (tasks per subject); ``blocks`` adds
    the groups' float forms on first use.  Raises ValueError naming the
    task on an indicator other than 0 or 1 (the first such task in the
    order given), an empty or duplicate task id, an empty or repeated
    subject id, and a task or subject id that holds a tab, comma, CR or LF,
    begins with '#' or has surrounding whitespace.

    ``tasks`` gives the graph back as TaskGraph records; the library itself
    reads only the packed fields.
    """

    def __init__(self, task_ids, sizes, raters, indicators):
        ids = list(task_ids)
        sizes = np.asarray(sizes, dtype=np.intp)
        raters = list(raters)
        flags = np.asarray(indicators)
        pairs = sizes * (sizes - 1)
        if len(sizes) != len(ids) or sizes.sum() != len(raters) or pairs.sum() != len(flags):
            raise ValueError("task ids, rater counts, raters and indicators differ in length")
        bad = (flags != 0) & (flags != 1)
        if bad.any():
            k = int(np.searchsorted(np.cumsum(pairs), bad.argmax(), side="right"))
            raise ValueError(f"task {ids[k]!r} has an indicator other than 0 or 1")
        flags = flags.astype(np.uint8, copy=False)
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
        # Ids the text formats would not read back, by their _id_status
        # (empty ones are rejected above).
        status = _id_status(ids)
        for k in np.flatnonzero(status < len(_ID_PROBLEMS))[:1].tolist():
            raise ValueError(f"task {ids[k]!r} {_ID_FAULTS[status[k]]}")
        status = _id_status(self.subjects)[self.flat_sidx]  # per slot
        for slot in np.flatnonzero(status < len(_ID_PROBLEMS))[:1].tolist():
            k = int(np.searchsorted(self.offsets, slot, side="right")) - 1
            raise ValueError(f"task {ids[k]!r} has a subject id that {_ID_FAULTS[status[slot]]}")

    @functools.cached_property
    def tasks(self):
        """The graph as TaskGraph records in task order, built on first read
        (read-only: each record's edges view the packed indicators).  An
        output view only, kept because glbabench/tracer.py counts pairs
        through it."""
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


# Characters an id may not hold: the text formats separate fields with tabs
# and commas and end lines at CR and LF.
_RESERVED = "\t,\r\n"

# A record's id problems, each hiding the ones after it: an empty id, an id
# holding a reserved character, an id that begins with '#', an id with
# surrounding whitespace (the ratings loader and the id-list reader strip
# every id, so no file could name one, and the loader never meets one).
_ID_PROBLEMS = (
    "empty subject_id or task_id",
    "subject/task id contains a reserved character",
    "subject/task id begins with '#', which marks a comment line",
    "subject/task id has surrounding whitespace",
)
# The same problems as phrases that follow the id they name.
_ID_FAULTS = ("is empty", "holds a tab, comma, CR or LF", "begins with '#'", "has surrounding whitespace")
_SPACED = 3


def load_responses(path):
    """Read a delimited rating file into a validated ResponseTable.

    Parameters
    ----------
    path : str
        Comma-separated UTF-8 file with a header row, read as csv.reader
        reads it (a plain file is scanned as bytes instead, with the same
        result).  Expected columns are subject_id, task_id, the four
        dimension columns, and optionally view_seconds / label_seconds.

    Each column is read as its distinct raw fields and each record's
    position among them (see `_read_fields`).  Every distinct field is
    stripped, parsed and checked once, the ids are sorted once, and the
    records reach the results through their positions; the table holds
    those codes.

    Raises
    ------
    ValueError
        On bytes that are not UTF-8 or a record csv.reader rejects (a
        field over csv.field_size_limit()), naming the line.  On a missing
        required column, an empty id, an id holding a tab, comma, CR or LF
        or beginning with '#' (which marks a comment line in the text
        formats), a duplicated (subject, task) pair, an unparseable number,
        a rating outside its scale, or a negative or non-finite timing,
        naming the offending rows.
    """
    header, columns = _read_fields(path)
    if header is None:
        raise ValueError(f"{path}: empty file (no header row)")
    # Of duplicated header names the last one wins, as in csv.DictReader.
    index = {name: i for i, name in enumerate(header)}
    required = ["subject_id", "task_id"] + list(DIMENSIONS)
    missing = [c for c in required if c not in index]
    if missing:
        raise ValueError(f"{path}: missing required column(s): {', '.join(missing)}")
    n = len(columns[0][1])

    def field(name):
        """Column `name` as its distinct raw fields and each record's
        position among them (one empty field when absent)."""
        i = index.get(name)
        return ([""], np.zeros(n, dtype=np.intp)) if i is None else columns[i]

    coded = []  # per id column: its sorted distinct stripped ids, each record's code
    for name in ("subject_id", "task_id"):
        distinct, inverse = field(name)
        ids, remap = _codes(list(map(str.strip, distinct)))
        coded += [ids, remap[inverse]]
    sindex, scode, tindex, tcode = coded
    names = list(DIMENSIONS) + ["view_seconds", "label_seconds"]
    raws = [field(name) for name in names]
    parsed = [[a[inverse] for a in _parse_floats(distinct)] for distinct, inverse in raws]

    problems = []  # (record, column order, message); one per record and column
    status = np.minimum(_id_status(sindex)[scode], _id_status(tindex)[tcode])
    for level, message in enumerate(_ID_PROBLEMS):
        problems += [(j, 0, f"row {j + 2}: {message}") for j in np.flatnonzero(status == level).tolist()]
    live = np.flatnonzero(status == len(_ID_PROBLEMS))
    # Each live row's (subject, task) pair, and the first live row with it.
    pair = scode[live] * len(tindex) + tcode[live]
    _, first, inverse = np.unique(pair, return_index=True, return_inverse=True)
    first = live[first][inverse]
    for j, f in zip(live[first != live].tolist(), first[first != live].tolist()):
        key = (sindex[scode[j]], tindex[tcode[j]])
        problems.append((j, 0, f"row {j + 2}: duplicate (subject, task) pair {key}, first seen at row {f + 2}"))
    ok = np.zeros(n, dtype=bool)  # rows whose values are checked
    ok[live[first == live]] = True

    for order, (name, (distinct, inverse), (present, values, bad)) in enumerate(zip(names, raws, parsed), start=1):
        checked = ok & present & ~bad
        checks = [(ok & bad, lambda j: f"unparseable {name} value {distinct[inverse[j]].strip()!r}")]
        if name in DIMENSION_SCALES:
            lo, hi = DIMENSION_SCALES[name]
            outside = checked & ~((lo <= values) & (values <= hi))
            checks.append((outside, lambda j: f"{name} {float(values[j])} outside [{lo:g}, {hi:g}]"))
        else:
            finite = np.isfinite(values)
            checks.append((checked & ~finite, lambda j: f"non-finite {name} value {distinct[inverse[j]].strip()!r}"))
            checks.append((checked & finite & (values < 0), lambda j: f"negative {name}"))
        for mask, message in checks:
            problems += [(j, order, f"row {j + 2}: {message(j)}") for j in np.flatnonzero(mask).tolist()]

    if problems:
        problems.sort(key=itemgetter(0, 1))
        shown = "; ".join(p[2] for p in problems[:20])
        more = f" (+{len(problems) - 20} more)" if len(problems) > 20 else ""
        raise ValueError(f"{path}: {shown}{more}")
    *ratings, view, label = (values for _, values, _ in parsed)
    return ResponseTable(sindex, scode, tindex, tcode, dict(zip(DIMENSIONS, ratings)), view, label)


def _id_status(ids):
    """Per id of the sorted distinct `ids`, the position in _ID_PROBLEMS of
    the first problem it has, or len(_ID_PROBLEMS) for none."""
    status = np.full(len(ids), len(_ID_PROBLEMS), dtype=np.int8)
    joined = "".join(ids)
    # str.split() splits at the characters str.strip removes, so ids that
    # hold none of them need no pass of their own.
    if joined.split() != [joined]:
        status[np.fromiter((i != i.strip() for i in ids), bool, len(ids))] = _SPACED
    status[bisect_left(ids, "#") : bisect_left(ids, "$")] = 2  # the ids that begin with '#'
    if any(c in joined for c in _RESERVED):
        status[np.fromiter((any(c in i for c in _RESERVED) for i in ids), bool, len(ids))] = 1
    if ids and not ids[0]:  # "" sorts first
        status[0] = 0
    return status


def _id_faults(ids):
    """The ids among `ids` (in any order) that have a problem, each mapped to
    its `_ID_FAULTS` phrase.  Sorts and checks the ids only when their joined
    text holds whitespace, a reserved character or a '#', so clean ids cost
    one join."""
    joined = "".join(ids)
    if joined.split() == [joined] and not any(c in joined for c in _RESERVED + "#"):
        return {}
    distinct = sorted(set(ids))
    status = _id_status(distinct).tolist()
    return {i: _ID_FAULTS[s] for i, s in zip(distinct, status) if s < len(_ID_PROBLEMS)}


def _read_fields(path):
    """The header and, per header column, its distinct raw fields and each
    record's position among them (an intp array), as csv.reader reads the
    file at `path` (header None and no columns for an empty file).  Blank
    lines are skipped, so record j is row j + 2, as the header is row 1; a
    short record's missing fields read as "" and extra fields are dropped.
    Raises ValueError naming the line on bytes that are not UTF-8 and on a
    record csv.reader rejects."""
    with open(path, "rb") as fh:
        data = fh.read()
    text = _decode(path, data)
    return _scan_fields(text, data) or _csv_fields(path, text)


def _read_text(path):
    """The file at `path` decoded as UTF-8, line breaks as stored (see
    `_decode`).  Every reader of glba's text files but the ratings loader
    reads through it."""
    with open(path, "rb") as fh:
        return _decode(path, fh.read())


def _decode(path, data):
    """`data`, the bytes of the file at `path`, decoded as UTF-8.  Raises
    ValueError naming the path, the line and the byte on bytes that are
    not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(
            f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from None


# Line breaks of str.splitlines that csv.reader reads as field text, besides
# a lone CR: VT, FF, FS, GS, RS, NEL, LS and PS.
_TEXT_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# A field of at most 8 * _KEY_WORDS - 1 bytes is deduplicated as an integer
# key of that many little-endian 8-byte words, zero past its end, with its
# length in the top byte of the last word; a column with a wider field is
# deduplicated as str.
_KEY_WORDS = 3
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _scan_fields(text, data):
    """`_read_fields` for the file `text`, UTF-8 encoded as `data`, by one
    numpy scan of the bytes for commas and LFs, or None unless the file is
    plain: not empty, no quote, no line break but LF and CRLF, every
    non-blank line after the header as wide as the header (checked per
    line, so a short and a long row cannot balance out) and no line longer
    than csv's field limit (measured in bytes, so a multibyte line near the
    limit goes to csv.reader).  csv.reader splits such a file exactly at
    its commas and line breaks."""
    if not text or '"' in text or any(c in text for c in _TEXT_BREAKS):
        return None
    if not data.endswith(b"\n"):
        data += b"\n"  # a lone CR at the end becomes a CRLF; csv.reader ends the line there too
    padded = np.zeros(len(data) + 8 * _KEY_WORDS, dtype=np.uint8)
    buf = padded[: len(data)]
    buf[:] = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))  # each field's delimiter
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    cr = buf[ends - 1] == ord("\r")  # ends[0] - 1 may be -1: the final LF
    lf = buf[ends] == ord("\n")
    if np.count_nonzero(buf == ord("\r")) != np.count_nonzero(cr & lf):
        return None  # a lone CR
    ends -= cr  # a CRLF line's last field ends before the CR
    last = np.flatnonzero(lf)  # each line's last field
    first = np.append(0, last[:-1] + 1)
    if (ends[last] - starts[first]).max() > csv.field_size_limit():
        return None
    line = data[: ends[last[0]]].decode("utf-8")
    header = line.split(",") if line else []
    width = len(header)
    blank = (first == last) & (starts[last] == ends[last])
    if (last - first + 1 != width)[1:][~blank[1:]].any():
        return None
    if not width:
        return header, []
    body = slice(last[0] + 1, None)
    if blank.any():
        body = np.ones(len(starts), dtype=bool)
        body[: last[0] + 1] = False
        body[last[blank]] = False
    starts, ends = starts[body].reshape(-1, width), ends[body].reshape(-1, width)
    return header, [_distinct(padded, starts[:, c], ends[:, c]) for c in range(width)]


def _distinct(padded, starts, ends):
    """One column's distinct fields, given by their byte spans in the file's
    bytes (`padded`: followed by 8 * _KEY_WORDS zeros), and each record's
    position among them."""
    n = len(starts)
    lengths = ends - starts
    top = int(lengths.max(initial=0))
    if top >= 8 * _KEY_WORDS:
        return _codes(_decoded(padded, starts, ends))
    if not top:  # no records, or only empty fields
        return [""] * min(n, 1), np.zeros(n, dtype=np.intp)
    # The 8 bytes at each offset as one integer (unaligned reads).
    words = np.ndarray(len(padded) - 7, "<u8", padded, strides=(1,))
    keys = [words[starts + 8 * k] & _BYTE_MASKS[np.clip(lengths - 8 * k, 0, 8)] for k in range(top // 8 + 1)]
    keys[-1] |= lengths.astype(np.uint64) << np.uint64(56)
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys)
    ranked = [key[order] for key in keys]
    new = np.ones(n, dtype=bool)  # each key's first place in the order
    new[1:] = np.logical_or.reduce([key[1:] != key[:-1] for key in ranked])
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    picked = order[new]
    return _decoded(padded, starts[picked], ends[picked]), inverse


def _decoded(padded, starts, ends):
    """The fields at the byte spans (starts, ends) of `padded`, each followed
    by its delimiter there, as str: gathered with commas between them,
    decoded and split at once."""
    size = ends - starts + 1
    after = np.cumsum(size)  # one past each field's comma in the gathered bytes
    gathered = padded[np.repeat(starts - (after - size), size) + np.arange(after[-1])]
    gathered[after - 1] = ord(",")
    return gathered.tobytes().decode("utf-8").split(",")[:-1]


def _csv_fields(path, text):
    """`_read_fields` through csv.reader, for any text."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        records = list(filter(None, reader))
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if header is None:
        return None, []
    width = len(header)
    if records and min(map(len, records)) < width:
        for rec in records:  # a short row's missing fields read as empty
            rec += [""] * (width - len(rec))
    return header, [_codes(list(map(itemgetter(i), records))) for i in range(width)]


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
    present = np.fromiter(map(bool, raw), bool, n)
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


# One dimension's ratings on its tasks with at least min_raters raters, task
# k's at slots offsets[k]:offsets[k+1]: the kept task ids (sorted) and per
# slot the rater's code into `subjects` (all raters, sorted; ascending within
# a task) and rating.  n_tasks counts every task rated on the dimension.
TaskLayout = namedtuple("TaskLayout", "task_ids offsets subjects scode ratings n_tasks")


def _task_major(tcode, scode, n):
    """np.lexsort((scode, tcode)), a stable sort by (task, subject) code, as
    two stable sorts, which numpy does as linear-time radix sorts on codes
    that fit 16 bits; `n` bounds both codes."""
    width = np.uint16 if n <= 1 << 16 else np.intp
    order = np.argsort(scode.astype(width), kind="stable")
    return order[np.argsort(tcode.astype(width)[order], kind="stable")]


def _task_layout(table, dimension, min_raters):
    """TaskLayout from one stable sort of the rated rows by (task, rater)
    code, both re-coded to the ids that carry the dimension; when every row
    carries it, those are the table's own indexes and codes.  Raises
    ValueError on a `min_raters` below 1."""
    if min_raters < 1:
        raise ValueError(f"min_raters must be at least 1, got {min_raters}")
    rated = table.rated(dimension)
    task_ids, tcode = table.task_index, table.task_code
    subjects, scode = table.subject_index, table.subject_code
    ratings = table.ratings(dimension)
    if not rated.all():
        task_ids, tcode = _recoded(task_ids, tcode[rated])
        subjects, scode = _recoded(subjects, scode[rated])
        ratings = ratings[rated]
    counts = np.bincount(tcode, minlength=len(task_ids))
    kept = counts >= min_raters
    order = _task_major(tcode, scode, max(len(subjects), len(task_ids)))
    order = order[kept[tcode[order]]]
    offsets = np.append(0, np.cumsum(counts[kept]))
    kept_ids = list(compress(task_ids, kept))
    return TaskLayout(kept_ids, offsets, subjects, scode[order], ratings[order], len(task_ids))


def build_multigraph(table, dimension, delta=DEFAULT_DELTA, min_raters=DEFAULT_MIN_RATERS):
    """Build the per-task agreement multigraph for one rating dimension.

    Rows without a rating on `dimension` are ignored.  Tasks rated by
    fewer than `min_raters` (at least 1) subjects are dropped; the
    percentile rule (see the module docstring) reads the pool of the
    remaining ratings.  Task lists and rater lists are sorted by id so the
    result does not depend on input order.

    Each distinct rating is binned once; the percentile rule is evaluated
    once per pair of distinct binned ratings, and the indicators of all
    tasks with the same rater count are gathered from that table in one
    step.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    layout = _task_layout(table, dimension, min_raters)
    if not layout.n_tasks:
        raise ValueError(f"no rows carry a rating for dimension {dimension!r}")
    if not layout.task_ids:
        raise ValueError(
            f"no task has at least {min_raters} raters on {dimension!r}; nothing to build"
        )

    values, inverse = np.unique(layout.ratings, return_inverse=True)
    pool = np.array([round(v, BIN_DECIMALS) for v in values.tolist()])[inverse]
    support = np.unique(pool)
    at = np.searchsorted(support, pool)
    # P(v), the fraction of the pool at or below each observed value v, and
    # P(v+) at the next observed value; the top value's successor is 1.0.
    cdf = np.cumsum(np.bincount(at, minlength=len(support))) / len(at)
    cdf_after = np.append(cdf[1:], 1.0)
    # The rule depends on the two ratings alone, so it is evaluated once per
    # pair of support values (at most 81 values on a 1..9 scale binned to
    # one decimal) and every rater pair looks its indicator up.
    gap = 0.5 * np.abs(cdf[:, None] - cdf) + 0.5 * np.abs(cdf_after[:, None] - cdf_after)
    agrees = (gap <= delta).astype(np.uint8)

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
