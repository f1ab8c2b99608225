"""On-disk text formats: tab-separated tables with '#'-prefixed header
metadata.  Floats are written with repr (shortest round-trip), so files
are byte-identical across runs and parse back exactly.  Every reader skips
'#' lines, which is why no id may begin with '#'; the table readers keep
'# key value' lines as metadata.

Each table (the multigraph and every report) has one column spec, a dict
from column name to parser.  `_write_table` writes every table through it
from columns, not rows: it formats each column once in the text form its
parser picks (a float column one repr per distinct bit pattern) and joins
the cells into lines.  `_read_table` reads every table back through it,
parsing whole columns and checking row by row only to name the first
faulty line."""

import csv
import hashlib
import math
from itertools import combinations, compress, repeat
from operator import attrgetter

import numpy as np

from .ingest import DIMENSIONS, AgreementMultigraph, _id_faults, _ids_at, _offdiag, _read_text
from .model import EPS_POS, FitConfig, FitReport, ModelParams, Priors, gamma_grid
from .scoring import ImageScores, SubjectReport


def _read_lines(path):
    """The lines of the text file at `path`, broken at LF, CRLF and a lone
    CR as text mode breaks them; bytes that are not UTF-8 raise ValueError
    naming the path and the line."""
    text = _read_text(path)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


# ---------------------------------------------------------------------------
# Multigraph
# ---------------------------------------------------------------------------

_GRAPH_COLUMNS = {"task_id": str, "subjects": str, "indicators": str}


def write_multigraph(graph, path):
    """Write one row per task, in task order: the task id, its raters
    joined by commas and its indicators as 0/1 characters, row-major over
    the ordered rater pairs (i, j), i != j; a '# multigraph' line states
    the task and subject counts."""
    names = list(map(graph.subjects.__getitem__, graph.flat_sidx.tolist()))
    bounds = graph.offsets.tolist()
    raters = [",".join(names[a:b]) for a, b in zip(bounds, bounds[1:])]
    flags = np.full(graph.n, "", dtype=object)
    for g in graph.groups:
        r = g.edges.shape[1]
        if r > 1:  # each task's characters as one fixed-width string
            chars = (g.edges[:, _offdiag(r)] + ord("0")).astype(np.uint32, order="C")
            flags[g.tasks] = chars.view(f"U{r * (r - 1)}").ravel().tolist()
    head = [("multigraph", f"tasks={graph.n} subjects={graph.m}")]
    _write_table(path, _GRAPH_COLUMNS, [graph.task_ids, raters, flags.tolist()], head)


def read_multigraph(path):
    """Parse a multigraph table, with operations over the whole file.

    Rejects, naming the path and the line: everything `_read_table`
    rejects, then (naming the task too) a wrong indicator count or an
    indicator other than the characters 0 and 1, the first such row in
    file order.  Rejects, naming the path and the task, everything the
    AgreementMultigraph constructor rejects; and, naming the path and both
    counts, a graph whose task or subject count differs from the one its
    '# multigraph' line states.
    """
    meta, _, (ids, raters, flags), linenos = _read_table(path, _GRAPH_COLUMNS, "task_id")
    sizes = np.fromiter(map(str.count, raters, repeat(",")), np.intp, len(raters)) + 1
    lengths = np.fromiter(map(len, flags), np.intp, len(flags))
    pairs = sizes * (sizes - 1)
    joined = "".join(flags)
    if not np.array_equal(lengths, pairs) or joined.count("0") + joined.count("1") != len(joined):
        strange = np.fromiter(map(bool, map(str.strip, flags, repeat("01"))), bool, len(flags))
        k = int(np.argmax((lengths != pairs) | strange))
        fault = (
            f"has {lengths[k]} indicators, expected {pairs[k]}"
            if lengths[k] != pairs[k]
            else "has an indicator other than 0 or 1"
        )
        raise ValueError(f"{path}:{linenos[k]}: task {ids[k]!r} {fault}")
    names = ",".join(raters).split(",") if ids else []
    indicators = np.frombuffer(joined.encode("ascii"), dtype=np.uint8) - ord("0")
    try:
        graph = AgreementMultigraph(ids, sizes, names, indicators)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    held = [f"tasks={graph.n}", f"subjects={graph.m}"]
    stated = [f for f in meta.get("multigraph", (0, ""))[1].split() if f.startswith(("tasks=", "subjects="))]
    if not set(stated) <= set(held):
        raise ValueError(f"{path}: header states {' '.join(stated)}, file holds {' '.join(held)}")
    return graph


# ---------------------------------------------------------------------------
# Report tables: one column spec (name -> parser) each, written by
# _write_table and read by _read_table
# ---------------------------------------------------------------------------


def _parse_flag(raw):
    if raw not in ("0", "1"):
        raise ValueError(f"not 0 or 1: {raw!r}")
    return raw == "1"


def _parse_direction(raw):
    if raw not in ("high", "low"):
        raise ValueError(f"not high or low: {raw!r}")
    return raw


# Column parser -> (its text form in _write_table, what _read_table says a
# value it rejects is not).
_FORMS = {
    float: ("%r", "a number"),
    int: ("%d", "an integer"),
    _parse_flag: ("%d", "0 or 1"),
    str: ("%s", None),
    _parse_direction: ("%s", "high or low"),
}

_PARAM_COLUMNS = {"subject_id": str, "tau": float, "alpha": float, "beta": float}
# A subjects table adds one float column tau[<gamma>] per fitted gamma.
_SUBJECT_COLUMNS = dict(
    rank=int, subject_id=str, tau_mean=float, alpha=float, beta=float, beta_variance=float
)
_IMAGE_COLUMNS = dict(  # the fields of ImageScores (and ImageReport), in order
    task_id=str, adjusted_score=float, confidence=float, weighted_mean=float, raw_mean=float,
    n_raters=int, weighted_mean_defined=_parse_flag, dimension=str, direction=_parse_direction
)
# Header lines every fit report carries: their parser, the test a value
# must pass and the range that test names.
_REPORT_HEADER = {
    "gamma": (float, lambda v: 0.0 < v < 0.5, "in (0, 0.5)"),
    "tau0": (float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "s0": (float, lambda v: v > 0.0, "> 0"),
    "iterations": (int, lambda v: v >= 0, ">= 0"),
    "converged": (int, lambda v: v in (0, 1), "0 or 1"),
}


def _column_text(form, column):
    """The cells of one column (a list or a 1-D array) in its `_FORMS` text
    form: floats by repr, integers and flags (bools too) by %d, strings as
    they are.  A float column, and an integer or flag array, is formatted
    once per distinct value (a float per bit pattern, so -0.0 keeps its
    sign)."""
    if form == "%s":
        return column
    if form == "%r":
        distinct, at = np.unique(np.asarray(column, dtype=float).view(np.int64), return_inverse=True)
        text = list(map(repr, distinct.view(float).tolist()))
    elif isinstance(column, np.ndarray):
        distinct, at = np.unique(column, return_inverse=True)
        text = list(map(form.__mod__, distinct.tolist()))
    else:
        return list(map(form.__mod__, column))
    return list(map(text.__getitem__, at.tolist()))


def _write_table(path, columns, values, head=()):
    """Write the `head` (key, value) pairs as '# key value' lines, the header
    row of the column spec `columns`, then one row per entry of `values`,
    the table's columns in spec order, each formatted once as
    `_column_text` says."""
    cells = [_column_text(_FORMS[parse][0], col) for parse, col in zip(columns.values(), values)]
    lines = ["\t".join(columns), *map("\t".join, zip(*cells))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {key} {value}\n" for key, value in head)
        fh.write("\n".join(lines) + "\n")


def _read_table(path, columns, id_column, extra=None):
    """Parse a table whose header row starts with the column spec `columns`.

    Returns the '# key value' lines, taken anywhere in the file, as {key:
    (line number, value)}; the values `extra` parses from the header
    columns past `columns`; the parsed columns (the `columns` parsers, then
    float for each extra column; a str column as read); and each row's line
    number.  Skips blank lines.  Rejects, naming the path and the line: a
    missing header row, or one that does not start with `columns`, has a
    column past them that `extra` maps to None or two that it maps to one
    value; and the first row whose field count differs from the header's,
    whose `id_column` is empty, a duplicate or an id the text formats
    would not read back (see `ingest._id_status`), or with a value its
    parser does not accept.
    """
    lines = _read_lines(path)
    meta, keep = {}, list(map(bool, map(str.strip, lines)))
    for k in [k for k, ln in enumerate(lines) if ln[:1] == "#"]:
        key, _, value = lines[k][1:].strip().partition(" ")
        meta[key] = (k + 1, value)
        keep[k] = False
    linenos, rows = list(compress(range(1, len(lines) + 1), keep)), list(compress(lines, keep))
    if not rows:
        raise ValueError(f"{path}: empty file, expected a header row")
    head_no, header, names = linenos.pop(0), rows.pop(0).split("\t"), list(columns)
    tail = header[len(names) :]
    extras = [extra(col) for col in tail] if extra else [None] * len(tail)
    if header[: len(names)] != names or None in extras:
        expected = "\t".join(names + (["tau[<gamma>]..."] if extra else []))
        raise ValueError(f"{path}:{head_no}: header is not {expected!r}")
    for (a, x), (b, y) in combinations(zip(tail, extras), 2):
        if x == y:
            raise ValueError(f"{path}:{head_no}: header columns {a!r} and {b!r} both stand for {x!r}")
    parsers = list(columns.values()) + [float] * len(tail)
    width, key = len(header), names.index(id_column)
    cells = "\t".join(rows).split("\t") if rows else []
    ids = cells[key::width]
    faults = _id_faults(ids)
    tabs = {*map(str.count, rows, repeat("\t"))}
    if tabs <= {width - 1} and "" not in ids and len(set(ids)) == len(ids) and not faults:
        try:
            values = [cells[c::width] for c in range(width)]
            values = [col if parse is str else list(map(parse, col)) for parse, col in zip(parsers, values)]
            return meta, extras, values, linenos
        except ValueError:
            pass  # named below
    seen = set()
    for lineno, ln in zip(linenos, rows):  # name the first faulty row
        fields = ln.split("\t")
        if len(fields) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(fields)}")
        if not fields[key] or fields[key] in seen:
            raise ValueError(f"{path}:{lineno}: empty or duplicate {id_column} {fields[key]!r}")
        seen.add(fields[key])
        if fields[key] in faults:
            raise ValueError(f"{path}:{lineno}: {id_column} {fields[key]!r} {faults[fields[key]]}")
        for col, parse, raw in zip(header, parsers, fields):
            try:
                parse(raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {col} {raw!r} is not {_FORMS[parse][1]}") from None


def _report_number(path, lineno, name, raw, parse, valid, bounds):
    try:
        value = parse(raw)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: unparseable {name} {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: non-finite {name} {raw!r}")
    if not valid(value):
        raise ValueError(f"{path}:{lineno}: {name} {raw!r} is not {bounds}")
    return value


def write_fit_report(report, path):
    p, priors = report.params, report.priors
    head = [("gamma", float(p.gamma)), ("tau0", float(priors.tau0)), ("s0", float(priors.s0))]
    head += [("iterations", report.iterations), ("converged", int(report.converged))]
    if report.fallback_subjects:
        head.append(("fallback_subjects", ",".join(report.fallback_subjects)))
    _write_table(path, _PARAM_COLUMNS, [p.subjects, p.tau, p.alpha, p.beta], head)


def read_fit_report(path):
    """Parse a fit report.

    Rejects, naming the path and the line: everything `_read_table`
    rejects, a missing header line, a header value that is not a finite
    number or lies outside its `_REPORT_HEADER` range (gamma in (0, 0.5),
    tau0 in [0, 1], s0 > 0, iterations >= 0, converged 0 or 1), and a tau
    outside [0, 1] or an alpha or beta that is not finite or below EPS_POS.
    """
    meta, _, (subjects, *columns), linenos = _read_table(path, _PARAM_COLUMNS, "subject_id")
    missing = [key for key in _REPORT_HEADER if key not in meta]
    if missing:
        raise ValueError(f"{path}: missing header line(s): {', '.join('# ' + k for k in missing)}")
    head = {
        key: _report_number(path, meta[key][0], key, meta[key][1], *check)
        for key, check in _REPORT_HEADER.items()
    }
    tau, alpha, beta = map(np.array, columns)
    valid = np.isfinite(alpha) & np.isfinite(beta) & (tau >= 0.0) & (tau <= 1.0)
    valid &= (alpha >= EPS_POS) & (beta >= EPS_POS)
    if not valid.all():
        i = int(np.argmin(valid))
        raise ValueError(
            f"{path}:{linenos[i]}: tau {tau[i]!r}, alpha {alpha[i]!r}, beta {beta[i]!r}: "
            f"needs tau in [0, 1] and finite alpha and beta >= {EPS_POS}"
        )
    params = ModelParams(subjects=subjects, tau=tau, alpha=alpha, beta=beta, gamma=head["gamma"])
    fallback = meta.get("fallback_subjects", (0, ""))[1]
    return FitReport(
        params=params,
        priors=Priors(tau0=head["tau0"], s0=head["s0"]),
        iterations=head["iterations"],
        converged=bool(head["converged"]),
        loglik_trace=[],
        fallback_subjects=fallback.split(",") if fallback else [],
    )


def write_params_table(params, path):
    values = [params.subjects, params.tau, params.alpha, params.beta]
    _write_table(path, _PARAM_COLUMNS, values, [("kind", "truth"), ("gamma", float(params.gamma))])


def _tau_column(col):
    """The gamma of a subjects-table column tau[<gamma>], or None unless it
    is a finite number in (0, 0.5), as FitConfig requires of a gamma."""
    if col.startswith("tau[") and col.endswith("]"):
        try:
            gamma = float(col[4:-1])
        except ValueError:
            return None
        if 0.0 < gamma < 0.5:  # NaN and the infinities fail the range test
            return gamma
    return None


def write_subject_reports(reports, path):
    gammas = sorted(reports[0].tau_by_gamma) if reports else []
    columns = {**_SUBJECT_COLUMNS, **{f"tau[{g!r}]": float for g in gammas}}
    ranked = sorted(reports, key=attrgetter("rank"))
    values = [list(map(attrgetter(name), ranked)) for name in _SUBJECT_COLUMNS]
    values += [[r.tau_by_gamma[g] for r in ranked] for g in gammas]
    _write_table(path, columns, values)


def read_subject_reports(path):
    """Parse a subjects table (see `_read_table` for what it rejects)."""
    _, gammas, columns, _ = _read_table(path, _SUBJECT_COLUMNS, "subject_id", _tau_column)
    return [
        SubjectReport(sid, tau_mean, dict(zip(gammas, taus)), alpha, beta, var, rank)
        for rank, sid, tau_mean, alpha, beta, var, *taus in zip(*columns)
    ]


def write_image_reports(scores, path):
    """Write ImageScores columns, in their order."""
    _write_table(path, _IMAGE_COLUMNS, attrgetter(*_IMAGE_COLUMNS)(scores))


def read_image_reports(path):
    """Parse an image table into ImageScores (see `_read_table` for what it
    rejects)."""
    _, _, columns, _ = _read_table(path, _IMAGE_COLUMNS, "task_id")
    return ImageScores(*columns)


def write_baseline_ranking(ranked, method, path):
    """Ranking rows (subject_id, score) in the subject-table layout with a
    method tag column; rank 1 is the most suspect subject."""
    columns = {"method": str, "rank": int, "subject_id": str, "score": float}
    values = [[method] * len(ranked), range(1, len(ranked) + 1)]
    _write_table(path, columns, values + [[sid for sid, _ in ranked], [score for _, score in ranked]])


def write_pr_result(result, path):
    head = [(f"top_{k}", result.top_k[k]) for k in sorted(result.top_k)]
    columns = {"k": int, "precision": float, "recall": float}
    _write_table(path, columns, [result.ks, result.precision, result.recall], head)


def write_overhead_curve(curve, mode, path):
    values = [[th for th, _ in curve], [removed for _, removed in curve]]
    _write_table(path, {"threshold": float, "labels_removed": int}, values, [("mode", mode)])


# ---------------------------------------------------------------------------
# Response tables (CSV) and id lists
# ---------------------------------------------------------------------------


def write_responses(table, path):
    """Write a ResponseTable as a ratings CSV, rows sorted by (subject, task)
    with ties in table order; a missing value is an empty field."""
    cols = ["subject_id", "task_id"] + list(DIMENSIONS) + ["view_seconds", "label_seconds"]
    order = np.lexsort((table.task_code, table.subject_code))
    cells = [_ids_at(table.subject_index, table.subject_code[order])]
    cells.append(_ids_at(table.task_index, table.task_code[order]))
    for col in [*map(table.ratings, DIMENSIONS), table.view_seconds, table.label_seconds]:
        # Each distinct value (by bit pattern, so -0.0 keeps its sign) is
        # formatted once.
        distinct, at = np.unique(col[order].view(np.int64), return_inverse=True)
        text = ["" if v != v else repr(v) for v in distinct.view(float).tolist()]
        cells.append(list(map(text.__getitem__, at.tolist())))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        writer.writerows(zip(*cells))


def write_id_list(ids, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(s + "\n" for s in ids)


def read_id_list(path):
    return [ln for ln in map(str.strip, _read_lines(path)) if ln and not ln.startswith("#")]


# ---------------------------------------------------------------------------
# Fit configuration files and run manifests
# ---------------------------------------------------------------------------


def _parse_bool(raw):
    value = raw.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_count(raw):
    value = int(raw)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def parse_gamma_spec(raw):
    """A single rate ('0.37') or a lo:hi:count grid ('0.3:0.48:10')."""
    parts = raw.strip().split(":")
    try:
        if len(parts) == 1:
            return float(parts[0])
        if len(parts) == 3:
            return gamma_grid(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError:
        pass
    raise ValueError(f"must be a rate or lo:hi:count, got {raw!r}")


_CONFIG_PARSERS = {
    "gamma": parse_gamma_spec,
    "update_gamma": _parse_bool,
    "tol": float,
    "max_iter": int,
    "eb_tol": float,
    "eb_max_rounds": int,
}
# Keys older config files carry: parsed and checked, then dropped (a fit
# runs on one thread).
_IGNORED_CONFIG_KEYS = {"workers": _parse_count}


def read_config_file(path):
    """Parse 'key = value' lines into FitConfig keyword overrides.

    Rejects, naming the path and the line, a line without '=', an unknown
    key, a value that does not parse and one that FitConfig rejects.
    """
    overrides = {}
    for lineno, ln in enumerate(_read_lines(path), start=1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {ln!r}")
        key, _, raw = ln.partition("=")
        key = key.strip()
        raw = raw.strip()
        parser = _CONFIG_PARSERS.get(key) or _IGNORED_CONFIG_KEYS.get(key)
        if parser is None:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            value = parser(raw)
            if key in _CONFIG_PARSERS:
                FitConfig(**{key: value})
                overrides[key] = value
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: invalid value for {key}: {exc}") from None
    return overrides


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, command, settings, input_paths, versions=None):
    """Record what produced a run: the command, its settings (name to value,
    written in name order), input digests, and library versions: glba's,
    numpy's and those in `versions` (name to version string; the command
    names the libraries it ran).  Deliberately timestamp- and path-free
    (inputs are identified by name and content digest), so identical runs
    produce identical manifests wherever they run."""
    import os

    from . import __version__

    versions = {"glba": __version__, "numpy": np.__version__, **(versions or {})}

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"command = {command}\n")
        for key in sorted(settings):
            fh.write(f"{key} = {settings[key]}\n")
        for p in input_paths:
            fh.write(f"input {os.path.basename(p)} sha256={file_digest(p)}\n")
        fh.write("version " + " ".join(f"{k}={v}" for k, v in versions.items()) + "\n")
