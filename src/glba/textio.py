"""On-disk text formats: tab-separated tables with '#'-prefixed header
metadata.  Floats are written with repr (shortest round-trip), so files
are byte-identical across runs and parse back exactly.  Every reader skips
'#' lines, which is why no id may begin with '#'; the report readers keep
'# key value' lines as metadata.

Each report table has one column spec, a dict from column name to parser.
`_write_table` writes every report through it (the parser picks each
column's text form) and `_read_table` reads every report back through it,
parsing whole columns and checking row by row only to name the first
faulty line.

Multigraph files go to and from the graph's packed fields with operations
over the whole file: the writer formats each rater-count group's
indicators in one conversion, and the reader splits all records at once
and checks them record by record only to name the first faulty one."""

import csv
import hashlib
import math
from operator import attrgetter, methodcaller

import numpy as np

from .ingest import DIMENSIONS, AgreementMultigraph, _offdiag
from .model import EPS_POS, FitReport, ModelParams, Priors, gamma_grid
from .scoring import ImageReport, SubjectReport


# ---------------------------------------------------------------------------
# Multigraph
# ---------------------------------------------------------------------------


def write_multigraph(graph, path):
    """Write one record per task, in task order: the task id, its raters
    joined by commas and its indicators as 0/1 characters, row-major over
    the ordered rater pairs (i, j), i != j."""
    names = list(map(graph.subjects.__getitem__, graph.flat_sidx.tolist()))
    bounds = graph.offsets.tolist()
    raters = [",".join(names[a:b]) for a, b in zip(bounds, bounds[1:])]
    flags = np.full(graph.n, "", dtype=object)
    for g in graph.groups:
        r = g.edges.shape[1]
        if r > 1:  # each task's characters as one fixed-width string
            chars = (g.edges[:, _offdiag(r)] + ord("0")).astype(np.uint32, order="C")
            flags[g.tasks] = chars.view(f"U{r * (r - 1)}").ravel().tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# multigraph tasks={graph.n} subjects={graph.m}\n")
        fh.write("task_id\tsubjects\tindicators\n")
        fh.writelines(map("{}\t{}\t{}\n".format, graph.task_ids, raters, flags.tolist()))


def _record_fault(ln):
    """What is wrong with one multigraph record line, or None: too few or
    too many fields, then the indicator count, then an indicator character."""
    parts = ln.split("\t")
    if len(parts) != 3:
        return f"malformed record {ln!r}"
    tid, raters, flags = parts
    r = raters.count(",") + 1
    if len(flags) != r * (r - 1):
        return f"task {tid!r} has {len(flags)} indicators, expected {r * (r - 1)}"
    if flags.strip("01"):
        return f"task {tid!r} has an indicator other than 0 or 1"
    return None


def read_multigraph(path):
    """Parse a multigraph file, with operations over the whole file.

    Rejects, naming the path and the task id (or the record): a record
    without exactly three fields, a wrong indicator count, any indicator
    other than the characters 0 and 1 (the first faulty record in file
    order), and everything the AgreementMultigraph constructor rejects.
    Rejects, naming the path and both counts, a graph whose task or
    subject count differs from the one its '# multigraph' header states.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    header = next((ln.split()[2:] for ln in lines if ln.startswith("# multigraph")), [])
    if not body or body[0].split("\t") != ["task_id", "subjects", "indicators"]:
        raise ValueError(f"{path}: not a multigraph file")
    records = body[1:]
    fields = "\t".join(records).split("\t") if records else []
    ids, raters, flags = fields[0::3], fields[1::3], fields[2::3]
    sizes = np.fromiter(map(methodcaller("count", ","), raters), np.intp, len(raters)) + 1
    lengths = np.fromiter(map(len, flags), np.intp, len(flags))
    joined = "".join(flags)
    tabs = np.fromiter(map(methodcaller("count", "\t"), records), np.intp, len(records))
    if (
        (tabs != 2).any()
        or not np.array_equal(lengths, sizes * (sizes - 1))
        or joined.count("0") + joined.count("1") != len(joined)
    ):
        raise ValueError(f"{path}: {next(filter(None, map(_record_fault, records)))}")
    names = ",".join(raters).split(",") if records else []
    indicators = np.frombuffer(joined.encode("ascii"), dtype=np.uint8) - ord("0")
    try:
        graph = AgreementMultigraph(ids, sizes, names, indicators)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    held = [f"tasks={graph.n}", f"subjects={graph.m}"]
    stated = [field for field in header if field.startswith(("tasks=", "subjects="))]
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
_IMAGE_COLUMNS = dict(  # the fields of ImageReport, in order
    task_id=str, adjusted_score=float, confidence=float, weighted_mean=float, raw_mean=float,
    n_raters=int, weighted_mean_defined=_parse_flag, dimension=str, direction=_parse_direction
)
# Header lines every fit report carries, with their parsers.
_REPORT_HEADER = {"gamma": float, "tau0": float, "s0": float, "iterations": int, "converged": int}


def _write_table(path, columns, rows, head=()):
    """Write the `head` (key, value) pairs as '# key value' lines, the header
    row of the column spec `columns`, then `rows` (tuples in column order)
    through one template: floats by repr, integers and flags (bools too)
    by %d, strings as they are."""
    template = "\t".join(_FORMS[parse][0] for parse in columns.values()) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {key} {value}\n" for key, value in head)
        fh.write("\t".join(columns) + "\n")
        fh.writelines(map(template.__mod__, rows))


def _read_table(path, columns, id_column, extra=None):
    """Parse a table whose header row starts with the column spec `columns`.

    Returns the '# key value' lines, taken anywhere in the file, as {key:
    (line number, value)}; the values `extra` parses from the header
    columns past `columns`; the parsed columns (the `columns` parsers, then
    float for each extra column); and each row's line number.  Skips blank
    lines.  Rejects, naming the path and the line: a missing header row, or
    one that does not start with `columns` or has a column past them that
    `extra` maps to None; and the first row whose field count differs from
    the header's, whose `id_column` is empty or a duplicate, or with a
    value its parser does not accept.
    """
    meta, rows = {}, []
    with open(path, encoding="utf-8") as fh:
        for lineno, ln in enumerate(fh.read().split("\n"), start=1):
            if ln.startswith("#"):
                key, _, value = ln[1:].strip().partition(" ")
                meta[key] = (lineno, value)
            elif ln.strip():
                rows.append((lineno, ln))
    if not rows:
        raise ValueError(f"{path}: empty file, expected a header row")
    (head_no, head), body = rows[0], rows[1:]
    header, names = head.split("\t"), list(columns)
    tail = header[len(names) :]
    extras = [extra(col) for col in tail] if extra else [None] * len(tail)
    if header[: len(names)] != names or None in extras:
        expected = "\t".join(names + (["tau[<gamma>]..."] if extra else []))
        raise ValueError(f"{path}:{head_no}: header is not {expected!r}")
    parsers = list(columns.values()) + [float] * len(tail)
    width, key = len(header), names.index(id_column)
    lines = [ln for _, ln in body]
    cells = "\t".join(lines).split("\t") if lines else []
    ids = cells[key::width]
    tabs = {*map(methodcaller("count", "\t"), lines)}
    if tabs <= {width - 1} and "" not in ids and len(set(ids)) == len(ids):
        try:
            values = [list(map(parse, cells[c::width])) for c, parse in enumerate(parsers)]
            return meta, extras, values, [lineno for lineno, _ in body]
        except ValueError:
            pass  # named below
    seen = set()
    for lineno, ln in body:  # name the first faulty row
        fields = ln.split("\t")
        if len(fields) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(fields)}")
        if not fields[key] or fields[key] in seen:
            raise ValueError(f"{path}:{lineno}: empty or duplicate {id_column} {fields[key]!r}")
        seen.add(fields[key])
        for col, parse, raw in zip(header, parsers, fields):
            try:
                parse(raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {col} {raw!r} is not {_FORMS[parse][1]}") from None


def _report_number(path, lineno, name, raw, parse=float):
    try:
        value = parse(raw)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: unparseable {name} {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: non-finite {name} {raw!r}")
    return value


def write_fit_report(report, path):
    p, priors = report.params, report.priors
    head = [("gamma", float(p.gamma)), ("tau0", float(priors.tau0)), ("s0", float(priors.s0))]
    head += [("iterations", report.iterations), ("converged", int(report.converged))]
    if report.fallback_subjects:
        head.append(("fallback_subjects", ",".join(report.fallback_subjects)))
    rows = zip(p.subjects, p.tau.tolist(), p.alpha.tolist(), p.beta.tolist())
    _write_table(path, _PARAM_COLUMNS, rows, head)


def read_fit_report(path):
    """Parse a fit report.

    Rejects, naming the path and the line: everything `_read_table`
    rejects, a missing header line, a header value that is not a finite
    number, and a tau outside [0, 1] or an alpha or beta that is not finite
    or below EPS_POS.
    """
    meta, _, (subjects, *columns), linenos = _read_table(path, _PARAM_COLUMNS, "subject_id")
    missing = [key for key in _REPORT_HEADER if key not in meta]
    if missing:
        raise ValueError(f"{path}: missing header line(s): {', '.join('# ' + k for k in missing)}")
    head = {
        key: _report_number(path, meta[key][0], key, meta[key][1], parse)
        for key, parse in _REPORT_HEADER.items()
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
    rows = zip(params.subjects, params.tau.tolist(), params.alpha.tolist(), params.beta.tolist())
    _write_table(path, _PARAM_COLUMNS, rows, [("kind", "truth"), ("gamma", float(params.gamma))])


def _tau_column(col):
    """The gamma of a subjects-table column tau[<gamma>], or None."""
    if col.startswith("tau[") and col.endswith("]"):
        try:
            return float(col[4:-1])
        except ValueError:
            pass
    return None


def write_subject_reports(reports, path):
    gammas = sorted(reports[0].tau_by_gamma) if reports else []
    columns = {**_SUBJECT_COLUMNS, **{f"tau[{g!r}]": float for g in gammas}}
    rows = [
        (r.rank, r.subject_id, r.tau_mean, r.alpha, r.beta, r.beta_variance)
        + tuple(map(r.tau_by_gamma.__getitem__, gammas))
        for r in sorted(reports, key=attrgetter("rank"))
    ]
    _write_table(path, columns, rows)


def read_subject_reports(path):
    """Parse a subjects table (see `_read_table` for what it rejects)."""
    _, gammas, columns, _ = _read_table(path, _SUBJECT_COLUMNS, "subject_id", _tau_column)
    return [
        SubjectReport(sid, tau_mean, dict(zip(gammas, taus)), alpha, beta, var, rank)
        for rank, sid, tau_mean, alpha, beta, var, *taus in zip(*columns)
    ]


def write_image_reports(reports, path):
    _write_table(path, _IMAGE_COLUMNS, map(attrgetter(*_IMAGE_COLUMNS), reports))


def read_image_reports(path):
    """Parse an image table (see `_read_table` for what it rejects)."""
    _, _, columns, _ = _read_table(path, _IMAGE_COLUMNS, "task_id")
    return list(map(ImageReport, *columns))


def write_baseline_ranking(ranked, method, path):
    """Ranking rows (subject_id, score) in the subject-table layout with a
    method tag column; rank 1 is the most suspect subject."""
    columns = {"method": str, "rank": int, "subject_id": str, "score": float}
    rows = ((method, pos, sid, float(score)) for pos, (sid, score) in enumerate(ranked, start=1))
    _write_table(path, columns, rows)


def write_pr_result(result, path):
    head = [(f"top_{k}", result.top_k[k]) for k in sorted(result.top_k)]
    columns = {"k": int, "precision": float, "recall": float}
    _write_table(path, columns, zip(result.ks, result.precision, result.recall), head)


def write_overhead_curve(curve, mode, path):
    rows = ((float(th), removed) for th, removed in curve)
    _write_table(path, {"threshold": float, "labels_removed": int}, rows, [("mode", mode)])


# ---------------------------------------------------------------------------
# Response tables (CSV) and id lists
# ---------------------------------------------------------------------------


def write_responses(table, path):
    """Write a ResponseTable as a ratings CSV, rows sorted by (subject, task)
    with ties in table order; a missing value is an empty field."""
    cols = ["subject_id", "task_id"] + list(DIMENSIONS) + ["view_seconds", "label_seconds"]
    order = np.lexsort((table.task_code, table.subject_code)).tolist()
    cells = [[table.subject_ids[i] for i in order], [table.task_ids[i] for i in order]]
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
    with open(path, encoding="utf-8") as fh:
        return [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]


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
    "prior_grad_mode": str,
    "psi_includes_self": _parse_bool,
}
# Keys older config files carry: parsed and checked, then dropped (a fit
# draws no random numbers and runs on one thread).
_IGNORED_CONFIG_KEYS = {"seed": int, "workers": _parse_count}


def read_config_file(path):
    """Parse 'key = value' lines into FitConfig keyword overrides.

    Rejects, naming the path and the line, a line without '=', an unknown
    key and a value that does not parse.
    """
    overrides = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, ln in enumerate(fh, start=1):
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
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: invalid value for {key}: {exc}") from None
            if key in _CONFIG_PARSERS:
                overrides[key] = value
    return overrides


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, command, settings, seed, input_paths):
    """Record what produced a run: command, settings, seed, input digests,
    and library versions.  Deliberately timestamp- and path-free (inputs
    are identified by name and content digest), so identical runs produce
    identical manifests wherever they run."""
    import os

    import scipy

    from . import __version__

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"command = {command}\n")
        fh.write(f"seed = {seed}\n")
        for key in sorted(settings):
            fh.write(f"{key} = {settings[key]}\n")
        for p in input_paths:
            fh.write(f"input {os.path.basename(p)} sha256={file_digest(p)}\n")
        fh.write(f"version glba={__version__} numpy={np.__version__} scipy={scipy.__version__}\n")
