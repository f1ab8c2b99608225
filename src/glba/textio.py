"""On-disk text formats: tab-separated tables with '#'-prefixed header
metadata.  Floats are written with repr (shortest round-trip), so files
are byte-identical across runs and parse back exactly."""

import csv
import functools
import hashlib
import math

import numpy as np

from .ingest import DIMENSIONS, AgreementMultigraph, TaskGraph
from .model import EPS_POS, FitReport, ModelParams, Priors, gamma_grid
from .scoring import ImageReport, SubjectReport


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _parse_bool(raw):
    value = raw.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# ---------------------------------------------------------------------------
# Multigraph
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _offdiag(r):
    """Boolean mask of the ordered pairs (i, j), i != j, of r raters
    (read-only: every caller shares it)."""
    mask = ~np.eye(r, dtype=bool)
    mask.flags.writeable = False
    return mask


def pair_indicators(task):
    """Indicators flattened row-major over ordered pairs (i, j), i != j."""
    return (task.edges[_offdiag(task.n_raters)] + 48).astype(np.uint8).tobytes().decode("ascii")


def write_multigraph(graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# multigraph tasks={graph.n} subjects={graph.m}\n")
        fh.write("task_id\tsubjects\tindicators\n")
        fh.writelines(
            f"{task.task_id}\t{','.join(task.subjects)}\t{pair_indicators(task)}\n"
            for task in graph.tasks
        )


def read_multigraph(path):
    """Parse a multigraph file.

    Rejects, naming the path and the task id (or the record): a record
    without exactly three fields, a wrong indicator count, any indicator
    other than the characters 0 and 1, and everything the
    AgreementMultigraph constructor rejects.
    """
    tasks = []
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body or body[0].split("\t") != ["task_id", "subjects", "indicators"]:
        raise ValueError(f"{path}: not a multigraph file")
    for ln in body[1:]:
        parts = ln.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}: malformed record {ln!r}")
        tid, subj_field, ind = parts
        subjects = subj_field.split(",")
        r = len(subjects)
        if len(ind) != r * (r - 1):
            raise ValueError(f"{path}: task {tid!r} has {len(ind)} indicators, expected {r * (r - 1)}")
        if ind.strip("01"):
            raise ValueError(f"{path}: task {tid!r} has an indicator other than 0 or 1")
        edges = np.zeros((r, r), dtype=np.uint8)
        edges[_offdiag(r)] = np.frombuffer(ind.encode("ascii"), dtype=np.uint8) - 48
        tasks.append(TaskGraph(task_id=tid, subjects=subjects, edges=edges))
    try:
        return AgreementMultigraph(tasks)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Fit reports and parameter tables
# ---------------------------------------------------------------------------


# Header lines every fit report carries, with their parsers.
_REPORT_HEADER = {"gamma": float, "tau0": float, "s0": float, "iterations": int, "converged": int}


def write_fit_report(report, path):
    p = report.params
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# gamma {_fmt(float(p.gamma))}\n")
        fh.write(f"# tau0 {_fmt(float(report.priors.tau0))}\n")
        fh.write(f"# s0 {_fmt(float(report.priors.s0))}\n")
        fh.write(f"# iterations {report.iterations}\n")
        fh.write(f"# converged {int(report.converged)}\n")
        if report.fallback_subjects:
            fh.write(f"# fallback_subjects {','.join(report.fallback_subjects)}\n")
        _write_subject_rows(fh, p)


def _write_subject_rows(fh, params):
    """The subject_id/tau/alpha/beta table of fit reports and params tables."""
    fh.write("subject_id\ttau\talpha\tbeta\n")
    for i, s in enumerate(params.subjects):
        fh.write(
            f"{s}\t{_fmt(float(params.tau[i]))}\t{_fmt(float(params.alpha[i]))}\t{_fmt(float(params.beta[i]))}\n"
        )


def _report_number(path, lineno, name, raw, parse=float):
    try:
        value = parse(raw)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: unparseable {name} {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: non-finite {name} {raw!r}")
    return value


def read_fit_report(path):
    """Parse a fit report.

    Rejects, naming the path and the line: a missing header line, a
    header value that is not a finite number, a row without exactly four
    fields, an empty or duplicate subject id, an unparseable number, and a
    tau outside [0, 1] or an alpha or beta that is not finite or below
    EPS_POS.
    """
    meta = {}
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, ln in enumerate(fh, start=1):
            ln = ln.rstrip("\n")
            if not ln:
                continue
            if ln.startswith("#"):
                key, _, value = ln[1:].strip().partition(" ")
                meta[key] = (lineno, value)
                continue
            rows.append((lineno, ln.split("\t")))
    if not rows or rows[0][1] != ["subject_id", "tau", "alpha", "beta"]:
        raise ValueError(f"{path}: not a fit report file")
    missing = [key for key in _REPORT_HEADER if key not in meta]
    if missing:
        raise ValueError(f"{path}: missing header line(s): {', '.join('# ' + k for k in missing)}")
    head = {
        key: _report_number(path, meta[key][0], key, meta[key][1], parse)
        for key, parse in _REPORT_HEADER.items()
    }

    body = rows[1:]
    for lineno, fields in body:
        if len(fields) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
    subjects = [fields[0] for _, fields in body]
    if "" in subjects or len(set(subjects)) < len(subjects):
        seen = set()
        for (lineno, _), sid in zip(body, subjects):
            if not sid or sid in seen:
                raise ValueError(f"{path}:{lineno}: empty or duplicate subject id {sid!r}")
            seen.add(sid)
    try:
        tau, alpha, beta = (np.array([float(fields[c]) for _, fields in body]) for c in (1, 2, 3))
    except ValueError:
        for lineno, fields in body:
            try:
                [float(x) for x in fields[1:]]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unparseable number in {fields[1:]}") from None
    valid = np.isfinite(alpha) & np.isfinite(beta) & (tau >= 0.0) & (tau <= 1.0)
    valid &= (alpha >= EPS_POS) & (beta >= EPS_POS)
    if not valid.all():
        i = int(np.argmin(valid))
        raise ValueError(
            f"{path}:{body[i][0]}: tau {tau[i]!r}, alpha {alpha[i]!r}, beta {beta[i]!r}: "
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


def write_params_table(params, path, kind="truth"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# kind {kind}\n")
        fh.write(f"# gamma {_fmt(float(params.gamma))}\n")
        _write_subject_rows(fh, params)


# ---------------------------------------------------------------------------
# Subject / image / baseline report tables
# ---------------------------------------------------------------------------


# Column -> parser of the subject and image tables; a subjects table adds one
# float column tau[<gamma>] per fitted gamma.
_SUBJECT_COLUMNS = {
    "rank": int,
    "subject_id": str,
    "tau_mean": float,
    "alpha": float,
    "beta": float,
    "beta_variance": float,
}
_IMAGE_COLUMNS = {
    "task_id": str,
    "adjusted_score": float,
    "confidence": float,
    "weighted_mean": float,
    "raw_mean": float,
    "n_raters": int,
    "weighted_mean_defined": int,
    "dimension": str,
    "direction": str,
}


def _tau_column(col):
    """The gamma of a subjects-table column tau[<gamma>], or None."""
    if col.startswith("tau[") and col.endswith("]"):
        try:
            return float(col[4:-1])
        except ValueError:
            pass
    return None


def _read_report_table(path, columns, id_column, extra=None):
    """Parse a report table whose header starts with the `columns` dict.

    Returns the values `extra` parses from the header columns past
    `columns`, and every row as a list of values (the `columns` parsers,
    then float for each extra column).  Rejects, naming the path and the
    line: a missing header row, or one that does not start with `columns`
    or has a column past them that `extra` maps to None; a row whose
    field count differs from the header's; an empty or duplicate id in
    column `id_column`; and a value its parser does not accept.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [(n, ln.rstrip("\n")) for n, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file, expected a header row")
    head_no, header = lines[0][0], lines[0][1].split("\t")
    names = list(columns)
    tail = header[len(names) :]
    extras = [extra(col) for col in tail] if extra else [None] * len(tail)
    if header[: len(names)] != names or None in extras:
        expected = "\t".join(names + (["tau[<gamma>]..."] if extra else []))
        raise ValueError(f"{path}:{head_no}: header is not {expected!r}")
    parsers = list(columns.values()) + [float] * len(tail)
    key = names.index(id_column)
    seen = set()
    rows = []
    for lineno, ln in lines[1:]:
        fields = ln.split("\t")
        if len(fields) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(fields)}")
        if not fields[key] or fields[key] in seen:
            raise ValueError(f"{path}:{lineno}: empty or duplicate {id_column} {fields[key]!r}")
        seen.add(fields[key])
        row = []
        for col, parse, raw in zip(header, parsers, fields):
            try:
                row.append(parse(raw))
            except ValueError:
                kind = "an integer" if parse is int else "a number"
                raise ValueError(f"{path}:{lineno}: {col} {raw!r} is not {kind}") from None
        rows.append(row)
    return extras, rows


def write_subject_reports(reports, path):
    gammas = sorted(reports[0].tau_by_gamma) if reports else []
    cols = list(_SUBJECT_COLUMNS) + [f"tau[{_fmt(g)}]" for g in gammas]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(cols) + "\n")
        for r in sorted(reports, key=lambda x: x.rank):
            row = [
                str(r.rank),
                r.subject_id,
                _fmt(r.tau_mean),
                _fmt(r.alpha),
                _fmt(r.beta),
                _fmt(r.beta_variance),
            ]
            row += [_fmt(r.tau_by_gamma[g]) for g in gammas]
            fh.write("\t".join(row) + "\n")


def read_subject_reports(path):
    """Parse a subjects table (see `_read_report_table` for what it rejects)."""
    gammas, rows = _read_report_table(path, _SUBJECT_COLUMNS, "subject_id", _tau_column)
    return [
        SubjectReport(
            subject_id=sid,
            tau_mean=tau_mean,
            tau_by_gamma=dict(zip(gammas, taus)),
            alpha=alpha,
            beta=beta,
            beta_variance=var,
            rank=rank,
        )
        for rank, sid, tau_mean, alpha, beta, var, *taus in rows
    ]


def write_image_reports(reports, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(_IMAGE_COLUMNS) + "\n")
        for r in reports:
            fh.write(
                "\t".join(
                    [
                        r.task_id,
                        _fmt(r.adjusted_score),
                        _fmt(r.confidence),
                        _fmt(r.weighted_mean),
                        _fmt(r.raw_mean),
                        str(r.n_raters),
                        str(int(r.weighted_mean_defined)),
                        r.dimension,
                        r.direction,
                    ]
                )
                + "\n"
            )


def read_image_reports(path):
    """Parse an image table (see `_read_report_table` for what it rejects)."""
    _, rows = _read_report_table(path, _IMAGE_COLUMNS, "task_id")
    return [
        ImageReport(
            task_id=tid,
            adjusted_score=score,
            confidence=conf,
            weighted_mean=wmean,
            raw_mean=rmean,
            n_raters=n,
            weighted_mean_defined=bool(defined),
            dimension=dim,
            direction=direction,
        )
        for tid, score, conf, wmean, rmean, n, defined, dim, direction in rows
    ]


def write_baseline_ranking(ranked, method, path):
    """Ranking rows (subject_id, score) in the subject-table layout with a
    method tag column; rank 1 is the most suspect subject."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("method\trank\tsubject_id\tscore\n")
        for pos, (sid, score) in enumerate(ranked, start=1):
            fh.write(f"{method}\t{pos}\t{sid}\t{_fmt(float(score))}\n")


def write_pr_result(result, path):
    with open(path, "w", encoding="utf-8") as fh:
        for k in sorted(result.top_k):
            fh.write(f"# top_{k} {_fmt(result.top_k[k])}\n")
        fh.write("k\tprecision\trecall\n")
        for k, p, r in zip(result.ks, result.precision, result.recall):
            fh.write(f"{k}\t{_fmt(p)}\t{_fmt(r)}\n")


def write_overhead_curve(curve, mode, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# mode {mode}\n")
        fh.write("threshold\tlabels_removed\n")
        for th, removed in curve:
            fh.write(f"{_fmt(float(th))}\t{removed}\n")


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
        text = ["" if v != v else _fmt(v) for v in distinct.view(float).tolist()]
        cells.append(list(map(text.__getitem__, at.tolist())))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        writer.writerows(zip(*cells))


def write_id_list(ids, path):
    with open(path, "w", encoding="utf-8") as fh:
        for s in ids:
            fh.write(s + "\n")


def read_id_list(path):
    out = []
    with open(path, encoding="utf-8") as fh:
        for ln in fh:
            ln = ln.strip()
            if ln and not ln.startswith("#"):
                out.append(ln)
    return out


# ---------------------------------------------------------------------------
# Fit configuration files and run manifests
# ---------------------------------------------------------------------------


def _parse_count(raw):
    value = int(raw)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


_CONFIG_PARSERS = {
    "gamma": "gamma",
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
                value = parse_gamma_spec(raw) if parser == "gamma" else parser(raw)
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
