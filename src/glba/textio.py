"""On-disk text formats: tab-separated tables with '#'-prefixed header
metadata.  Floats are written with repr (shortest round-trip), so files
are byte-identical across runs and parse back exactly."""

import csv
import functools
import hashlib
import math

import numpy as np

from .ingest import DIMENSIONS, AgreementMultigraph, TaskGraph
from .model import EPS_POS, FitConfig, FitReport, ModelParams, Priors
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
    without exactly three fields, an empty or duplicate task id, an empty
    or repeated subject id within a task, a wrong indicator count, and any
    indicator other than the characters 0 and 1.
    """
    tasks = []
    subject_tasks = {}
    seen = set()
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
        if not tid:
            raise ValueError(f"{path}: empty task id in record {ln!r}")
        if tid in seen:
            raise ValueError(f"{path}: duplicate task id {tid!r}")
        seen.add(tid)
        subjects = subj_field.split(",")
        r = len(subjects)
        if "" in subjects:
            raise ValueError(f"{path}: task {tid!r} has an empty subject id")
        if len(set(subjects)) != r:
            raise ValueError(f"{path}: task {tid!r} lists a subject more than once")
        if len(ind) != r * (r - 1):
            raise ValueError(f"{path}: task {tid!r} has {len(ind)} indicators, expected {r * (r - 1)}")
        if ind.strip("01"):
            raise ValueError(f"{path}: task {tid!r} has an indicator other than 0 or 1")
        edges = np.zeros((r, r), dtype=np.uint8)
        edges[_offdiag(r)] = np.frombuffer(ind.encode("ascii"), dtype=np.uint8) - 48
        tasks.append(TaskGraph(task_id=tid, subjects=subjects, edges=edges))
        for s in subjects:
            subject_tasks.setdefault(s, []).append(tid)
    subjects = sorted(subject_tasks)
    subject_tasks = {s: sorted(ts) for s, ts in sorted(subject_tasks.items())}
    return AgreementMultigraph(tasks=tasks, subjects=subjects, subject_tasks=subject_tasks)


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
        fh.write("subject_id\ttau\talpha\tbeta\n")
        for i, s in enumerate(p.subjects):
            fh.write(
                f"{s}\t{_fmt(float(p.tau[i]))}\t{_fmt(float(p.alpha[i]))}\t{_fmt(float(p.beta[i]))}\n"
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
        fh.write("subject_id\ttau\talpha\tbeta\n")
        for i, s in enumerate(params.subjects):
            fh.write(
                f"{s}\t{_fmt(float(params.tau[i]))}\t{_fmt(float(params.alpha[i]))}\t{_fmt(float(params.beta[i]))}\n"
            )


# ---------------------------------------------------------------------------
# Subject / image / baseline report tables
# ---------------------------------------------------------------------------


def write_subject_reports(reports, path):
    gammas = sorted(reports[0].tau_by_gamma) if reports else []
    cols = ["rank", "subject_id", "tau_mean", "alpha", "beta", "beta_variance"]
    cols += [f"tau[{_fmt(g)}]" for g in gammas]
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
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split("\t")
    gammas = [float(c[4:-1]) for c in header if c.startswith("tau[")]
    reports = []
    for ln in lines[1:]:
        f = ln.split("\t")
        reports.append(
            SubjectReport(
                subject_id=f[1],
                tau_mean=float(f[2]),
                tau_by_gamma={g: float(v) for g, v in zip(gammas, f[6:])},
                alpha=float(f[3]),
                beta=float(f[4]),
                beta_variance=float(f[5]),
                rank=int(f[0]),
            )
        )
    return reports


def write_image_reports(reports, path):
    cols = [
        "task_id",
        "adjusted_score",
        "confidence",
        "weighted_mean",
        "raw_mean",
        "n_raters",
        "weighted_mean_defined",
        "dimension",
        "direction",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(cols) + "\n")
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
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    reports = []
    for ln in lines[1:]:
        f = ln.split("\t")
        reports.append(
            ImageReport(
                task_id=f[0],
                adjusted_score=float(f[1]),
                confidence=float(f[2]),
                weighted_mean=float(f[3]),
                raw_mean=float(f[4]),
                n_raters=int(f[5]),
                weighted_mean_defined=bool(int(f[6])),
                dimension=f[7],
                direction=f[8],
            )
        )
    return reports


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
    cols = ["subject_id", "task_id"] + list(DIMENSIONS) + ["view_seconds", "label_seconds"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in sorted(table.rows, key=lambda r: (r.subject_id, r.task_id)):
            rec = [row.subject_id, row.task_id]
            for dim in DIMENSIONS:
                v = row.scores.get(dim)
                rec.append("" if v is None else _fmt(float(v)))
            rec.append("" if row.view_seconds is None else _fmt(float(row.view_seconds)))
            rec.append("" if row.label_seconds is None else _fmt(float(row.label_seconds)))
            writer.writerow(rec)


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

_CONFIG_PARSERS = {
    "gamma": "gamma",
    "update_gamma": _parse_bool,
    "tol": float,
    "max_iter": int,
    "eb_tol": float,
    "eb_max_rounds": int,
    "prior_grad_mode": str,
    "seed": int,
    "psi_includes_self": _parse_bool,
    "workers": int,
}


def parse_gamma_spec(raw):
    """A single rate ('0.37') or a lo:hi:count grid ('0.3:0.48:10')."""
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be lo:hi:count, got {raw!r}")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        from .model import gamma_grid

        return gamma_grid(lo, hi, count)
    return float(raw)


def read_config_file(path):
    """Parse 'key = value' lines into FitConfig keyword overrides."""
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
            if key not in _CONFIG_PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            parser = _CONFIG_PARSERS[key]
            overrides[key] = parse_gamma_spec(raw) if parser == "gamma" else parser(raw)
    return overrides


def make_fit_config(overrides):
    return FitConfig(**overrides)


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
