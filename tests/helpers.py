"""Shared builders and brute-force oracles used across the test suite.

Oracles here are written as plain loops, independent of the library's
vectorized paths, so they can serve as ground truth for closed-form and
exactness checks.
"""

import math

import numpy as np

from glba.ingest import AgreementMultigraph, ResponseRow, ResponseTable, TaskGraph
from glba.model import ModelParams, R_CLAMP


def make_task(task_id, subjects, pairs, default=0):
    """TaskGraph from a dict {(i_id, j_id): indicator}; symmetric entries
    must be given explicitly unless `default` covers them."""
    r = len(subjects)
    edges = np.full((r, r), default, dtype=np.uint8)
    np.fill_diagonal(edges, 0)
    pos = {s: i for i, s in enumerate(subjects)}
    for (a, b), v in pairs.items():
        edges[pos[a], pos[b]] = v
    return TaskGraph(task_id=task_id, subjects=list(subjects), edges=edges)


def random_task(rng, task_id, subjects):
    r = len(subjects)
    edges = rng.integers(0, 2, size=(r, r)).astype(np.uint8)
    np.fill_diagonal(edges, 0)
    return TaskGraph(task_id=task_id, subjects=list(subjects), edges=edges)


def random_graph(rng, m=8, n=6, r_lo=2, r_hi=5, subject_prefix="s"):
    ids = [f"{subject_prefix}{i:03d}" for i in range(m)]
    r_hi = min(r_hi, m)
    tasks = []
    for k in range(n):
        r = int(rng.integers(r_lo, r_hi + 1))
        members = sorted(rng.choice(m, size=r, replace=False))
        tasks.append(random_task(rng, f"t{k:03d}", [ids[i] for i in members]))
    return AgreementMultigraph.from_tasks(tasks)


def random_params(rng, graph, gamma=None):
    m = graph.m
    return ModelParams(
        subjects=graph.subjects,
        tau=rng.uniform(0.05, 0.95, size=m),
        alpha=rng.uniform(0.5, 5.0, size=m),
        beta=rng.uniform(0.5, 5.0, size=m),
        gamma=float(rng.uniform(0.05, 0.45)) if gamma is None else gamma,
    )


def table_from_rows(rows):
    """rows: (subject, task, scores_dict [, view, label])"""
    out = []
    for row in rows:
        s, t, scores = row[0], row[1], row[2]
        view = row[3] if len(row) > 3 else None
        label = row[4] if len(row) > 4 else None
        out.append(
            ResponseRow(subject_id=s, task_id=t, scores=dict(scores), view_seconds=view, label_seconds=label)
        )
    return ResponseTable.from_rows(out)


def rated_rows(table, dimension):
    """The records of `table` that carry a rating for `dimension`."""
    return [r for r in table.rows if r.scores.get(dimension) is not None]


def oracle_task_sums(task, weights, focal, include_self=False):
    """Weighted agreement sums of one subject within one task.

    Returns (omega, psi, omega_bar, psi_bar): omega is the weight-sum of
    the focal subject's agreeing neighbors, psi the weight-sum of all
    neighbors, and the barred versions are the same sums with weights
    1 - w.  With include_self=True, psi additionally counts the focal
    subject's own weight (the literal printed form of the definition).
    """
    if focal not in task.subjects:
        raise ValueError(f"subject {focal!r} is not a rater of task {task.task_id!r}")
    try:
        w = [float(weights[s]) for s in task.subjects]
    except KeyError as exc:
        raise ValueError(f"weights missing for subject {exc.args[0]!r}") from None
    i = task.subjects.index(focal)
    E = task.edges
    omega = 0.0
    psi = 0.0
    omega_bar = 0.0
    psi_bar = 0.0
    for j in range(len(w)):
        if j == i:
            continue
        omega += w[j] * E[i, j]
        psi += w[j]
        omega_bar += (1.0 - w[j]) * E[i, j]
        psi_bar += 1.0 - w[j]
    if include_self:
        psi += w[i]
        psi_bar += 1.0 - w[i]
    return omega, psi, omega_bar, psi_bar


def oracle_r_approx(task, focal, alpha_k, beta_k, gamma):
    """Gate odds ratio of one subject in one task.

    Product over the focal subject's neighbors of
    (1/(a+b)) * (a/gamma)^I * (b/(1-gamma))^(1-I), where (a, b) are the
    neighbors' Beta statistics and I the neighbor->focal agreement
    indicator.  Evaluated in log space and clamped to R_CLAMP.
    """
    if focal not in task.subjects:
        raise ValueError(f"subject {focal!r} is not a rater of task {task.task_id!r}")
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    j = task.subjects.index(focal)
    E = task.edges
    log_r = 0.0
    for i, s in enumerate(task.subjects):
        if i == j:
            continue
        a = float(alpha_k[s])
        b = float(beta_k[s])
        if a <= 0 or b <= 0:
            raise ValueError(f"nonpositive Beta statistic for subject {s!r}")
        log_r -= math.log(a + b)
        if E[i, j]:
            log_r += math.log(a) - math.log(gamma)
        else:
            log_r += math.log(b) - math.log(1.0 - gamma)
    try:
        r = math.exp(log_r)
    except OverflowError:
        r = math.inf
    return min(max(r, R_CLAMP[0]), R_CLAMP[1])


def oracle_estep(task, params, include_self=False):
    """Brute-force E-step for one task: plain loops, direct (non-log)
    product for the gate odds ratio."""
    subs = task.subjects
    r = len(subs)
    E = task.edges
    tau = [params.tau[params.position[s]] for s in subs]
    alpha = [params.alpha[params.position[s]] for s in subs]
    beta = [params.beta[params.position[s]] for s in subs]
    g = params.gamma

    a_t, b_t = [], []
    for i in range(r):
        omega = sum(tau[j] * E[i, j] for j in range(r) if j != i)
        disagree = sum(tau[j] * (1 - E[i, j]) for j in range(r) if j != i)
        if include_self:
            disagree += tau[i]
        a_t.append(alpha[i] + omega)
        b_t.append(beta[i] + disagree)

    t_t = []
    for j in range(r):
        R = 1.0
        for i in range(r):
            if i == j:
                continue
            if E[i, j]:
                R *= a_t[i] / ((a_t[i] + b_t[i]) * g)
            else:
                R *= b_t[i] / ((a_t[i] + b_t[i]) * (1.0 - g))
        R = min(max(R, R_CLAMP[0]), R_CLAMP[1])
        t_t.append(R * tau[j] / (R * tau[j] + 1.0 - tau[j]))
    return np.array(a_t), np.array(b_t), np.array(t_t)


def oracle_gamma_ratio(multigraph, tau_tilde, include_self):
    """Numerator and denominator of the chance-rate update as a plain
    sequential loop: over every task and ordered rater pair (i, j != i),
    the weight 1 - tau~_j times E[i, j] and the weight alone; with
    include_self, row i's denominator also gets 1 - tau~_i.  `tau_tilde`
    is flat: task k's raters hold slots offsets[k]:offsets[k+1]."""
    num = 0.0
    den = 0.0
    offsets = multigraph.offsets
    for t_i, task in enumerate(multigraph.tasks):
        E = task.edges
        tt = tau_tilde[offsets[t_i] : offsets[t_i + 1]]
        k = task.n_raters
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                w = 1.0 - float(tt[j])
                num += w * float(E[i, j])
                den += w
            if include_self:
                den += 1.0 - float(tt[i])
    return num, den


def oracle_mstep_residual(a, b, d, stats_ab, tau0, s0, mode):
    """Residual of the shape stationarity system, from first principles."""
    from scipy.special import digamma

    s_a = sum(digamma(at) - digamma(at + bt) for at, bt in stats_ab)
    s_b = sum(digamma(bt) - digamma(at + bt) for at, bt in stats_ab)
    s = a + b
    if mode == "paper-literal":
        h = s / s0 - math.log(s)
    else:
        h = 1.0 / s0 - 1.0 / s
    f_a = s_a - d * (digamma(a) - digamma(s)) - h
    f_b = s_b - d * (digamma(b) - digamma(s)) - h
    return f_a, f_b


def oracle_dawid_skene(table, max_iter=100, tol=1e-6):
    """Dawid-Skene EM as plain per-task loops over the labels in subject
    order, with the penalized log-likelihood recomputed from the prior and
    confusions after each E-step.  Same contract as `glba.baselines.dawid_skene_fit`."""
    from glba.baselines import CATEGORIES, CONFUSION_SMOOTHING, DawidSkeneModel

    k = len(CATEGORIES)
    cat_pos = {c: i for i, c in enumerate(CATEGORIES)}
    subjects = sorted({r.subject_id for r in table.rows})
    s_pos = {s: i for i, s in enumerate(subjects)}
    task_labels = {}
    for r in sorted(table.rows, key=lambda r: (r.task_id, r.subject_id)):
        task_labels.setdefault(r.task_id, []).append((s_pos[r.subject_id], cat_pos[r.category]))
    task_ids = sorted(task_labels)
    task_labels = {t: task_labels[t] for t in task_ids}

    posterior = {}
    for t, labels in task_labels.items():
        counts = np.zeros(k)
        for _s, cat in labels:
            counts[cat] += 1
        top = counts == counts.max()
        posterior[t] = top / top.sum()

    trace = []
    iterations = 0
    converged = False
    for _ in range(max_iter):
        prior = np.zeros(k)
        for t in task_ids:
            prior += posterior[t]
        prior /= len(task_ids)

        counts = [np.full((k, k), CONFUSION_SMOOTHING) for _ in subjects]
        for t, labels in task_labels.items():
            post = posterior[t]
            for sp, cat in labels:
                counts[sp][:, cat] += post
        confusion = [c / c.sum(axis=1, keepdims=True) for c in counts]

        delta = 0.0
        for t, labels in task_labels.items():
            probs = prior.copy()
            for sp, cat in labels:
                probs = probs * confusion[sp][:, cat]
            total = float(probs.sum())
            probs = probs / total if total > 0 else np.full(k, 1.0 / k)
            delta = max(delta, float(np.max(np.abs(probs - posterior[t]))))
            posterior[t] = probs

        iterations += 1
        ll = 0.0
        for labels in task_labels.values():
            probs = prior.copy()
            for sp, cat in labels:
                probs = probs * confusion[sp][:, cat]
            ll += math.log(max(float(probs.sum()), 1e-300))
        ll += CONFUSION_SMOOTHING * float(sum(np.log(cm).sum() for cm in confusion))
        trace.append(ll)
        if delta < tol:
            converged = True
            break

    return DawidSkeneModel(
        class_prior=prior,
        confusion={s: confusion[s_pos[s]] for s in subjects},
        task_posterior={t: posterior[t] for t in task_ids},
        iterations=iterations,
        loglik_trace=trace,
        converged=converged,
    )


def oracle_build_multigraph(table, dimension, delta=0.2, min_raters=4):
    """The agreement multigraph as a per-task, per-pair loop of scalar
    `agree` calls over a dict-based percentile table.  Same contract as
    `glba.ingest.build_multigraph`."""
    from glba.ingest import agree, bin_rating, percentile_table

    by_task = {}
    for r in rated_rows(table, dimension):
        by_task.setdefault(r.task_id, []).append(r)
    retained = {tid: rs for tid, rs in by_task.items() if len(rs) >= min_raters}
    pool = [bin_rating(r.scores[dimension]) for rs in retained.values() for r in rs]
    ptable = percentile_table(pool, sorted(set(pool)), dimension=dimension)

    tasks = []
    for tid in sorted(retained):
        rs = sorted(retained[tid], key=lambda r: r.subject_id)
        ratings = [bin_rating(r.scores[dimension]) for r in rs]
        k = len(rs)
        edges = np.zeros((k, k), dtype=np.uint8)
        for a in range(k):
            for b in range(k):
                if a != b:
                    edges[a, b] = agree(ratings[a], ratings[b], ptable, delta)
        tasks.append(TaskGraph(task_id=tid, subjects=[r.subject_id for r in rs], edges=edges))
    return AgreementMultigraph.from_tasks(tasks)


def oracle_image_scores(table, dimension, params, direction="high", min_raters=1):
    """Stimulus scores as a per-task loop: group the rows in a dict, sort
    each task's raters and score it with scalar numpy calls.  Same
    contract as `glba.scoring.image_scores`."""
    from glba.ingest import DIMENSION_SCALES
    from glba.scoring import ImageReport

    if direction not in ("high", "low"):
        raise ValueError(f"direction must be 'high' or 'low', got {direction!r}")
    if dimension not in DIMENSION_SCALES:
        raise ValueError(f"unknown dimension {dimension!r}")
    lo, hi = DIMENSION_SCALES[dimension]

    by_task = {}
    for row in rated_rows(table, dimension):
        by_task.setdefault(row.task_id, []).append(row)

    reports = []
    for tid in sorted(by_task):
        rows = sorted(by_task[tid], key=lambda r: r.subject_id)
        if len(rows) < min_raters:
            continue
        missing = [r.subject_id for r in rows if r.subject_id not in params.position]
        if missing:
            raise ValueError(
                f"task {tid!r}: no fitted parameters for rater(s) {', '.join(missing)}"
            )
        taus = np.array([params.tau[params.position[r.subject_id]] for r in rows])
        raw = np.array([r.scores[dimension] for r in rows], dtype=float)
        norm = (raw - lo) / (hi - lo)
        if direction == "low":
            norm = 1.0 - norm
        confidence = float(1.0 - np.prod(1.0 - taus))
        tau_total = float(taus.sum())
        if tau_total > 0.0:
            wm = float(np.dot(taus, norm) / tau_total)
            defined = True
        else:
            wm = math.nan
            defined = False
        reports.append(
            ImageReport(
                task_id=tid,
                adjusted_score=wm * confidence if defined else 0.0,
                confidence=confidence,
                weighted_mean=wm,
                raw_mean=float(raw.mean()),
                n_raters=len(rows),
                weighted_mean_defined=defined,
                dimension=dimension,
                direction=direction,
            )
        )
    reports.sort(key=lambda r: (-r.adjusted_score, r.task_id))
    return reports


def oracle_pair_indicators(task):
    """Indicators of a task as one character per ordered pair (i, j),
    i != j, row-major."""
    r = task.n_raters
    return "".join(str(int(task.edges[i, j])) for i in range(r) for j in range(r) if i != j)


def oracle_read_multigraph(path):
    """The multigraph reader as a loop over the records, each parsed into a
    TaskGraph and packed by `AgreementMultigraph.from_tasks`.  Same
    contract, graphs and error strings as `glba.textio.read_multigraph`."""
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
        edges[~np.eye(r, dtype=bool)] = np.frombuffer(ind.encode("ascii"), dtype=np.uint8) - 48
        tasks.append(TaskGraph(task_id=tid, subjects=subjects, edges=edges))
    try:
        return AgreementMultigraph.from_tasks(tasks)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def oracle_load_responses(path, schema=None):
    """The rating-file loader over csv.DictReader with per-row closures.
    Same contract, rows and error strings as `glba.ingest.load_responses`."""
    import csv

    from glba.ingest import DIMENSION_SCALES, DIMENSIONS

    schema = schema or {}

    def col(name):
        return schema.get(name, name)

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file (no header row)")
        header = set(reader.fieldnames)
        required = ["subject_id", "task_id"] + list(DIMENSIONS)
        missing = [c for c in required if col(c) not in header]
        if missing:
            raise ValueError(f"{path}: missing required column(s): {', '.join(missing)}")
        has_view = col("view_seconds") in header
        has_label = col("label_seconds") in header

        rows = []
        problems = []
        seen = {}
        for lineno, rec in enumerate(reader, start=2):  # header is line 1
            sid = (rec[col("subject_id")] or "").strip()
            tid = (rec[col("task_id")] or "").strip()
            if not sid or not tid:
                problems.append(f"row {lineno}: empty subject_id or task_id")
                continue
            bad_id = [c for c in "\t,\n" if c in sid + tid]
            if bad_id:
                problems.append(f"row {lineno}: subject/task id contains a reserved character")
                continue
            if sid.startswith("#") or tid.startswith("#"):
                problems.append(f"row {lineno}: subject/task id begins with '#', which marks a comment line")
                continue
            key = (sid, tid)
            if key in seen:
                problems.append(f"row {lineno}: duplicate (subject, task) pair {key}, first seen at row {seen[key]}")
                continue
            seen[key] = lineno

            scores = {}
            for dim in DIMENSIONS:
                raw = (rec.get(col(dim)) or "").strip()
                if raw == "":
                    continue
                try:
                    value = float(raw)
                except ValueError:
                    problems.append(f"row {lineno}: unparseable {dim} value {raw!r}")
                    continue
                lo, hi = DIMENSION_SCALES[dim]
                if not (lo <= value <= hi) or not math.isfinite(value):
                    problems.append(f"row {lineno}: {dim} {value} outside [{lo:g}, {hi:g}]")
                    continue
                scores[dim] = value

            def seconds(name, available):
                if not available:
                    return None
                raw = (rec.get(col(name)) or "").strip()
                if raw == "":
                    return None
                try:
                    value = float(raw)
                except ValueError:
                    problems.append(f"row {lineno}: unparseable {name} value {raw!r}")
                    return None
                if not math.isfinite(value):
                    problems.append(f"row {lineno}: non-finite {name} value {raw!r}")
                    return None
                if value < 0:
                    problems.append(f"row {lineno}: negative {name}")
                    return None
                return value

            rows.append(
                ResponseRow(
                    subject_id=sid,
                    task_id=tid,
                    scores=scores,
                    view_seconds=seconds("view_seconds", has_view),
                    label_seconds=seconds("label_seconds", has_label),
                )
            )

    if problems:
        shown = "; ".join(problems[:20])
        more = f" (+{len(problems) - 20} more)" if len(problems) > 20 else ""
        raise ValueError(f"{path}: {shown}{more}")
    return ResponseTable.from_rows(rows)


def oracle_duration_rank(table):
    """Mean-duration ranking as a loop over the records in (subject, task)
    order.  Same contract as `glba.baselines.duration_rank`."""
    totals = {}
    counts = {}
    seen = set()
    for r in sorted(table.rows, key=lambda r: (r.subject_id, r.task_id)):
        seen.add(r.subject_id)
        if r.view_seconds is None and r.label_seconds is None:
            continue
        secs = (r.view_seconds or 0.0) + (r.label_seconds or 0.0)
        totals[r.subject_id] = totals.get(r.subject_id, 0.0) + secs
        counts[r.subject_id] = counts.get(r.subject_id, 0) + 1
    ranked = [(s, totals[s] / counts[s]) for s in totals]
    ranked.sort(key=lambda x: (x[1], x[0]))
    excluded = sorted(seen - set(totals))
    return ranked, excluded


def oracle_categorize_table(table, dimension, neutral=None, threshold=0.5):
    """Categorical labels as one scalar `categorize` call per record.  Same
    contract as `glba.baselines.categorize_table`."""
    from glba.baselines import NEUTRAL_POINT, CategoricalRow, CategoricalTable, _check_nonnegative, categorize

    _check_nonnegative("threshold", threshold)
    if neutral is None:
        neutral = NEUTRAL_POINT[dimension]
    rows = [
        CategoricalRow(
            subject_id=r.subject_id,
            task_id=r.task_id,
            category=categorize(r.scores[dimension], neutral, threshold),
        )
        for r in rated_rows(table, dimension)
    ]
    return CategoricalTable(rows=rows)


def oracle_overhead_curve(table, dimension, reports, mode, thresholds=None):
    """Labels removed per threshold from a Counter over the records.  Same
    contract as `glba.scoring.overhead_curve`."""
    from collections import Counter

    if mode not in ("subject-filter", "image-filter"):
        raise ValueError(f"unknown overhead mode {mode!r}")
    if thresholds is None:
        thresholds = [round(0.05 * i, 2) for i in range(21)]
    key, attr = ("subject_id", "tau_mean") if mode == "subject-filter" else ("task_id", "confidence")
    score_of = {getattr(r, key): getattr(r, attr) for r in reports}
    labels_per = Counter(getattr(row, key) for row in rated_rows(table, dimension))
    keys = [(score_of[k], c) for k, c in labels_per.items() if k in score_of]

    curve = []
    for th in thresholds:
        removed = sum(c for score, c in keys if score < th)
        curve.append((float(th), int(removed)))
    return curve


def oracle_write_responses(table, path):
    """The ratings CSV written record by record.  Same bytes as
    `glba.textio.write_responses`."""
    import csv

    from glba.ingest import DIMENSIONS

    cols = ["subject_id", "task_id"] + list(DIMENSIONS) + ["view_seconds", "label_seconds"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in sorted(table.rows, key=lambda r: (r.subject_id, r.task_id)):
            rec = [row.subject_id, row.task_id]
            for dim in DIMENSIONS:
                v = row.scores.get(dim)
                rec.append("" if v is None else repr(float(v)))
            rec.append("" if row.view_seconds is None else repr(float(row.view_seconds)))
            rec.append("" if row.label_seconds is None else repr(float(row.label_seconds)))
            writer.writerow(rec)
