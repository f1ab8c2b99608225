"""Rankings and reports derived from fitted reliability parameters.

Subjects are ranked by their reliability averaged over a grid of chance
rates; stimuli get a confidence-weighted adjusted score that discounts
tasks whose raters were collectively unreliable.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .ingest import DIMENSION_SCALES, _task_layout


@dataclass
class SubjectReport:
    subject_id: str
    tau_mean: float
    tau_by_gamma: dict  # gamma -> fitted tau
    alpha: float  # regularity at the reference gamma
    beta: float
    beta_variance: float
    rank: int = 0  # 1-based, ascending tau_mean (most susceptible first)


@dataclass
class ImageReport:
    task_id: str
    adjusted_score: float
    confidence: float
    weighted_mean: float
    raw_mean: float
    n_raters: int
    weighted_mean_defined: bool = True
    dimension: str = ""
    direction: str = "high"


@dataclass
class PRResult:
    ks: list
    precision: list
    recall: list
    top_k: dict = field(default_factory=dict)


def beta_variance(alpha, beta):
    s = alpha + beta
    return alpha * beta / (s * s * (s + 1.0))


def rank_subjects(fits):
    """Rank subjects by reliability averaged over a grid of fits.

    `fits` is one FitReport per chance-rate value; all must cover the
    same subjects.  The reported (alpha, beta) come from the fit whose
    gamma is closest to the midpoint of the grid range (ties toward the
    smaller gamma).  Rank 1 is the most susceptible subject; ties break
    by subject id.
    """
    if not fits:
        raise ValueError("need at least one fit")
    subjects = fits[0].params.subjects
    for f in fits[1:]:
        if f.params.subjects != subjects:
            raise ValueError("fits cover different subject sets")
    gammas = [f.params.gamma for f in fits]
    mid = 0.5 * (min(gammas) + max(gammas))
    ref = int(np.argmin([abs(g - mid) for g in gammas]))
    tau_grid = np.stack([f.params.tau for f in fits])  # (n_gamma, m)
    tau_mean = tau_grid.mean(axis=0)

    reports = []
    ref_params = fits[ref].params
    for i, sid in enumerate(subjects):
        a = float(ref_params.alpha[i])
        b = float(ref_params.beta[i])
        reports.append(
            SubjectReport(
                subject_id=sid,
                tau_mean=float(tau_mean[i]),
                tau_by_gamma={float(g): float(tau_grid[k, i]) for k, g in enumerate(gammas)},
                alpha=a,
                beta=b,
                beta_variance=float(beta_variance(a, b)),
            )
        )
    reports.sort(key=lambda r: (r.tau_mean, r.subject_id))
    for pos, r in enumerate(reports, start=1):
        r.rank = pos
    return reports


def image_scores(table, dimension, params, direction="high", min_raters=1):
    """Confidence-weighted stimulus scores for one rating dimension.

    Ratings are mapped linearly onto [0, 1] by the dimension's scale
    endpoints; with direction="low" each rating a becomes 1 - a before
    weighting, so the highest adjusted scores pick out the reliably
    lowest-rated stimuli.  The adjusted score is the reliability-weighted
    mean times the task confidence 1 - prod(1 - tau_i); a task whose
    raters all have zero reliability is reported with the weighted mean
    flagged undefined and an adjusted score of 0.  Sorted by adjusted
    score descending.
    """
    if direction not in ("high", "low"):
        raise ValueError(f"direction must be 'high' or 'low', got {direction!r}")
    if dimension not in DIMENSION_SCALES:
        raise ValueError(f"unknown dimension {dimension!r}")
    lo, hi = DIMENSION_SCALES[dimension]
    layout = _task_layout(table, dimension, min_raters)
    offsets, sizes = layout.offsets, np.diff(layout.offsets)
    known = np.array([params.position.get(s, -1) for s in layout.subjects], dtype=np.intp)
    at = known[layout.scode]
    if (at < 0).any():  # name the first kept task with unfitted raters
        k = np.searchsorted(offsets, np.argmax(at < 0), side="right") - 1
        task = slice(offsets[k], offsets[k + 1])
        missing = ", ".join(layout.subjects[c] for c in layout.scode[task][at[task] < 0].tolist())
        raise ValueError(f"task {layout.task_ids[k]!r}: no fitted parameters for rater(s) {missing}")
    tau = params.tau[at]
    norm = (layout.ratings - lo) / (hi - lo)
    if direction == "low":
        norm = 1.0 - norm

    n = len(sizes)
    confidence, tau_total, dot, raw_mean = (np.empty(n) for _ in range(4))
    for k in np.unique(sizes).tolist():
        members = np.flatnonzero(sizes == k)
        slots = offsets[members, None] + np.arange(k)
        taus = tau[slots]
        confidence[members] = 1.0 - np.prod(1.0 - taus, axis=1)
        tau_total[members] = taus.sum(axis=1)
        dot[members] = np.matmul(taus[:, None, :], norm[slots][:, :, None])[:, 0, 0]
        raw_mean[members] = layout.ratings[slots].mean(axis=1)
    defined = tau_total > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        wm = np.where(defined, dot / tau_total, np.nan)
    adjusted = np.where(defined, wm * confidence, 0.0)
    # Tasks are in id order, so a stable sort breaks score ties by task id.
    order = np.argsort(-adjusted, kind="stable")
    columns = (adjusted, confidence, wm, raw_mean, sizes, defined)
    return [
        ImageReport(layout.task_ids[i], *values, dimension=dimension, direction=direction)
        for i, *values in zip(order.tolist(), *(c[order].tolist() for c in columns))
    ]


def extreme_subset(reports, score_min, conf_min):
    """Task ids whose estimated score and confidence clear both thresholds.

    The estimated score is the weighted mean mapped back to the original
    scale (for direction="low" reports the threshold therefore applies on
    the flipped scale).  Confidence must strictly exceed conf_min.
    """
    out = []
    for r in reports:
        if not r.weighted_mean_defined:
            continue
        lo, hi = DIMENSION_SCALES[r.dimension]
        est = lo + r.weighted_mean * (hi - lo)
        if est >= score_min and r.confidence > conf_min:
            out.append(r.task_id)
    return out


def overhead_curve(table, dimension, reports, mode, thresholds=None):
    """Labels removed as a function of the quality threshold.

    mode="subject-filter": every response by a subject whose tau_mean is
    below the threshold is removed (`reports` are SubjectReports).
    mode="image-filter": every response on a task whose confidence is
    below the threshold is removed (`reports` are ImageReports; tasks
    without a report are never removed).  Counts are over responses that
    carry the dimension.
    """
    if mode not in ("subject-filter", "image-filter"):
        raise ValueError(f"unknown overhead mode {mode!r}")
    if thresholds is None:
        thresholds = [round(0.05 * i, 2) for i in range(21)]
    key, attr = ("subject_id", "tau_mean") if mode == "subject-filter" else ("task_id", "confidence")
    score_of = {getattr(r, key): getattr(r, attr) for r in reports}
    labels_per = Counter(getattr(row, key) for row in table.rows_for(dimension))
    keys = [(score_of[k], c) for k, c in labels_per.items() if k in score_of]

    curve = []
    for th in thresholds:
        removed = sum(c for score, c in keys if score < th)
        curve.append((float(th), int(removed)))
    return curve


def precision_recall(ranked, annotated, top_k=(20, 40, 60)):
    """Precision/recall of the susceptibility ranking against known spammers.

    `ranked` are SubjectReports (any order; rank fields decide), and
    `annotated` the known-spammer ids.  Precision and recall are reported
    at every prefix length of the ascending-reliability ranking, plus the
    requested top-K precisions (K beyond the ranking length is skipped).
    """
    if not annotated:
        raise ValueError("annotated spammer set is empty")
    order = sorted(ranked, key=lambda r: r.rank)
    ids = [r.subject_id for r in order]
    known = set(annotated)
    missing = known - set(ids)
    if missing:
        raise ValueError(f"annotated id(s) not in ranking: {', '.join(sorted(missing))}")

    ks = []
    precision = []
    recall = []
    hits = 0
    for k, sid in enumerate(ids, start=1):
        if sid in known:
            hits += 1
        ks.append(k)
        precision.append(hits / k)
        recall.append(hits / len(known))
    top = {k: precision[k - 1] for k in top_k if 1 <= k <= len(ids)}
    return PRResult(ks=ks, precision=precision, recall=recall, top_k=top)


def flag_confidently_unreliable(reports, var_max, tau_pct):
    """Subjects whose regularity is tight and reliability is low.

    Returns subjects with beta_variance < var_max whose tau_mean falls
    below the tau_pct-th percentile of the population, ordered by
    tau_mean ascending.  Meant for excluding subjects from future pools.
    """
    if not reports:
        raise ValueError("no subject reports")
    taus = np.array([r.tau_mean for r in reports])
    cutoff = float(np.percentile(taus, tau_pct))
    flagged = [
        r for r in reports if r.beta_variance < var_max and r.tau_mean < cutoff
    ]
    flagged.sort(key=lambda r: (r.tau_mean, r.subject_id))
    return [r.subject_id for r in flagged]
