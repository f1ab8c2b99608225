"""Comparison methods: confusion-matrix EM over thresholded categories,
and the average-time-duration ranking used by crowdsourcing hosts."""

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .ingest import DIMENSION_SCALES

CATEGORIES = ("low", "neutral", "high")

# Scale midpoints used when thresholding ordinal ratings into categories.
NEUTRAL_POINT = {dim: (lo + hi) / 2.0 for dim, (lo, hi) in DIMENSION_SCALES.items()}

DEFAULT_MARGIN = 0.5

# Additive smoothing on posterior-weighted confusion counts; keeps rows of
# sparse subjects away from zero.
CONFUSION_SMOOTHING = 0.01


@dataclass
class CategoricalRow:
    subject_id: str
    task_id: str
    category: str


@dataclass
class CategoricalTable:
    rows: list

    def __post_init__(self):
        for r in self.rows:
            if r.category not in CATEGORIES:
                raise ValueError(f"unknown category {r.category!r}")


@dataclass
class DawidSkeneModel:
    class_prior: np.ndarray  # (3,)
    confusion: dict  # subject -> (3, 3) row-stochastic, rows = true class
    task_posterior: dict  # task -> (3,)
    iterations: int = 0
    loglik_trace: list = None
    converged: bool = False  # the posterior change fell below tol


def _check_nonnegative(name, value):
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value}")


def categorize(score, neutral, threshold=DEFAULT_MARGIN):
    """Threshold an ordinal rating into low / neutral / high.

    Strictly more than `threshold` above the neutral point is high,
    strictly more than `threshold` below is low.  `threshold` must be
    finite and non-negative.
    """
    _check_nonnegative("threshold", threshold)
    if score > neutral + threshold:
        return "high"
    if score < neutral - threshold:
        return "low"
    return "neutral"


def categorize_table(table, dimension, neutral=None, threshold=DEFAULT_MARGIN):
    """Convert one dimension of a ResponseTable into categorical labels."""
    _check_nonnegative("threshold", threshold)
    if neutral is None:
        neutral = NEUTRAL_POINT[dimension]
    rated = np.flatnonzero(table.rated(dimension)).tolist()
    values = table.ratings(dimension)[rated]
    # 0, 1, 2 for low, neutral, high: the thresholds of `categorize`.
    at = 1 + (values > neutral + threshold).astype(np.intp) - (values < neutral - threshold)
    sids, tids = table.subject_ids, table.task_ids
    rows = [
        CategoricalRow(sids[i], tids[i], CATEGORIES[c]) for i, c in zip(rated, at.tolist())
    ]
    return CategoricalTable(rows=rows)


def dawid_skene_fit(table, max_iter=100, tol=1e-6):
    """Confusion-matrix EM over categorical labels.

    Task posteriors start from majority vote (uniform over tied top
    categories); each iteration re-estimates the class prior and the
    per-subject row-stochastic confusion matrices from posterior-weighted
    counts (with additive smoothing), then refreshes the posteriors.
    Stops when the largest posterior change drops below `tol`
    (`converged`) or after `max_iter` iterations.  `loglik_trace` holds
    the observed-data log-likelihood plus the smoothing pseudo-count
    prior, the quantity the smoothed EM ascends monotonically.

    Rows are sorted by task with a stable sort, so every sum and product
    runs in the order of a per-task loop over labels in input order:
    `add.at` and `cumsum` add in sequence, and the E-step multiplies one
    within-task position at a time.
    """
    if not table.rows:
        raise ValueError("empty categorical table")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    _check_nonnegative("tol", tol)
    k = len(CATEGORIES)
    cat_pos = {c: i for i, c in enumerate(CATEGORIES)}
    subjects = sorted({r.subject_id for r in table.rows})
    task_ids = sorted({r.task_id for r in table.rows})
    s_pos = {s: i for i, s in enumerate(subjects)}
    t_pos = {t: i for i, t in enumerate(task_ids)}
    codes = np.array(
        [(s_pos[r.subject_id], t_pos[r.task_id], cat_pos[r.category]) for r in table.rows],
        dtype=np.intp,
    )
    row_s, row_t, row_c = codes[np.argsort(codes[:, 1], kind="stable")].T
    n_tasks = len(task_ids)
    within = np.arange(len(row_t)) - np.searchsorted(row_t, row_t)
    # Per within-task position: the tasks that reach it, with that label's
    # subject and category.
    layers = []
    for p in range(within.max() + 1):
        sel = within == p
        layers.append((row_t[sel], row_s[sel], row_c[sel]))

    # Majority-vote initialization of the task posteriors.
    votes = np.zeros((n_tasks, k))
    np.add.at(votes, (row_t, row_c), 1.0)
    top = votes == votes.max(axis=1, keepdims=True)
    posterior = top / top.sum(axis=1, keepdims=True)

    trace = []
    iterations = 0
    converged = False
    for _ in range(max_iter):
        # M-step: class prior and confusion rows from soft counts.
        prior = np.cumsum(posterior, axis=0)[-1] / n_tasks
        counts = np.full((len(subjects), k, k), CONFUSION_SMOOTHING)
        np.add.at(counts, (row_s, slice(None), row_c), posterior[row_t])
        confusion = counts / counts.sum(axis=2, keepdims=True)

        # E-step: prior times each label's confusion column, task by task.
        probs = np.tile(prior, (n_tasks, 1))
        for t, s, c in layers:
            probs[t] *= confusion[s, :, c]
        totals = probs.sum(axis=1)
        refreshed = np.full_like(probs, 1.0 / k)
        np.divide(probs, totals[:, None], out=refreshed, where=totals[:, None] > 0)
        delta = float(np.max(np.abs(refreshed - posterior)))
        posterior = refreshed

        iterations += 1
        # math.log per task: numpy's SIMD log can differ from libm's in the last bit.
        logs = list(map(math.log, np.maximum(totals, 1e-300).tolist()))
        # Each subject's nine logs summed as one matrix, then subjects in order.
        smoothing = float(np.cumsum(np.log(confusion).reshape(len(subjects), -1).sum(axis=1))[-1])
        trace.append(float(np.cumsum(logs)[-1]) + CONFUSION_SMOOTHING * smoothing)
        if delta < tol:
            converged = True
            break

    return DawidSkeneModel(
        class_prior=prior,
        confusion={s: confusion[i] for i, s in enumerate(subjects)},
        task_posterior={t: posterior[i] for i, t in enumerate(task_ids)},
        iterations=iterations,
        loglik_trace=trace,
        converged=converged,
    )


def dawid_skene_rank(model):
    """Subjects ordered most-spammer-like first: ascending mean diagonal
    of the confusion matrix (low self-consistency first)."""
    scored = [
        (s, float(np.mean(np.diag(cm)))) for s, cm in model.confusion.items()
    ]
    scored.sort(key=lambda x: (x[1], x[0]))
    return scored


def duration_rank(table):
    """Subjects ordered by mean task duration, fastest first.

    A row contributes view_seconds + label_seconds (a missing half counts
    as zero); rows missing both are skipped.  Returns (ranked, excluded)
    where `excluded` lists subjects with no timed rows at all.
    """
    view, label = table.view_seconds, table.label_seconds
    missing_view, missing_label = np.isnan(view), np.isnan(label)
    timed = ~(missing_view & missing_label)
    secs = np.where(missing_view, 0.0, view) + np.where(missing_label, 0.0, label)
    # bincount adds the timed rows in row order, as a loop over rows would.
    who = table.subject_code[timed]
    totals = np.bincount(who, weights=secs[timed], minlength=len(table.subject_index))
    counts = np.bincount(who, minlength=len(table.subject_index))
    has = counts > 0
    means = (totals[has] / counts[has]).tolist()
    ranked = sorted(zip(compress(table.subject_index, has), means), key=lambda x: (x[1], x[0]))
    excluded = list(compress(table.subject_index, ~has))
    return ranked, excluded
