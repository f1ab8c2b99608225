"""Comparison methods: confusion-matrix EM over thresholded categories,
and the average-time-duration ranking used by crowdsourcing hosts."""

import math
from dataclasses import dataclass

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


def categorize(score, neutral, threshold=DEFAULT_MARGIN):
    """Threshold an ordinal rating into low / neutral / high.

    Strictly more than `threshold` above the neutral point is high,
    strictly more than `threshold` below is low.
    """
    if score > neutral + threshold:
        return "high"
    if score < neutral - threshold:
        return "low"
    return "neutral"


def categorize_table(table, dimension, neutral=None, threshold=DEFAULT_MARGIN):
    """Convert one dimension of a ResponseTable into categorical labels."""
    if neutral is None:
        neutral = NEUTRAL_POINT[dimension]
    rows = [
        CategoricalRow(
            subject_id=r.subject_id,
            task_id=r.task_id,
            category=categorize(r.scores[dimension], neutral, threshold),
        )
        for r in table.rows_for(dimension)
    ]
    return CategoricalTable(rows=rows)


def _penalized_loglik(task_labels, prior, confusion, subjects_pos):
    """Observed-data log-likelihood plus the smoothing pseudo-count prior.

    This is the quantity the smoothed EM ascends monotonically.
    """
    ll = 0.0
    for labels in task_labels.values():
        probs = prior.copy()
        for s_pos, cat in labels:
            probs = probs * confusion[s_pos][:, cat]
        ll += math.log(max(float(probs.sum()), 1e-300))
    ll += CONFUSION_SMOOTHING * float(sum(np.log(cm).sum() for cm in confusion))
    return ll


def dawid_skene_fit(table, max_iter=100, tol=1e-6):
    """Confusion-matrix EM over categorical labels.

    Task posteriors start from majority vote (uniform over tied top
    categories); each iteration re-estimates the class prior and the
    per-subject row-stochastic confusion matrices from posterior-weighted
    counts (with additive smoothing), then refreshes the posteriors.
    Stops when the largest posterior change drops below `tol`
    (`converged`) or after `max_iter` iterations.
    """
    if not table.rows:
        raise ValueError("empty categorical table")
    k = len(CATEGORIES)
    cat_pos = {c: i for i, c in enumerate(CATEGORIES)}
    subjects = sorted({r.subject_id for r in table.rows})
    s_pos = {s: i for i, s in enumerate(subjects)}
    task_labels = {}
    for r in table.rows:
        task_labels.setdefault(r.task_id, []).append((s_pos[r.subject_id], cat_pos[r.category]))
    task_ids = sorted(task_labels)
    task_labels = {t: task_labels[t] for t in task_ids}

    # Majority-vote initialization of the task posteriors.
    posterior = {}
    for t, labels in task_labels.items():
        counts = np.zeros(k)
        for _s, cat in labels:
            counts[cat] += 1
        top = counts == counts.max()
        posterior[t] = top / top.sum()

    confusion = [np.full((k, k), 1.0 / k) for _ in subjects]
    trace = []
    iterations = 0
    converged = False
    for _ in range(max_iter):
        # M-step: class prior and confusion rows from soft counts.
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

        # E-step: refresh task posteriors.
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
        trace.append(_penalized_loglik(task_labels, prior, confusion, s_pos))
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
    totals = {}
    counts = {}
    seen = set()
    for r in table.rows:
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
