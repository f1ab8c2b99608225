"""Comparison methods: confusion-matrix EM over thresholded categories,
and the average-time-duration ranking used by crowdsourcing hosts."""

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .ingest import DIMENSION_SCALES, _check_ids, _recoded, _task_major

CATEGORIES = ("low", "neutral", "high")

# Scale midpoints used when thresholding ordinal ratings into categories.
NEUTRAL_POINT = {dim: (lo + hi) / 2.0 for dim, (lo, hi) in DIMENSION_SCALES.items()}

DEFAULT_MARGIN = 0.5

# Additive smoothing on posterior-weighted confusion counts; keeps rows of
# sparse subjects away from zero.
CONFUSION_SMOOTHING = 0.01


@dataclass(eq=False)
class CategoricalTable:
    """Categorical labels as columns, one entry per label: the coded ids as
    in ResponseTable (checked as it checks them), and ``categories``, each
    label's position in CATEGORIES (0..2, checked)."""

    subject_index: list
    subject_code: np.ndarray
    task_index: list
    task_code: np.ndarray
    categories: np.ndarray

    def __post_init__(self):
        categories = np.asarray(self.categories)
        _check_ids(self, "categorical table", [categories])
        bad = ~np.isin(categories, range(len(CATEGORIES)))
        if bad.any():
            raise ValueError(f"category code {categories[bad][0].item()!r} outside 0..{len(CATEGORIES) - 1}")
        self.categories = categories.astype(np.intp)

    def __len__(self):
        return len(self.subject_code)


@dataclass
class DawidSkeneModel:
    class_prior: np.ndarray  # (3,)
    confusion: dict  # subject -> (3, 3) row-stochastic, rows = true class
    task_posterior: dict  # task -> (3,)
    iterations: int = 0
    converged: bool = False  # the posterior change fell below tol


def _check_nonnegative(name, value):
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value}")


def categorize_table(table, dimension, threshold=DEFAULT_MARGIN):
    """Convert one dimension of a ResponseTable into categorical labels,
    one per rated row in row order.  The label table's ids are coded from
    the table's codes, not coded again."""
    _check_nonnegative("threshold", threshold)
    if dimension not in NEUTRAL_POINT:
        raise ValueError(f"unknown dimension {dimension!r}")
    neutral = NEUTRAL_POINT[dimension]
    rated = table.rated(dimension)
    values = table.ratings(dimension)[rated]
    # 0, 1, 2 for low, neutral, high: strictly more than `threshold` above
    # the neutral point is high, strictly more below is low.
    categories = 1 + (values > neutral + threshold).astype(np.intp) - (values < neutral - threshold)
    return CategoricalTable(
        *_recoded(table.subject_index, table.subject_code[rated]),
        *_recoded(table.task_index, table.task_code[rated]),
        categories,
    )


def dawid_skene_fit(table, max_iter=100, tol=1e-6):
    """Confusion-matrix EM over categorical labels.

    Task posteriors start from majority vote (uniform over tied top
    categories); each iteration re-estimates the class prior and the
    per-subject row-stochastic confusion matrices from posterior-weighted
    counts (with additive smoothing), then refreshes the posteriors.
    Stops when the largest posterior change drops below `tol`
    (`converged`) or after `max_iter` iterations.  No per-iteration
    log-likelihood is kept; the tests check that the penalized
    log-likelihood of `dawid_skene_fit(table, max_iter=i)` never falls
    as i grows.

    Rows are sorted by (task, subject) with a stable sort, so every sum
    and product runs in the order of a per-task loop over labels in subject
    order, whatever the order of the rows: `bincount` and `cumsum` add in
    sequence, and the E-step multiplies one within-task position at a time.
    """
    if not len(table):
        raise ValueError("empty categorical table")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    _check_nonnegative("tol", tol)
    k = len(CATEGORIES)
    subjects, task_ids = table.subject_index, table.task_index
    n_tasks, n_cells = len(task_ids), len(subjects) * k * k
    order = _task_major(table.task_code, table.subject_code, max(len(subjects), n_tasks))
    row_s, row_t, row_c = table.subject_code[order], table.task_code[order], table.categories[order]
    within = np.arange(len(row_t)) - np.searchsorted(row_t, row_t)
    # Per within-task position: the tasks that reach it (a slice when every
    # task does, so the E-step multiplies in place), and the flat
    # `confusion` cells (s, 0..2, c) of each such label of subject s and
    # category c.
    layers = []
    for p in range(within.max() + 1):
        sel = within == p
        cells = (row_s[sel] * (k * k) + row_c[sel])[:, None] + k * np.arange(k)
        layers.append((slice(None) if sel.sum() == n_tasks else row_t[sel], cells))

    # Majority-vote initialization of the task posteriors.
    votes = np.bincount(row_t * k + row_c, minlength=n_tasks * k).reshape(n_tasks, k)
    top = votes == votes.max(axis=1, keepdims=True)
    posterior = top / top.sum(axis=1, keepdims=True)

    # Soft confusion counts by one bincount: cell (s, true class, label)
    # takes its smoothing first, then each label's posterior in row order,
    # so every cell adds in the sequence of a loop over the rows.
    label_cells = (row_s[:, None] * k + np.arange(k)) * k + row_c[:, None]
    cells = np.concatenate((np.arange(n_cells), label_cells.ravel()))
    weights = np.full(len(cells), CONFUSION_SMOOTHING)
    # The flat `posterior` entries each label's weights are read from.
    label_post = (row_t[:, None] * k + np.arange(k)).ravel()

    iterations = 0
    converged = False
    for _ in range(max_iter):
        # M-step: class prior and confusion rows from soft counts.
        prior = np.cumsum(posterior, axis=0)[-1] / n_tasks
        np.take(posterior, label_post, out=weights[n_cells:], mode="clip")
        counts = np.bincount(cells, weights=weights, minlength=n_cells).reshape(-1, k, k)
        confusion = counts / counts.sum(axis=2, keepdims=True)

        # E-step: prior times each label's confusion column, task by task
        # (the first layer reaches every task).
        flat = confusion.ravel()
        probs = prior * flat.take(layers[0][1])
        for t, cells_p in layers[1:]:
            probs[t] *= flat.take(cells_p)
        totals = probs.sum(axis=1, keepdims=True)
        empty = totals[:, 0] == 0  # no class has mass: the posterior is uniform
        probs[empty], totals[empty] = 1.0, k
        probs /= totals
        delta = float(np.max(np.abs(probs - posterior)))
        posterior = probs

        iterations += 1
        if delta < tol:
            converged = True
            break

    return DawidSkeneModel(
        class_prior=prior,
        confusion=dict(zip(subjects, confusion)),
        task_posterior=dict(zip(task_ids, posterior)),
        iterations=iterations,
        converged=converged,
    )


def dawid_skene_rank(model):
    """Subjects ordered most-spammer-like first: ascending mean diagonal
    of the confusion matrix (low self-consistency first)."""
    conf = np.array(list(model.confusion.values()))
    scores = np.diagonal(conf, axis1=1, axis2=2).mean(axis=1).tolist()
    return sorted(zip(model.confusion, scores), key=lambda x: (x[1], x[0]))


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
    # bincount adds the timed rows in (subject, task) order, as a loop over
    # the sorted rows would, so the sums do not depend on the row order.
    order = np.argsort(table.subject_code * len(table.task_index) + table.task_code, kind="stable")
    order = order[timed[order]]
    who = table.subject_code[order]
    totals = np.bincount(who, weights=secs[order], minlength=len(table.subject_index))
    counts = np.bincount(who, minlength=len(table.subject_index))
    has = counts > 0
    means = (totals[has] / counts[has]).tolist()
    ranked = sorted(zip(compress(table.subject_index, has), means), key=lambda x: (x[1], x[0]))
    excluded = list(compress(table.subject_index, ~has))
    return ranked, excluded
