"""Synthetic data generation: multigraphs drawn from the generative
process, population-mimicking spammer injection, and a ratings simulator.

All sampling uses the counter-based Philox generator with per-task
substreams spawned from (seed, task index), so outputs are identical
across platforms and independent of evaluation order.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .ingest import (
    DIMENSION_SCALES,
    MISSING,
    AgreementMultigraph,
    ResponseTable,
    TaskGraph,
)
from .model import ModelParams


def _task_rng(seed, k):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(k,))))


def _rater_range(raters_per_task, m):
    """`raters_per_task` (a count r, or an inclusive (lo, hi) range) as
    (lo, hi), checked to satisfy 2 <= lo <= hi <= m."""
    r = raters_per_task
    try:
        lo, hi = (operator.index(r),) * 2 if np.ndim(r) == 0 else map(operator.index, r)
    except (TypeError, ValueError):
        raise ValueError(
            f"raters_per_task must be an integer or an integer (lo, hi), got {r!r}"
        ) from None
    if lo < 2:
        raise ValueError("raters_per_task must be at least 2")
    if lo > hi:
        raise ValueError(f"raters_per_task range ({lo}, {hi}) is reversed")
    if hi > m:
        raise ValueError(f"raters_per_task {hi} exceeds subject count {m}")
    return lo, hi


@dataclass
class GenerativeSpec:
    m: int  # subject count
    n: int  # task count
    raters_per_task: object  # int, or (lo, hi) inclusive
    true_params: ModelParams
    seed: int = 0

    def validate(self):
        if len(self.true_params.subjects) != self.m:
            raise ValueError("true_params must cover exactly m subjects")
        self.true_params.validate()
        _rater_range(self.raters_per_task, self.m)
        return self


@dataclass
class InjectionSpec:
    spammer_count: int
    tasks_per_spammer: int
    seed: int = 0

    def validate(self):
        if self.spammer_count < 1 or self.tasks_per_spammer < 1:
            raise ValueError("spammer_count and tasks_per_spammer must be positive")
        return self


def default_subject_ids(m):
    return [f"s{i:04d}" for i in range(m)]


def make_true_params(
    m,
    spammer_count=0,
    tau_reliable=0.9,
    agree_mean=0.7,
    strength=5.0,
    gamma=0.37,
    subjects=None,
):
    """Ground-truth parameters with the first `spammer_count` subjects
    fully unreliable and everyone sharing one regularity shape."""
    subjects = subjects or default_subject_ids(m)
    tau = np.full(m, tau_reliable)
    tau[:spammer_count] = 0.0
    alpha = np.full(m, agree_mean * strength)
    beta = np.full(m, (1.0 - agree_mean) * strength)
    return ModelParams(subjects=subjects, tau=tau, alpha=alpha, beta=beta, gamma=gamma)


def sample_multigraph(spec):
    """Draw an agreement multigraph from the generative process.

    Per task: a uniform rater subset without replacement; a reliability
    gate per rater; a Beta agreement rate per rater; then every ordered
    pair (i, j) agrees with probability J_i if j's gate is open, else
    gamma.  Deterministic given spec.seed.

    Returns (multigraph, true_params).
    """
    spec.validate()
    p = spec.true_params
    lo, hi = _rater_range(spec.raters_per_task, spec.m)

    tasks = []
    for k in range(spec.n):
        rng = _task_rng(spec.seed, k)
        r = int(rng.integers(lo, hi + 1)) if hi > lo else lo
        members = rng.choice(spec.m, size=r, replace=False)
        order = np.argsort([p.subjects[i] for i in members])
        members = members[order]
        ids = [p.subjects[i] for i in members]

        gates = rng.random(r) < p.tau[members]
        rates = rng.beta(p.alpha[members], p.beta[members])
        u = rng.random((r, r))
        prob = np.where(gates[None, :], rates[:, None], p.gamma)
        edges = (u < prob).astype(np.uint8)
        np.fill_diagonal(edges, 0)

        tasks.append(TaskGraph(task_id=f"t{k:05d}", subjects=ids, edges=edges))
    return AgreementMultigraph.from_tasks(tasks), p


def inject_spammers(table, dimension, spec):
    """Mix synthetic spammers into a rating table.

    Each spammer labels `tasks_per_spammer` distinct tasks, disjoint from
    every other spammer's tasks, drawing each rating independently from
    the empirical distribution of the population's ratings on
    `dimension` (the hardest case to spot: marginally indistinguishable
    from the crowd).  Returns (new_table, injected_ids).
    """
    spec.validate()
    rated = table.rated(dimension)
    pool = table.ratings(dimension)[rated]
    if pool.size == 0:
        raise ValueError(f"table has no ratings for dimension {dimension!r}")
    task_ids = [table.task_index[t] for t in np.unique(table.task_code[rated]).tolist()]
    needed = spec.spammer_count * spec.tasks_per_spammer
    if needed > len(task_ids):
        raise ValueError(
            f"need {needed} distinct tasks for disjoint assignment, have {len(task_ids)}"
        )
    existing = set(table.subject_index)
    injected_ids = [f"spammer_{j:03d}" for j in range(spec.spammer_count)]
    clash = [s for s in injected_ids if s in existing]
    if clash:
        raise ValueError(f"table already contains reserved id(s): {', '.join(clash)}")

    rng = _task_rng(spec.seed, 0)
    chosen = rng.choice(len(task_ids), size=needed, replace=False)
    sids, tids, ratings = [], [], []
    for j, sid in enumerate(injected_ids):
        block = chosen[j * spec.tasks_per_spammer : (j + 1) * spec.tasks_per_spammer]
        for t_idx in block:
            sids.append(sid)
            tids.append(task_ids[t_idx])
            ratings.append(float(pool[rng.integers(pool.size)]))
    # The spammers' rows carry only `dimension`, without timings.
    pad = np.full(needed, MISSING)
    scores = {d: np.concatenate((c, ratings if d == dimension else pad)) for d, c in table.scores.items()}
    new_table = ResponseTable(
        table.subject_ids + sids,
        table.task_ids + tids,
        scores,
        np.concatenate((table.view_seconds, pad)),
        np.concatenate((table.label_seconds, pad)),
    )
    return new_table, injected_ids


def sample_response_table(
    m,
    n,
    raters_per_task,
    tau_true=None,
    rating_sigma=1.0,
    bias_sigma=0.0,
    seed=0,
    dimensions=("valence",),
    with_timing=False,
):
    """Synthetic ordinal ratings with per-subject reliability.

    Every task has a latent location per dimension; a serious response is
    the location plus a persistent per-subject offset (spread bias_sigma,
    making raters individually consistent but mutually dispersed, as real
    crowds are) plus Gaussian noise, rounded onto the scale.  A
    non-serious response (gate closed, probability 1 - tau) is uniform
    over the scale.  Returns (table, tau_by_subject).
    """
    subjects = default_subject_ids(m)
    tau_true = np.full(m, 1.0) if tau_true is None else np.asarray(tau_true, dtype=float)
    if tau_true.shape != (m,):
        raise ValueError("tau_true must have one entry per subject")
    bias_rng = _task_rng(seed, 2**31)
    bias = bias_rng.normal(0.0, bias_sigma, size=m) if bias_sigma > 0 else np.zeros(m)
    lo_r, hi_r = _rater_range(raters_per_task, m)

    sids, tids, view, label = [], [], [], []
    scores = {dim: [] for dim in dimensions}
    for k in range(n):
        rng = _task_rng(seed, k)
        r = int(rng.integers(lo_r, hi_r + 1)) if hi_r > lo_r else lo_r
        members = np.sort(rng.choice(m, size=r, replace=False))
        serious = rng.random(r) < tau_true[members]
        task_scores = {}
        for dim in dimensions:
            lo, hi = DIMENSION_SCALES[dim]
            center = rng.uniform(lo, hi)
            noisy = np.rint(center + bias[members] + rng.normal(0.0, rating_sigma, size=r))
            noisy = np.clip(noisy, lo, hi)
            uniform = rng.integers(int(lo), int(hi) + 1, size=r).astype(float)
            task_scores[dim] = np.where(serious, noisy, uniform)
        for dim, values in task_scores.items():
            scores[dim].extend(values.tolist())
        sids.extend(subjects[i] for i in members.tolist())
        tids.extend([f"t{k:05d}"] * r)
        for speed in np.where(serious, 1.0, 0.6).tolist() if with_timing else ():
            view.append(round(float(rng.uniform(3.0, 10.0) * speed), 2))
            label.append(round(float(rng.uniform(5.0, 20.0) * speed), 2))
    if not with_timing:
        view = label = [MISSING] * len(sids)
    table = ResponseTable(sids, tids, scores, view, label)
    truth = {subjects[i]: float(tau_true[i]) for i in range(m)}
    return table, truth
