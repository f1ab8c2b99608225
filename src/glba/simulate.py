"""Synthetic data generation: multigraphs drawn from the generative
process, population-mimicking spammer injection, and a ratings simulator.

All sampling uses the counter-based Philox generator with per-task
substreams spawned from (seed, task index), so a task's draws do not
depend on the tasks before it.  For a given numpy `Generator`
implementation, the ratings simulator writes the same bytes as a loop that
finishes each task before the next (tests/helpers.py holds that loop as
the oracle it is checked against).
"""

import math
import operator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .ingest import DIMENSION_SCALES, MISSING, AgreementMultigraph, ResponseTable, _codes, _offdiag, _recoded
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
        if self.n < 1:
            raise ValueError(f"task count must be at least 1, got {self.n}")
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
    fully unreliable and everyone sharing one regularity shape.  Requires
    m >= 1 and 0 <= spammer_count <= m."""
    if m < 1:
        raise ValueError(f"subject count must be at least 1, got {m}")
    if not 0 <= spammer_count <= m:
        raise ValueError(f"spammer count must lie in 0..{m} (the subject count), got {spammer_count}")
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

    task_ids, sizes, raters, flags = [], [], [], []
    for k in range(spec.n):
        rng = _task_rng(spec.seed, k)
        r = int(rng.integers(lo, hi + 1)) if hi > lo else lo
        members = rng.choice(spec.m, size=r, replace=False)
        order = np.argsort([p.subjects[i] for i in members])
        members = members[order]

        gates = rng.random(r) < p.tau[members]
        rates = rng.beta(p.alpha[members], p.beta[members])
        u = rng.random((r, r))
        prob = np.where(gates[None, :], rates[:, None], p.gamma)

        task_ids.append(f"t{k:05d}")
        sizes.append(r)
        raters.extend(p.subjects[i] for i in members)
        flags.append((u < prob)[_offdiag(r)])
    return AgreementMultigraph(task_ids, sizes, raters, np.concatenate(flags)), p


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
    task_codes = np.unique(table.task_code[rated])
    needed = spec.spammer_count * spec.tasks_per_spammer
    if needed > task_codes.size:
        raise ValueError(
            f"need {needed} distinct tasks for disjoint assignment, have {task_codes.size}"
        )
    existing = set(table.subject_index)
    injected_ids = [f"spammer_{j:03d}" for j in range(spec.spammer_count)]
    clash = [s for s in injected_ids if s in existing]
    if clash:
        raise ValueError(f"table already contains reserved id(s): {', '.join(clash)}")

    rng = _task_rng(spec.seed, 0)
    # Spammer j labels the tasks chosen[j * tasks_per_spammer:][:tasks_per_spammer].
    chosen = task_codes[rng.choice(task_codes.size, size=needed, replace=False)]
    ratings = pool[rng.integers(pool.size, size=needed)]
    # The spammers' rows carry only `dimension`, without timings.
    pad = np.full(needed, MISSING)
    scores = {d: np.concatenate((c, ratings if d == dimension else pad)) for d, c in table.scores.items()}
    # The table's codes carry over: the spammer ids join the subject index,
    # and the spammers label tasks the table already has.
    subject_index, remap = _codes(table.subject_index + injected_ids)
    new_table = ResponseTable(
        subject_index,
        np.concatenate((remap[table.subject_code], np.repeat(remap[-spec.spammer_count :], spec.tasks_per_spammer))),
        table.task_index,
        np.concatenate((table.task_code, chosen)),
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

    Task k draws from its own substream, in this order: the rater count
    (only for a (lo, hi) range), the raters, one gate double per rater;
    then per dimension the location, a normal per rater and a uniform
    scale value per rater; then, with timing, a (view, label) pair of
    doubles per rater.  Draws per rater follow the raters' sorted order.
    """
    if n < 1:
        raise ValueError(f"n (the task count) must be at least 1, got {n}")
    for name, value in (("rating_sigma", rating_sigma), ("bias_sigma", bias_sigma)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    lo_r, hi_r = _rater_range(raters_per_task, m)
    tau_true = np.full(m, 1.0) if tau_true is None else np.asarray(tau_true, dtype=float)
    if tau_true.shape != (m,):
        raise ValueError("tau_true must have one entry per subject")
    bad = np.flatnonzero(~((tau_true >= 0.0) & (tau_true <= 1.0)))
    if bad.size:
        raise ValueError(
            f"tau_true must be finite and in [0, 1], got {tau_true[bad[0]]} for subject {bad[0]}"
        )
    for dim in dimensions:
        if dim not in DIMENSION_SCALES:
            raise ValueError(f"dimensions: unknown dimension {dim!r}")
    if len(set(dimensions)) != len(dimensions):
        raise ValueError(f"dimensions must be distinct, got {tuple(dimensions)!r}")
    subjects = default_subject_ids(m)
    bias_rng = _task_rng(seed, 2**31)
    bias = bias_rng.normal(0.0, bias_sigma, size=m) if bias_sigma > 0 else np.zeros(m)
    scales = [DIMENSION_SCALES[dim] for dim in dimensions]

    # Draw every task's numbers, kept as drawn; all arithmetic comes after.
    sizes, drawn, gate_u, timing_u = [], [], [], []
    centers, noise, uniform = ([[] for _ in dimensions] for _ in range(3))
    for k in range(n):
        rng = _task_rng(seed, k)
        r = int(rng.integers(lo_r, hi_r + 1)) if hi_r > lo_r else lo_r
        sizes.append(r)
        drawn.append(rng.choice(m, size=r, replace=False))
        gate_u.append(rng.random(r))
        for d, (lo, hi) in enumerate(scales):
            centers[d].append(rng.uniform(lo, hi))
            noise[d].append(rng.normal(0.0, rating_sigma, size=r))
            uniform[d].append(rng.integers(int(lo), int(hi) + 1, size=r))
        if with_timing:
            timing_u.append(rng.random(2 * r))

    task_of = np.repeat(np.arange(n), sizes)
    members = np.concatenate(drawn)
    members = members[np.lexsort((members, task_of))]
    serious = np.concatenate(gate_u) < tau_true[members]
    scores = {}
    for d, (dim, (lo, hi)) in enumerate(zip(dimensions, scales)):
        center = np.repeat(centers[d], sizes)
        noisy = np.clip(np.rint(center + bias[members] + np.concatenate(noise[d])), lo, hi)
        scores[dim] = np.where(serious, noisy, np.concatenate(uniform[d]).astype(float))
    if with_timing:
        u = np.concatenate(timing_u).reshape(-1, 2)
        speed = np.where(serious, 1.0, 0.6)
        # Generator.uniform(low, high) computes low + (high - low) * u.
        view = (3.0 + (10.0 - 3.0) * u[:, 0]) * speed
        label = (5.0 + (20.0 - 5.0) * u[:, 1]) * speed
        # Python's round(v, 2) is correctly rounded; np.round can differ.
        view, label = (list(map(round, col.tolist(), repeat(2))) for col in (view, label))
    else:
        view = label = np.full(members.size, MISSING)
    # Coded through the sorted ids: past s9999 and t99999 they sort apart.
    sindex, scode = _codes(subjects)
    tindex, tcode = _codes([f"t{k:05d}" for k in range(n)])
    table = ResponseTable(*_recoded(sindex, scode[members]), tindex, tcode[task_of], scores, view, label)
    truth = dict(zip(subjects, tau_true.tolist()))
    return table, truth
