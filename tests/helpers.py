"""Shared builders and brute-force oracles used across the test suite.

Oracles here are written as plain loops, independent of the library's
vectorized paths, so they can serve as ground truth for closed-form and
exactness checks.
"""

import math

import numpy as np

from glba import model
from glba.ingest import MISSING, AgreementMultigraph, ResponseTable, TaskGraph, _codes, _ids_at
from glba.model import (
    EPS_POS,
    FitReport,
    ModelParams,
    Priors,
    R_CLAMP,
    _MAX_HALVINGS,
    _NEWTON_MAX_ITER,
    _NEWTON_TOL,
    _ab_residual,
    _bisect_ab,
)


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
    return graph_from_tasks(tasks)


def graph_from_tasks(tasks):
    """AgreementMultigraph from TaskGraph records, in any order, through the
    packed constructor: each task's off-diagonal indicators, row-major (the
    diagonal is not read)."""
    tasks = list(tasks)
    flags = [np.asarray(t.edges)[~np.eye(t.n_raters, dtype=bool)] for t in tasks]
    return AgreementMultigraph(
        [t.task_id for t in tasks],
        [t.n_raters for t in tasks],
        [s for t in tasks for s in t.subjects],
        np.concatenate(flags) if flags else [],
    )


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
    """ResponseTable from records (subject, task, scores_dict [, view,
    label]) through its constructor.  A dimension missing from a record's
    scores and a timing of None become MISSING; a NaN rating or timing
    raises ValueError naming the row (0-based)."""
    rows = [(*row, None, None)[:5] for row in rows]
    dims = list(dict.fromkeys(d for row in rows for d in row[2]))

    def column(name, values):
        nan = next((i for i, v in enumerate(values) if v is not None and v != v), None)
        if nan is not None:
            raise ValueError(f"row {nan}: NaN {name}")
        return [MISSING if v is None else v for v in values]

    return ResponseTable(
        *_codes([row[0] for row in rows]),
        *_codes([row[1] for row in rows]),
        {d: column(d, [row[2].get(d) for row in rows]) for d in dims},
        column("view_seconds", [row[3] for row in rows]),
        column("label_seconds", [row[4] for row in rows]),
    )


def assert_codes_ids(table, subject_ids, task_ids):
    """The indexes and codes of `table` (a ResponseTable or CategoricalTable)
    are `_codes` of its per-row ids, codes of the same dtype."""
    columns = [(table.subject_index, table.subject_code, subject_ids), (table.task_index, table.task_code, task_ids)]
    for index, code, ids in columns:
        expected_index, expected_code = _codes(ids)
        assert index == expected_index
        assert code.dtype == expected_code.dtype and code.tolist() == expected_code.tolist()


def rated_rows(table, dimension):
    """The records of `table` that carry a rating for `dimension`."""
    return [r for r in table.rows if r.scores.get(dimension) is not None]


def oracle_task_sums(task, weights, focal):
    """Weighted agreement sums of one subject within one task.

    Returns (omega, psi, omega_bar, psi_bar): omega is the weight-sum of
    the focal subject's agreeing neighbors, psi the weight-sum of all
    neighbors, and the barred versions are the same sums with weights
    1 - w.
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


def oracle_estep(task, params):
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


def oracle_estep_kernel(E, comp, t, a, b, gamma):
    """The E-step kernel as plain expressions, each on fresh arrays: the
    reference the library's in-place kernel must match byte for byte.
    Same arguments and returns as glba.model._estep_kernel."""
    omega = np.einsum("gij,gj->gi", E, t)
    disagree = np.einsum("gij,gj->gi", comp, t)
    a_t = a + omega
    b_t = b + disagree

    log_a = np.log(a_t)
    log_b = np.log(b_t)
    log_s = np.log(a_t + b_t)
    log_g = math.log(gamma)
    log_1g = math.log1p(-gamma)
    # Factor of neighbor i toward focal j: base + I_{i,j} * swing.
    base = log_b - log_s - log_1g
    swing = log_a - log_b - log_g + log_1g
    log_r = base.sum(axis=1, keepdims=True) - base + np.einsum("gi,gij->gj", swing, E)
    with np.errstate(over="ignore", under="ignore"):
        r = np.exp(log_r)
    r = np.clip(r, R_CLAMP[0], R_CLAMP[1])

    tau_t = r * t / (r * t + (1.0 - t))
    return a_t, b_t, tau_t


def oracle_gamma_ratio(multigraph, tau_tilde):
    """Numerator and denominator of the chance-rate update as a plain
    sequential loop: over every task and ordered rater pair (i, j != i),
    the weight 1 - tau~_j times E[i, j] and the weight alone.  `tau_tilde`
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
    return num, den


def oracle_objective_per_slot(graph, flat, dig, lam, params, priors):
    """The monitored objective with betaln(alpha_i, beta_i) evaluated once
    per slot, as plain expressions: the reference for the library's
    once-per-subject form.  Same arguments as glba.model._objective_flat."""
    from scipy.special import betaln, xlogy

    a_t, b_t, t_t = flat
    flat_sidx = graph.flat_sidx
    tau_i = params.tau[flat_sidx]
    alpha_i = params.alpha[flat_sidx]
    beta_i = params.beta[flat_sidx]

    dig_a, dig_b, dig_s = dig
    lam_a, lam_b = lam

    # Weighted neighbor sums evaluated at the gate posteriors.
    omega_tt = np.empty_like(t_t)
    psi_tt = np.empty_like(t_t)
    omega_bar = np.empty_like(t_t)
    psi_bar = np.empty_like(t_t)
    for (E, _comp), g in zip(graph.blocks, graph.groups):
        dest = g.dest
        tt = t_t[dest]
        om = np.einsum("gij,gj->gi", E, tt)
        om_b = np.einsum("gij,gj->gi", E, 1.0 - tt)
        ps = tt.sum(axis=1, keepdims=True) - tt
        ps_b = (tt.shape[1] - 1) - ps
        omega_tt[dest] = om
        psi_tt[dest] = ps
        omega_bar[dest] = om_b
        psi_bar[dest] = ps_b

    gates = np.sum(xlogy(t_t, tau_i) + xlogy(1.0 - t_t, 1.0 - tau_i))
    shapes = np.sum(
        (alpha_i - 1.0 + omega_tt) * lam_a
        + (beta_i - 1.0 + psi_tt - omega_tt) * lam_b
        - betaln(alpha_i, beta_i)
    )
    chance = math.log(params.gamma) * float(np.sum(omega_bar)) + math.log1p(
        -params.gamma
    ) * float(np.sum(psi_bar - omega_bar))

    prior = float(
        np.sum(xlogy(priors.tau0, params.tau) + xlogy(1.0 - priors.tau0, 1.0 - params.tau))
    )
    shape_sum = params.alpha + params.beta
    prior += float(np.sum(np.log(shape_sum) - shape_sum / priors.s0))

    ent_gate = -np.sum(xlogy(t_t, t_t) + xlogy(1.0 - t_t, 1.0 - t_t))
    ent_beta = np.sum(
        betaln(a_t, b_t)
        - (a_t - 1.0) * dig_a
        - (b_t - 1.0) * dig_b
        + (a_t + b_t - 2.0) * dig_s
    )
    return float(gates + shapes + chance + prior + ent_gate + ent_beta)


def oracle_mstep_residual(a, b, d, stats_ab, tau0, s0):
    """Residual of the shape stationarity system, from first principles."""
    from scipy.special import digamma

    s_a = sum(digamma(at) - digamma(at + bt) for at, bt in stats_ab)
    s_b = sum(digamma(bt) - digamma(at + bt) for at, bt in stats_ab)
    s = a + b
    h = 1.0 / s0 - 1.0 / s
    f_a = s_a - d * (digamma(a) - digamma(s)) - h
    f_b = s_b - d * (digamma(b) - digamma(s)) - h
    return f_a, f_b


# The Beta-shape solver as a loop that re-evaluates the residual at the top
# of every iteration and shrinks its working arrays at each exit: the
# reference model._solve_shapes must match bit for bit.
def oracle_solve_shapes(a0, b0, d, s_a, s_b, s0, tol=_NEWTON_TOL):
    """Solve the shape stationarity system for every subject at once.

    Every subject has d >= 1 tasks.  Newton iterates are damped (step
    halving on residual increase) and projected to stay >= EPS_POS;
    subjects where Newton stalls or fails within the iteration budget fall
    back to coordinate bisection.

    Returns (alpha, beta, fallback_mask).
    """
    from scipy.special import zeta

    m = len(d)
    a = np.clip(np.asarray(a0, dtype=float).copy(), EPS_POS, None)
    b = np.clip(np.asarray(b0, dtype=float).copy(), EPS_POS, None)
    fallback = np.zeros(m, dtype=bool)
    active = np.arange(m)

    for _ in range(_NEWTON_MAX_ITER):
        if active.size == 0:
            break
        aa, bb = a[active], b[active]
        f_a, f_b = _ab_residual(aa, bb, d[active], s_a[active], s_b[active], s0)
        res = np.maximum(np.abs(f_a), np.abs(f_b))
        done = res <= tol
        if done.any():
            active = active[~done]
            if active.size == 0:
                break
            aa, bb = a[active], b[active]
            f_a, f_b, res = f_a[~done], f_b[~done], res[~done]

        dd = d[active]
        ss = aa + bb
        # Trigamma is the Hurwitz zeta(2, x); polygamma(1, x) computes the
        # same value times exactly 1.0, plus a digamma it then discards.
        tri_s = zeta(2, ss)
        hp = 1.0 / (ss * ss)  # h'(alpha+beta)
        j_aa = -dd * (zeta(2, aa) - tri_s) - hp
        j_bb = -dd * (zeta(2, bb) - tri_s) - hp
        j_ab = dd * tri_s - hp
        det = j_aa * j_bb - j_ab * j_ab
        bad = ~np.isfinite(det) | (np.abs(det) < 1e-300)
        if bad.any():
            fallback[active[bad]] = True
            keep = ~bad
            active = active[keep]
            if active.size == 0:
                break
            aa, bb, f_a, f_b, res = aa[keep], bb[keep], f_a[keep], f_b[keep], res[keep]
            j_aa, j_bb, j_ab, det = j_aa[keep], j_bb[keep], j_ab[keep], det[keep]
            dd = d[active]

        step_a = (-f_a * j_bb + f_b * j_ab) / det
        step_b = (-f_b * j_aa + f_a * j_ab) / det

        scale = np.ones_like(step_a)
        stalled = np.ones(active.size, dtype=bool)
        for _halving in range(_MAX_HALVINGS + 1):
            ta = np.clip(aa + scale * step_a, EPS_POS, None)
            tb = np.clip(bb + scale * step_b, EPS_POS, None)
            tf_a, tf_b = _ab_residual(ta, tb, dd, s_a[active], s_b[active], s0)
            tres = np.maximum(np.abs(tf_a), np.abs(tf_b))
            worse = ~np.isfinite(tres) | (tres > res)
            accept = stalled & ~worse
            a[active[accept]] = ta[accept]
            b[active[accept]] = tb[accept]
            stalled &= worse
            if not stalled.any():
                break
            scale[stalled] *= 0.5
        if stalled.any():
            fallback[active[stalled]] = True
            active = active[~stalled]

    if active.size:
        # Newton budget exhausted: a subject whose last step met the residual
        # target keeps its root, the others fall back.
        f_a, f_b = _ab_residual(a[active], b[active], d[active], s_a[active], s_b[active], s0)
        fallback[active[~(np.maximum(np.abs(f_a), np.abs(f_b)) <= tol)]] = True

    for i in np.flatnonzero(fallback):
        a[i], b[i] = _bisect_ab(d[i], s_a[i], s_b[i], s0)
    return a, b, fallback


# The fit as one loop per chance rate, each rate fitted alone: model.fit_grid,
# which runs its fits in lockstep, must give the same report for every rate.
# The steps are looked up on the module at call time, so a test that patches
# one patches both drivers.
def oracle_fit(multigraph, config):
    """Variational EM fit at the single rate config.gamma, with its
    empirical-Bayes outer loop, one EM iteration after another."""
    if multigraph.n == 0:
        raise ValueError("multigraph has no tasks")
    gamma = config.gamma_value()

    pairs = model._pair_layout(multigraph) if config.update_gamma else None
    m = multigraph.m
    tau0, s0 = 0.5, 1.0

    trace = []
    round_starts = []
    fallback_ids = set()
    gamma_kept = 0
    total_iters = 0
    converged = False

    for _round in range(config.eb_max_rounds):
        round_starts.append(total_iters)
        priors = Priors(tau0=tau0, s0=s0)
        tau = np.ones(m)
        alpha = np.ones(m)
        beta = np.ones(m)
        converged = False
        for _it in range(config.max_iter):
            flat = model._e_step(multigraph, tau, alpha, beta, gamma)
            dig, lam = model._digammas(flat[0], flat[1])
            new_tau, s_a, s_b = model._m_sums(multigraph, flat[2], lam, priors)
            new_alpha, new_beta, fb = model._solve_shapes(
                alpha, beta, multigraph.degree, s_a, s_b, priors.s0
            )
            if fb.any():
                fallback_ids.update(multigraph.subjects[i] for i in np.flatnonzero(fb))

            if config.update_gamma:
                num, den = model._gamma_sums(pairs, flat[2])
                gamma_kept += int(den <= 0.0)
                gamma = model._gamma_from_sums(num, den, gamma)

            delta = max(
                float(np.max(np.abs(new_tau - tau))),
                float(np.max(np.abs(new_alpha - alpha))),
                float(np.max(np.abs(new_beta - beta))),
            )
            tau, alpha, beta = new_tau, new_alpha, new_beta
            total_iters += 1
            if not (
                np.all(np.isfinite(tau))
                and np.all(np.isfinite(alpha))
                and np.all(np.isfinite(beta))
            ):
                raise RuntimeError(f"non-finite parameters at EM iteration {total_iters}")

            if config.trace:
                params = ModelParams(
                    subjects=multigraph.subjects, tau=tau, alpha=alpha, beta=beta, gamma=gamma
                )
                trace.append(model._objective_flat(multigraph, flat, dig, lam, params, priors))

            if delta < config.tol:
                converged = True
                break

        new_tau0 = float(np.mean(tau))
        new_s0 = float(np.mean(alpha + beta) / 2.0)
        if max(abs(new_tau0 - tau0), abs(new_s0 - s0)) < config.eb_tol:
            break
        tau0, s0 = new_tau0, new_s0

    params = ModelParams(
        subjects=multigraph.subjects, tau=tau, alpha=alpha, beta=beta, gamma=gamma
    )
    return FitReport(
        params=params,
        priors=priors,
        iterations=total_iters,
        converged=converged,
        loglik_trace=trace,
        round_starts=round_starts,
        fallback_subjects=sorted(fallback_ids),
        gamma_kept_count=gamma_kept,
    )


def _ds_task_labels(table):
    """The sorted subjects of a CategoricalTable and, per task in task
    order, its labels as (subject position, category) in subject order."""
    sids, tids = _ids_at(table.subject_index, table.subject_code), _ids_at(table.task_index, table.task_code)
    if not sids:
        raise ValueError("empty categorical table")
    subjects = sorted(set(sids))
    s_pos = {s: i for i, s in enumerate(subjects)}
    task_labels = {}
    for s, t, cat in sorted(zip(sids, tids, table.categories.tolist()), key=lambda x: (x[1], x[0])):
        task_labels.setdefault(t, []).append((s_pos[s], cat))
    return subjects, {t: task_labels[t] for t in sorted(task_labels)}


def _ds_task_probs(prior, confusion, labels):
    """One task's unnormalized class probabilities: the prior times each
    label's confusion column, labels in subject order."""
    probs = prior.copy()
    for sp, cat in labels:
        probs = probs * confusion[sp][:, cat]
    return probs


# Dawid-Skene EM as plain per-task loops: the reference that
# glba.baselines.dawid_skene_fit must match bit for bit.  The fit keeps no
# log-likelihood; ds_penalized_loglik evaluates it on a fitted model, and the
# ascent test reads it off fits capped at 1, 2, ... iterations.
def oracle_dawid_skene(table, max_iter=100, tol=1e-6):
    """Dawid-Skene EM as plain per-task loops over the labels in subject
    order.  Same contract as `glba.baselines.dawid_skene_fit`."""
    from glba.baselines import CATEGORIES, CONFUSION_SMOOTHING, DawidSkeneModel

    k = len(CATEGORIES)
    subjects, task_labels = _ds_task_labels(table)
    task_ids = list(task_labels)

    posterior = {}
    for t, labels in task_labels.items():
        counts = np.zeros(k)
        for _s, cat in labels:
            counts[cat] += 1
        top = counts == counts.max()
        posterior[t] = top / top.sum()

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
            probs = _ds_task_probs(prior, confusion, labels)
            total = float(probs.sum())
            probs = probs / total if total > 0 else np.full(k, 1.0 / k)
            delta = max(delta, float(np.max(np.abs(probs - posterior[t]))))
            posterior[t] = probs

        iterations += 1
        if delta < tol:
            converged = True
            break

    return DawidSkeneModel(
        class_prior=prior,
        confusion=dict(zip(subjects, confusion)),
        task_posterior={t: posterior[t] for t in task_ids},
        iterations=iterations,
        converged=converged,
    )


def ds_penalized_loglik(table, model):
    """The observed-data log-likelihood of `table` under a Dawid-Skene
    model's class prior and confusions, plus the smoothing pseudo-count
    prior (CONFUSION_SMOOTHING times the sum of every log confusion entry):
    the quantity the smoothed EM ascends.  Tasks add in task order, each
    task's labels multiply in subject order."""
    from glba.baselines import CONFUSION_SMOOTHING

    subjects, task_labels = _ds_task_labels(table)
    confusion = [model.confusion[s] for s in subjects]
    ll = 0.0
    for labels in task_labels.values():
        ll += math.log(max(float(_ds_task_probs(model.class_prior, confusion, labels).sum()), 1e-300))
    return ll + CONFUSION_SMOOTHING * float(sum(np.log(cm).sum() for cm in confusion))


def oracle_dawid_skene_rank(model):
    """Subjects ordered by the mean diagonal of their confusion matrix,
    one subject at a time, ties by id."""
    scored = [(s, float(np.mean(np.diag(cm)))) for s, cm in model.confusion.items()]
    scored.sort(key=lambda x: (x[1], x[0]))
    return scored


def oracle_bin(value):
    """A rating binned to one decimal, as the percentile rule reads it."""
    return round(float(value), 1)


def oracle_percentile_table(pool):
    """{v: (P(v), P(v+))} for each distinct value v of the binned `pool`,
    counted by hand: P(v) is the fraction of the pool at or below v, and v+
    the next value observed in the pool (P(v+) = 1.0 for the top one)."""
    counts = {}
    for v in pool:
        counts[v] = counts.get(v, 0) + 1
    support = sorted(counts)
    cum, below = {}, 0
    for v in support:
        below += counts[v]
        cum[v] = below / len(pool)
    after = [cum[w] for w in support[1:]] + [1.0]
    return {v: (cum[v], a) for v, a in zip(support, after)}


def oracle_agree(a, b, table, delta):
    """The percentile rule for two binned ratings over an
    `oracle_percentile_table`: 1 iff 0.5 |P(a) - P(b)| + 0.5 |P(a+) - P(b+)|
    <= delta."""
    (pa, pa_next), (pb, pb_next) = table[a], table[b]
    return int(0.5 * abs(pa - pb) + 0.5 * abs(pa_next - pb_next) <= delta)


def oracle_build_multigraph(table, dimension, delta=0.2, min_raters=4):
    """The agreement multigraph as a per-task, per-pair loop of
    `oracle_agree` calls over a dict-based percentile table.  Same contract
    as `glba.ingest.build_multigraph`."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    by_task = {}
    for r in rated_rows(table, dimension):
        by_task.setdefault(r.task_id, []).append(r)
    retained = {tid: rs for tid, rs in by_task.items() if len(rs) >= min_raters}
    pool = [oracle_bin(r.scores[dimension]) for rs in retained.values() for r in rs]
    ptable = oracle_percentile_table(pool)

    tasks = []
    for tid in sorted(retained):
        rs = sorted(retained[tid], key=lambda r: r.subject_id)
        ratings = [oracle_bin(r.scores[dimension]) for r in rs]
        k = len(rs)
        edges = np.zeros((k, k), dtype=np.uint8)
        for a in range(k):
            for b in range(k):
                if a != b:
                    edges[a, b] = oracle_agree(ratings[a], ratings[b], ptable, delta)
        tasks.append(TaskGraph(task_id=tid, subjects=[r.subject_id for r in rs], edges=edges))
    return graph_from_tasks(tasks)


def oracle_task_layout(table, dimension, min_raters):
    """TaskLayout from a dict of each task's rated records, its raters
    sorted by id (ties in table order).  Same contract as
    `glba.ingest._task_layout` for a `min_raters` of at least 1."""
    from glba.ingest import TaskLayout

    by_task = {}
    for row in rated_rows(table, dimension):
        by_task.setdefault(row.task_id, []).append(row)
    subjects = sorted({row.subject_id for rows in by_task.values() for row in rows})
    code = {s: i for i, s in enumerate(subjects)}
    kept = [sorted(rows, key=lambda r: r.subject_id) for _, rows in sorted(by_task.items())]
    kept = [rows for rows in kept if len(rows) >= min_raters]
    slots = [row for rows in kept for row in rows]
    return TaskLayout(
        task_ids=[rows[0].task_id for rows in kept],
        offsets=np.cumsum([0] + [len(rows) for rows in kept]),
        subjects=subjects,
        scode=np.array([code[row.subject_id] for row in slots], dtype=np.intp),
        ratings=np.array([row.scores[dimension] for row in slots], dtype=float),
        n_tasks=len(by_task),
    )


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


def image_columns(reports):
    """ImageScores whose list columns hold the ImageReport records
    `reports`, in order."""
    from dataclasses import fields

    from glba.scoring import ImageScores

    return ImageScores(*([getattr(r, f.name) for r in reports] for f in fields(ImageScores)))


def oracle_write_table(path, columns, rows, head=()):
    """A report table written row by row through one % template.  Same
    bytes as `glba.textio._write_table` given the rows' columns."""
    from glba.textio import _FORMS

    template = "\t".join(_FORMS[parse][0] for parse in columns.values()) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {key} {value}\n" for key, value in head)
        fh.write("\t".join(columns) + "\n")
        fh.writelines(map(template.__mod__, rows))


def oracle_pair_indicators(task):
    """Indicators of a task as one character per ordered pair (i, j),
    i != j, row-major."""
    r = task.n_raters
    return "".join(str(int(task.edges[i, j])) for i in range(r) for j in range(r) if i != j)


def oracle_read_multigraph(path):
    """The multigraph reader as loops over the lines: the table checks row
    by row, then the indicator checks row by row, then each record parsed
    into a TaskGraph and packed by `graph_from_tasks`, then the counts of
    the '# multigraph' line.  Same contract, graphs and error strings as
    `glba.textio.read_multigraph`."""
    header = "task_id\tsubjects\tindicators"
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    rows, stated = [], []
    for lineno, ln in enumerate(lines, start=1):
        if ln.startswith("#"):
            key, _, value = ln[1:].strip().partition(" ")
            if key == "multigraph":
                stated = [f for f in value.split() if f.startswith(("tasks=", "subjects="))]
        elif ln.strip():
            rows.append((lineno, ln))
    if not rows:
        raise ValueError(f"{path}: empty file, expected a header row")
    (head_no, head), records = rows[0], rows[1:]
    if head != header:
        raise ValueError(f"{path}:{head_no}: header is not {header!r}")
    seen = set()
    for lineno, ln in records:
        fields = ln.split("\t")
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
        tid = fields[0]
        if not tid or tid in seen:
            raise ValueError(f"{path}:{lineno}: empty or duplicate task_id {tid!r}")
        seen.add(tid)
        if "," in tid:
            raise ValueError(f"{path}:{lineno}: task_id {tid!r} holds a tab, comma, CR or LF")
        if tid != tid.strip():
            raise ValueError(f"{path}:{lineno}: task_id {tid!r} has surrounding whitespace")
    tasks = []
    for lineno, ln in records:
        tid, subj_field, ind = ln.split("\t")
        subjects = subj_field.split(",")
        r = len(subjects)
        if len(ind) != r * (r - 1):
            raise ValueError(f"{path}:{lineno}: task {tid!r} has {len(ind)} indicators, expected {r * (r - 1)}")
        if any(c not in "01" for c in ind):
            raise ValueError(f"{path}:{lineno}: task {tid!r} has an indicator other than 0 or 1")
        edges = np.zeros((r, r), dtype=np.uint8)
        edges[~np.eye(r, dtype=bool)] = [int(c) for c in ind]
        tasks.append(TaskGraph(task_id=tid, subjects=subjects, edges=edges))
    try:
        graph = graph_from_tasks(tasks)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    held = [f"tasks={graph.n}", f"subjects={graph.m}"]
    if any(f not in held for f in stated):
        raise ValueError(f"{path}: header states {' '.join(stated)}, file holds {' '.join(held)}")
    return graph


def oracle_load_responses(path):
    """The rating-file loader over csv.DictReader with per-row closures.
    Same contract, rows and error strings as `glba.ingest.load_responses`
    (which reads the whole file before it checks the header, so on a file
    with both a missing column and a record csv rejects, only it names
    the record)."""
    import csv

    from glba.ingest import DIMENSION_SCALES, DIMENSIONS

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None:
                raise ValueError(f"{path}: empty file (no header row)")
            header = set(reader.fieldnames)
            required = ["subject_id", "task_id"] + list(DIMENSIONS)
            missing = [c for c in required if c not in header]
            if missing:
                raise ValueError(f"{path}: missing required column(s): {', '.join(missing)}")
            has_view = "view_seconds" in header
            has_label = "label_seconds" in header

            rows = []
            problems = []
            seen = {}
            for lineno, rec in enumerate(reader, start=2):  # header is line 1
                sid = (rec["subject_id"] or "").strip()
                tid = (rec["task_id"] or "").strip()
                if not sid or not tid:
                    problems.append(f"row {lineno}: empty subject_id or task_id")
                    continue
                bad_id = [c for c in "\t,\r\n" if c in sid + tid]
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
                    raw = (rec.get(dim) or "").strip()
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
                    raw = (rec.get(name) or "").strip()
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

                rows.append((sid, tid, scores, seconds("view_seconds", has_view), seconds("label_seconds", has_label)))
        except csv.Error as exc:
            # DictReader.line_num is only updated once a row is returned.
            raise ValueError(f"{path}: line {reader.reader.line_num}: {exc}") from None

    if problems:
        shown = "; ".join(problems[:20])
        more = f" (+{len(problems) - 20} more)" if len(problems) > 20 else ""
        raise ValueError(f"{path}: {shown}{more}")
    return table_from_rows(rows)


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


def categorize(score, neutral, threshold=0.5):
    """Threshold an ordinal rating into low / neutral / high.

    Strictly more than `threshold` above the neutral point is high,
    strictly more than `threshold` below is low.  `threshold` must be
    finite and non-negative.
    """
    from glba.baselines import _check_nonnegative

    _check_nonnegative("threshold", threshold)
    if score > neutral + threshold:
        return "high"
    if score < neutral - threshold:
        return "low"
    return "neutral"


def oracle_categorize_table(table, dimension, threshold=0.5):
    """Categorical labels as one scalar `categorize` call per record.  Same
    contract as `glba.baselines.categorize_table`."""
    from glba.baselines import CATEGORIES, NEUTRAL_POINT, CategoricalTable, _check_nonnegative

    _check_nonnegative("threshold", threshold)
    if dimension not in NEUTRAL_POINT:
        raise ValueError(f"unknown dimension {dimension!r}")
    neutral = NEUTRAL_POINT[dimension]
    rows = rated_rows(table, dimension)
    return CategoricalTable(
        *_codes([r.subject_id for r in rows]),
        *_codes([r.task_id for r in rows]),
        [CATEGORIES.index(categorize(r.scores[dimension], neutral, threshold)) for r in rows],
    )


def oracle_sample_multigraph(spec):
    """The generative sampler as a loop that builds one TaskGraph per task
    and packs them with `graph_from_tasks`.  Same draws, in the same order,
    and same contract as `glba.simulate.sample_multigraph`."""
    from glba.simulate import _rater_range, _task_rng

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
    return graph_from_tasks(tasks), p


def oracle_inject_spammers(table, dimension, spec):
    """Spammer injection drawing one scalar rating per (spammer, task) in a
    nested loop.  Same draws, in the same order, as
    `glba.simulate.inject_spammers`, for arguments that function accepts."""
    from glba.simulate import _task_rng

    rated = table.rated(dimension)
    pool = table.ratings(dimension)[rated]
    task_ids = [table.task_index[t] for t in np.unique(table.task_code[rated]).tolist()]
    needed = spec.spammer_count * spec.tasks_per_spammer
    injected_ids = [f"spammer_{j:03d}" for j in range(spec.spammer_count)]
    rng = _task_rng(spec.seed, 0)
    chosen = rng.choice(len(task_ids), size=needed, replace=False)
    sids, tids, ratings = [], [], []
    for j, sid in enumerate(injected_ids):
        block = chosen[j * spec.tasks_per_spammer : (j + 1) * spec.tasks_per_spammer]
        for t_idx in block:
            sids.append(sid)
            tids.append(task_ids[t_idx])
            ratings.append(float(pool[rng.integers(pool.size)]))
    pad = np.full(needed, MISSING)
    scores = {d: np.concatenate((c, ratings if d == dimension else pad)) for d, c in table.scores.items()}
    new_table = ResponseTable(
        *_codes(_ids_at(table.subject_index, table.subject_code) + sids),
        *_codes(_ids_at(table.task_index, table.task_code) + tids),
        scores,
        np.concatenate((table.view_seconds, pad)),
        np.concatenate((table.label_seconds, pad)),
    )
    return new_table, injected_ids


def oracle_sample_response_table(
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
    """The ratings simulator as a loop over tasks that finishes each task's
    rows (and draws each rater's two timings with scalar calls) before the
    next task.  Same draws, in the same order, as
    `glba.simulate.sample_response_table`, for arguments that function
    accepts."""
    from glba.ingest import DIMENSION_SCALES
    from glba.simulate import _rater_range, _task_rng, default_subject_ids

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
    table = ResponseTable(*_codes(sids), *_codes(tids), scores, view, label)
    truth = {subjects[i]: float(tau_true[i]) for i in range(m)}
    return table, truth


def oracle_overhead_curve(table, dimension, reports, mode, thresholds=None):
    """Labels removed per threshold from a Counter over the records.  Same
    contract as `glba.scoring.overhead_curve`: SubjectReport records, or
    image scores read by their task_id and confidence columns."""
    from collections import Counter

    if mode not in ("subject-filter", "image-filter"):
        raise ValueError(f"unknown overhead mode {mode!r}")
    if thresholds is None:
        thresholds = [round(0.05 * i, 2) for i in range(21)]
    if mode == "subject-filter":
        key, score_of = "subject_id", {r.subject_id: r.tau_mean for r in reports}
    else:
        key, score_of = "task_id", dict(zip(reports.task_id, reports.confidence))
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
