"""Joint reliability/regularity model over agreement multigraphs.

Each subject i carries a reliability rate tau_i (probability of answering
seriously) and Beta-shape regularity parameters (alpha_i, beta_i) for how
often a serious answer agrees with other serious answers.  A global rate
gamma governs agreement by pure chance.  Per task, a latent gate decides
whether a subject answered seriously; agreement indicators are Bernoulli
draws from either the subject-specific agreement rate or from gamma.

Estimation is variational EM: the E-step computes per-task posterior
statistics in closed form (with a geometric-mean approximation for the
gate odds ratio), and the M-step re-estimates each subject's parameters
(projected damped Newton-Raphson for the Beta shapes, exact closed forms
for tau and gamma).  An outer empirical-Bayes loop re-centers the priors
on the population means.
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaln, digamma, xlogy, zeta

# Positivity floor for Beta shape parameters.
EPS_POS = 1e-6

# Gate odds ratios are clamped to this range after the log-space product.
R_CLAMP = (1e-12, 1e12)

GAMMA_CLAMP = (0.01, 0.49)

_NEWTON_MAX_ITER = 100
_NEWTON_TOL = 1e-8
_MAX_HALVINGS = 20

DEFAULT_GAMMA_GRID = tuple(float(g) for g in np.linspace(0.3, 0.48, 10))


def gamma_grid(lo, hi, count):
    """Evenly spaced chance-agreement rates over [lo, hi], inclusive."""
    if count < 1:
        raise ValueError("grid needs at least one point")
    return [float(g) for g in np.linspace(lo, hi, count)]


@dataclass
class ModelParams:
    """Per-subject (tau, alpha, beta) plus the global chance rate gamma."""

    subjects: list
    tau: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: float
    position: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        self.position = {s: i for i, s in enumerate(self.subjects)}

    def validate(self):
        m = len(self.subjects)
        if not (self.tau.shape == self.alpha.shape == self.beta.shape == (m,)):
            raise ValueError("parameter arrays must align with the subject list")
        if not np.all((self.tau >= 0) & (self.tau <= 1)):  # NaN fails every range test
            raise ValueError("tau must lie in [0, 1]")
        a, b = self.alpha, self.beta
        if not np.all((np.minimum(a, b) >= EPS_POS) & np.isfinite(a + b)):
            raise ValueError(f"alpha and beta must be finite and >= {EPS_POS}")
        if not (0.0 < self.gamma < 0.5):
            raise ValueError("gamma must lie in (0, 0.5)")
        return self

    def tau_of(self, subject):
        return float(self.tau[self.position[subject]])

    def tau_map(self):
        return {s: float(self.tau[i]) for i, s in enumerate(self.subjects)}


@dataclass
class Priors:
    """Mean reliability tau0 and Gamma scale s0 for the shape-sum prior."""

    tau0: float = 0.5
    s0: float = 1.0

    def validate(self):
        if not (0.0 < self.tau0 < 1.0):
            raise ValueError("tau0 must lie in (0, 1)")
        if not (0.0 < self.s0 < math.inf):
            raise ValueError("s0 must be a finite positive number")
        return self


@dataclass(frozen=True)  # checked once, in __post_init__
class FitConfig:
    gamma: object = 0.37  # float, or a sequence of floats for fit_grid
    update_gamma: bool = False
    tol: float = 1e-6
    max_iter: int = 500
    eb_tol: float = 1e-4
    eb_max_rounds: int = 20
    prior_grad_mode: str = "gamma-map"  # or "paper-literal"
    psi_includes_self: bool = False
    # Record the monitored objective per iteration in FitReport.loglik_trace.
    # It never changes the fit; off, each iteration skips its evaluation.
    trace: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be a finite number > 0, got {self.tol!r}")
        if not (math.isfinite(self.eb_tol) and self.eb_tol >= 0):
            raise ValueError(f"eb_tol must be a finite number >= 0, got {self.eb_tol!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.eb_max_rounds < 1:
            raise ValueError("eb_max_rounds must be at least 1")
        _check_mode(self.prior_grad_mode)
        grid = [self.gamma] if isinstance(self.gamma, (int, float)) else list(self.gamma)
        if not grid:
            raise ValueError("gamma grid is empty")
        for g in grid:
            # NaN and the infinities fail the range test.
            if not (isinstance(g, numbers.Real) and 0.0 < g < 0.5):
                raise ValueError(f"gamma must be a finite number in (0, 0.5), got {g!r}")

    def gamma_value(self):
        if not isinstance(self.gamma, (int, float)):
            raise ValueError("config.gamma is a grid; use fit_grid for grids")
        return float(self.gamma)


def _check_mode(mode):
    if mode not in ("gamma-map", "paper-literal"):
        raise ValueError(f"unknown prior_grad_mode {mode!r}")


@dataclass
class FitReport:
    params: ModelParams
    priors: Priors  # the priors of the last round, which fitted `params`
    iterations: int
    converged: bool
    loglik_trace: list
    round_starts: list = field(default_factory=list)
    fallback_subjects: list = field(default_factory=list)
    gamma_kept_count: int = 0


# ---------------------------------------------------------------------------
# The EM steps read and write flat per-slot arrays: task k's raters are the
# slots offsets[k]:offsets[k+1] of the multigraph, in its subject-list order.
# ---------------------------------------------------------------------------


def _checked(multigraph, params):
    """`params`, validated and checked to cover the multigraph's subjects."""
    if list(params.subjects) != multigraph.subjects:
        raise ValueError("params must list the multigraph's subjects, in its order")
    return params.validate()


def _flat(multigraph, arrays):
    """The flat statistics as float arrays, each checked to hold one value
    per slot."""
    slots = int(multigraph.offsets[-1])
    arrays = tuple(np.asarray(x, dtype=float) for x in arrays)
    if any(x.shape != (slots,) for x in arrays):
        raise ValueError(f"flat statistics must hold one value per slot ({slots})")
    return arrays


def _digammas(a_t, b_t):
    """digamma of alpha~, beta~ and alpha~ + beta~ over the flat layout,
    and the expected log agreement rates (dig_a - dig_s, dig_b - dig_s)."""
    dig = digamma(a_t), digamma(b_t), digamma(a_t + b_t)
    return dig, (dig[0] - dig[2], dig[1] - dig[2])


# ---------------------------------------------------------------------------
# E-step: closed-form posterior statistics per task
# ---------------------------------------------------------------------------


def _estep_kernel(E, comp, t, a, b, gamma, include_self):
    """Closed-form posterior statistics for a batch of same-size tasks.

    E: (G, r, r) indicators with zero diagonal, comp its complement;
    t/a/b: (G, r) parameter values of the raters.  Returns
    (alpha_tilde, beta_tilde, tau_tilde).  Agreement and disagreement
    masses are accumulated separately so the tilde statistics never fall
    below the base parameters, not even by rounding.
    """
    omega = np.einsum("gij,gj->gi", E, t)
    disagree = np.einsum("gij,gj->gi", comp, t)
    a_t = a + omega
    b_t = b + disagree + (t if include_self else 0.0)

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


def _e_step(graph, tau, alpha, beta, gamma, include_self):
    a_t, b_t, t_t = (np.empty(graph.offsets[-1]) for _ in range(3))
    for (E, comp), g in zip(graph.blocks, graph.groups):
        a_t[g.dest], b_t[g.dest], t_t[g.dest] = _estep_kernel(
            E, comp, tau[g.sidx], alpha[g.sidx], beta[g.sidx], gamma, include_self
        )
    return a_t, b_t, t_t


def e_step(multigraph, params, include_self=False):
    """Flat posterior statistics (alpha~, beta~, tau~) of every slot.

    `params` must list multigraph.subjects in order.  With include_self,
    a rater's own tau counts toward its beta~ (the literal printed form).
    """
    _checked(multigraph, params)
    return _e_step(multigraph, params.tau, params.alpha, params.beta, params.gamma, include_self)


# ---------------------------------------------------------------------------
# M-step: Beta shapes by projected damped Newton, tau in closed form
# ---------------------------------------------------------------------------


def _prior_term(s, s0, mode):
    """Left-hand side h(alpha+beta) of the shape stationarity system."""
    if mode == "paper-literal":
        return s / s0 - np.log(s)
    return 1.0 / s0 - 1.0 / s


def _prior_term_deriv(s, s0, mode):
    if mode == "paper-literal":
        return 1.0 / s0 - 1.0 / s
    return 1.0 / (s * s)


def _ab_residual(a, b, d, s_a, s_b, s0, mode):
    s = a + b
    dig_s = digamma(s)
    h = _prior_term(s, s0, mode)
    f_a = s_a - d * (digamma(a) - dig_s) - h
    f_b = s_b - d * (digamma(b) - dig_s) - h
    return f_a, f_b


def _bisect_coord(f, lo=EPS_POS, hi0=1.0, steps=200):
    """Root of a scalar function by bracket expansion + bisection."""
    flo = f(lo)
    if not np.isfinite(flo) or flo <= 0.0:
        return lo
    hi = max(hi0, 2 * lo)
    fhi = f(hi)
    while fhi > 0.0 and hi < 1e12:
        hi *= 4.0
        fhi = f(hi)
    if fhi > 0.0:
        return hi
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisect_ab(d, s_a, s_b, s0, mode, tol=_NEWTON_TOL, sweeps=200):
    """Alternating coordinate bisection; each coordinate map is monotone."""
    a, b = 1.0, 1.0
    for _ in range(sweeps):
        a = _bisect_coord(lambda x: _ab_residual(x, b, d, s_a, s_b, s0, mode)[0])
        b = _bisect_coord(lambda x: _ab_residual(a, x, d, s_a, s_b, s0, mode)[1])
        f_a, f_b = _ab_residual(a, b, d, s_a, s_b, s0, mode)
        if max(abs(f_a), abs(f_b)) <= tol:
            break
    return a, b


def _solve_shapes(a0, b0, d, s_a, s_b, s0, mode, tol=_NEWTON_TOL):
    """Solve the shape stationarity system for every subject at once.

    Every subject has d >= 1 tasks.  Newton iterates are damped (step
    halving on residual increase) and projected to stay >= EPS_POS;
    subjects where Newton stalls or fails within the iteration budget fall
    back to coordinate bisection.

    Returns (alpha, beta, fallback_mask).
    """
    m = len(d)
    a = np.clip(np.asarray(a0, dtype=float).copy(), EPS_POS, None)
    b = np.clip(np.asarray(b0, dtype=float).copy(), EPS_POS, None)
    fallback = np.zeros(m, dtype=bool)
    active = np.arange(m)

    for _ in range(_NEWTON_MAX_ITER):
        if active.size == 0:
            break
        aa, bb = a[active], b[active]
        f_a, f_b = _ab_residual(aa, bb, d[active], s_a[active], s_b[active], s0, mode)
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
        hp = _prior_term_deriv(ss, s0, mode)
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
            tf_a, tf_b = _ab_residual(ta, tb, dd, s_a[active], s_b[active], s0, mode)
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
        # Newton budget exhausted without reaching the residual target.
        fallback[active] = True

    for i in np.flatnonzero(fallback):
        a[i], b[i] = _bisect_ab(d[i], s_a[i], s_b[i], s0, mode)
    return a, b, fallback


def _m_step(graph, t_t, lam, alpha, beta, priors, mode):
    """(tau, alpha, beta, fallback) per subject from the flat gate
    posteriors t_t and expected log agreement rates lam; Newton starts at
    (alpha, beta)."""
    flat_sidx, degree, m = graph.flat_sidx, graph.degree, graph.m
    # bincount adds the weights in flat (task-major) order.
    s_a = np.bincount(flat_sidx, weights=lam[0], minlength=m)
    s_b = np.bincount(flat_sidx, weights=lam[1], minlength=m)
    tau_acc = np.bincount(flat_sidx, weights=t_t, minlength=m)
    tau = (priors.tau0 + tau_acc) / (degree + 1.0)
    alpha, beta, fallback = _solve_shapes(alpha, beta, degree, s_a, s_b, priors.s0, mode)
    return tau, alpha, beta, fallback


def m_step(multigraph, stats, params, priors, prior_grad_mode="gamma-map"):
    """Per-subject (tau, alpha, beta, fallback) from e_step's flat stats.

    Newton starts at params' shapes; `fallback` marks the subjects whose
    shapes came from the bisection fallback.
    """
    _check_mode(prior_grad_mode)
    _checked(multigraph, params)
    priors.validate()
    a_t, b_t, t_t = _flat(multigraph, stats)
    lam = _digammas(a_t, b_t)[1]
    return _m_step(multigraph, t_t, lam, params.alpha, params.beta, priors, prior_grad_mode)


# ---------------------------------------------------------------------------
# gamma update
# ---------------------------------------------------------------------------


def _gamma_from_sums(num, den, previous):
    """Closed-form chance rate num/den clamped to GAMMA_CLAMP; a zero
    denominator (all gates confidently open) keeps `previous`."""
    if den <= 0.0:
        return float(previous)
    return float(np.clip(num / den, GAMMA_CLAMP[0], GAMMA_CLAMP[1]))


def _pair_layout(graph, include_self):
    """Flat neighbour index j and indicator E[i, j] of every ordered pair
    (i, j != i), ordered task-major, then by i, then by j.  With
    include_self, a self pair (i, i) with indicator 0 closes row i.
    """
    fi, rank, fj, e = [], [], [], []
    for g in graph.groups:
        r = g.edges.shape[1]
        ii, jj = np.nonzero(~np.eye(r, dtype=bool) | include_self)
        fi.append(g.dest[:, ii].ravel())
        rank.append(np.tile(np.where(ii == jj, r, jj), len(g.dest)))
        fj.append(g.dest[:, jj].ravel())
        e.append((g.edges[:, ii, jj] * (ii != jj)).ravel())
    fi, rank, fj, e = map(np.concatenate, (fi, rank, fj, e))
    order = np.lexsort((rank, fi))
    return fj[order], e[order]


def _gamma_sums(pairs, t_t):
    """Numerator and denominator of the chance-rate update: over every
    ordered pair (i, j) of `pairs` (a _pair_layout), the weight 1 - tau~_j
    times E[i, j], and the weight alone.  cumsum adds in sequence, so both
    equal the plain loop's sums bit for bit (np.sum adds pairwise and would
    not).
    """
    pair_j, pair_e = pairs
    if pair_j.size == 0:
        return 0.0, 0.0
    w = (1.0 - t_t)[pair_j]
    return float(np.cumsum(w * pair_e)[-1]), float(np.cumsum(w)[-1])


def update_gamma(multigraph, tau_tilde, previous, include_self=False):
    """Closed-form chance-agreement rate from the flat gate posteriors
    tau~, clamped to GAMMA_CLAMP.  A zero denominator (all gates
    confidently open) keeps `previous`.
    """
    (t_t,) = _flat(multigraph, [tau_tilde])
    return _gamma_from_sums(*_gamma_sums(_pair_layout(multigraph, include_self), t_t), previous)


# ---------------------------------------------------------------------------
# Monitored objective
# ---------------------------------------------------------------------------


def _objective_flat(graph, flat, dig, lam, params, priors, include_self):
    """Variational objective: expected complete-data log posterior plus
    the entropy of the factorized posterior.

    `dig, lam` are `_digammas(alpha~, beta~)` of the flat statistics.

    The prior enters in pseudo-count form (exponents tau0 and 1 - tau0 on
    tau, and the shape-sum Gamma kernel), which is exactly the form whose
    stationary points the M-step updates solve; the trace is therefore a
    proper ascent monitor for the default configuration.
    """
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
        if include_self:
            ps = np.broadcast_to(tt.sum(axis=1, keepdims=True), tt.shape)
        else:
            ps = tt.sum(axis=1, keepdims=True) - tt
        r = tt.shape[1]
        ps_b = (r if include_self else r - 1) - ps
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


def log_posterior(params, priors, multigraph, stats, include_self=False):
    """Monitored variational objective at e_step's flat `stats`.

    Normally read off FitReport.loglik_trace; exposed for direct
    evaluation.
    """
    _checked(multigraph, params)
    priors.validate()
    flat = _flat(multigraph, stats)
    dig, lam = _digammas(flat[0], flat[1])
    return _objective_flat(multigraph, flat, dig, lam, params, priors, include_self)


# ---------------------------------------------------------------------------
# Fit driver
# ---------------------------------------------------------------------------


def fit(multigraph, config=None):
    """Variational EM fit of the reliability model on one multigraph.

    Starts from tau0 = 0.5, tau_i = alpha_i = beta_i = 1; alternates the
    per-task E-step (statistics computed from the previous iteration's
    parameters throughout, so evaluation order never matters) with the
    per-subject M-step until the largest parameter change drops below
    config.tol.  An outer loop re-centers the priors on the fitted
    population means and refits until they stop moving.  Deterministic:
    identical inputs give a bit-identical report.
    """
    config = config or FitConfig()
    if multigraph.n == 0:
        raise ValueError("multigraph has no tasks")
    gamma = config.gamma_value()
    include_self = config.psi_includes_self

    pairs = _pair_layout(multigraph, include_self) if config.update_gamma else None
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
        # Each round refits from the standard initialization: the E-step
        # re-derives gate posteriors from the reliability parameters, so a
        # warm start is not an ascent point of the new round's objective
        # and would break the monotone trace.
        tau = np.ones(m)
        alpha = np.ones(m)
        beta = np.ones(m)
        converged = False
        for _it in range(config.max_iter):
            flat = _e_step(multigraph, tau, alpha, beta, gamma, include_self)
            dig, lam = _digammas(flat[0], flat[1])
            new_tau, new_alpha, new_beta, fb = _m_step(
                multigraph, flat[2], lam, alpha, beta, priors, config.prior_grad_mode
            )
            if fb.any():
                fallback_ids.update(multigraph.subjects[i] for i in np.flatnonzero(fb))

            if config.update_gamma:
                num, den = _gamma_sums(pairs, flat[2])
                gamma_kept += int(den <= 0.0)
                gamma = _gamma_from_sums(num, den, gamma)

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
                trace.append(
                    _objective_flat(multigraph, flat, dig, lam, params, priors, include_self)
                )

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


def fit_grid(multigraph, config=None):
    """Independent fits over a grid of chance rates; one report per value."""
    config = config or FitConfig(gamma=DEFAULT_GAMMA_GRID)
    grid = config.gamma
    if isinstance(grid, (int, float)):
        grid = [float(grid)]
    return [fit(multigraph, dataclasses.replace(config, gamma=float(g))) for g in grid]
