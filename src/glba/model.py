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

scipy.special is imported inside the kernels that call it, so importing
glba, or running a command that never fits, does not load it.
"""

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ingest import _offdiag

# Positivity floor for Beta shape parameters.
EPS_POS = 1e-6

# Gate odds ratios are clamped to this range after the log-space product.
R_CLAMP = (1e-12, 1e12)

GAMMA_CLAMP = (0.01, 0.49)

_NEWTON_MAX_ITER = 100
_NEWTON_TOL = 1e-8
_MAX_HALVINGS = 20
_BISECT_ITER = 200  # the fallback's bisection steps per coordinate, and sweeps

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

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)

    @cached_property
    def position(self):
        """Each subject's index in `subjects`."""
        return {s: i for i, s in enumerate(self.subjects)}

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
        grid = _gamma_values(self.gamma)
        if not grid:
            raise ValueError("gamma grid is empty")
        for g in grid:
            # NaN and the infinities fail the range test.
            if not (isinstance(g, numbers.Real) and 0.0 < g < 0.5):
                raise ValueError(f"gamma must be a finite number in (0, 0.5), got {g!r}")

    def gamma_value(self):
        if not isinstance(self.gamma, numbers.Real):
            raise ValueError("config.gamma is a grid; use fit_grid for grids")
        return float(self.gamma)


def _gamma_values(gamma):
    """config.gamma as a list: a single rate (any real number) or a grid."""
    return [gamma] if isinstance(gamma, numbers.Real) else list(gamma)


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
    from scipy.special import digamma

    dig = digamma(a_t), digamma(b_t), digamma(a_t + b_t)
    return dig, (dig[0] - dig[2], dig[1] - dig[2])


# ---------------------------------------------------------------------------
# E-step: closed-form posterior statistics per task
# ---------------------------------------------------------------------------


def _estep_kernel(E, comp, t, a, b, gamma):
    """Closed-form posterior statistics for a batch of same-size tasks.

    E: (G, r, r) indicators with zero diagonal, comp its complement;
    t/a/b: (G, r) parameter values of the raters.  Returns
    (alpha_tilde, beta_tilde, tau_tilde).  Agreement and disagreement
    masses are accumulated separately so the tilde statistics never fall
    below the base parameters, not even by rounding.  Each temporary is
    reused in place once its value is spent; every operation keeps the
    operands and order of the plain expression, so the doubles are the same.
    """
    a_t = np.einsum("gij,gj->gi", E, t)
    a_t += a
    b_t = np.einsum("gij,gj->gi", comp, t)
    b_t += b

    log_g = math.log(gamma)
    log_1g = math.log1p(-gamma)
    # Factor of neighbor i toward focal j: base + I_{i,j} * swing, with
    # base = log b~ - log(a~ + b~) - log(1 - gamma) and
    # swing = log a~ - log b~ - log gamma + log(1 - gamma).
    base = np.add(a_t, b_t)
    np.log(base, out=base)
    log_b = np.log(b_t)
    np.subtract(log_b, base, out=base)
    base -= log_1g
    swing = np.log(a_t)
    swing -= log_b
    swing -= log_g
    swing += log_1g
    # log_r = (sum_i base_i - base_j) + sum_i swing_i I_{i,j}
    log_r = np.einsum("gi,gij->gj", swing, E, out=log_b)
    np.subtract(base.sum(axis=1, keepdims=True), base, out=base)
    log_r += base
    with np.errstate(over="ignore", under="ignore"):
        r = np.exp(log_r, out=log_r)
    np.maximum(r, R_CLAMP[0], out=r)
    np.minimum(r, R_CLAMP[1], out=r)

    # tau~ = r t / (r t + (1 - t))
    r *= t
    den = np.subtract(1.0, t, out=swing)
    den += r
    tau_t = np.divide(r, den, out=r)
    return a_t, b_t, tau_t


def _e_step(graph, tau, alpha, beta, gamma):
    a_t, b_t, t_t = (np.empty(graph.offsets[-1]) for _ in range(3))
    for (E, comp), g in zip(graph.blocks, graph.groups):
        a_t[g.dest], b_t[g.dest], t_t[g.dest] = _estep_kernel(
            E, comp, tau[g.sidx], alpha[g.sidx], beta[g.sidx], gamma
        )
    return a_t, b_t, t_t


def e_step(multigraph, params):
    """Flat posterior statistics (alpha~, beta~, tau~) of every slot.

    `params` must list multigraph.subjects in order.
    """
    _checked(multigraph, params)
    return _e_step(multigraph, params.tau, params.alpha, params.beta, params.gamma)


# ---------------------------------------------------------------------------
# M-step: Beta shapes by projected damped Newton, tau in closed form
# ---------------------------------------------------------------------------


def _ab_residual(a, b, d, s_a, s_b, s0):
    from scipy.special import digamma

    s = a + b
    dig_s = digamma(s)
    # Prior term h(alpha+beta): the gradient of the Gamma(2, s0) prior.
    h = 1.0 / s0 - 1.0 / s
    f_a = s_a - d * (digamma(a) - dig_s) - h
    f_b = s_b - d * (digamma(b) - dig_s) - h
    return f_a, f_b


def _bisect_coord(f):
    """Root of a scalar function by bracket expansion + bisection."""
    lo = EPS_POS
    flo = f(lo)
    if not np.isfinite(flo) or flo <= 0.0:
        return lo
    hi = 1.0
    fhi = f(hi)
    while fhi > 0.0 and hi < 1e12:
        hi *= 4.0
        fhi = f(hi)
    if fhi > 0.0:
        return hi
    for _ in range(_BISECT_ITER):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisect_ab(d, s_a, s_b, s0):
    """Alternating coordinate bisection; each coordinate map is monotone."""
    a, b = 1.0, 1.0
    for _ in range(_BISECT_ITER):
        a = _bisect_coord(lambda x: _ab_residual(x, b, d, s_a, s_b, s0)[0])
        b = _bisect_coord(lambda x: _ab_residual(a, x, d, s_a, s_b, s0)[1])
        f_a, f_b = _ab_residual(a, b, d, s_a, s_b, s0)
        if max(abs(f_a), abs(f_b)) <= _NEWTON_TOL:
            break
    return a, b


def _solve_shapes(a0, b0, d, s_a, s_b, s0):
    """Solve the shape stationarity system for every subject at once.

    Every subject has d >= 1 tasks.  `s0` is each subject's prior scale
    (an array), or one scale for all.  Every step works element by element
    and every subject starts at Newton step 0, so a subject's result does
    not depend on the others solved with it.  Newton iterates are damped (step
    halving while the max-norm residual grows or is not finite) and
    projected to stay >= EPS_POS; each trial point's residual is evaluated
    once and kept when the point is accepted.  A subject leaves Newton
    when its residual is <= _NEWTON_TOL, and falls back to coordinate
    bisection when its Jacobian is singular or not finite, when
    _MAX_HALVINGS halvings of its step still give no acceptable point, or
    when its residual is still above the target after _NEWTON_MAX_ITER
    steps.

    Returns (alpha, beta, fallback_mask).
    """
    from scipy.special import zeta

    a = np.clip(np.asarray(a0, dtype=float).copy(), EPS_POS, None)
    b = np.clip(np.asarray(b0, dtype=float).copy(), EPS_POS, None)
    s0 = np.full(a.shape, s0, dtype=float)
    f_a, f_b = _ab_residual(a, b, d, s_a, s_b, s0)
    res = np.maximum(np.abs(f_a), np.abs(f_b))
    fallback = np.zeros(len(d), dtype=bool)
    active = np.arange(len(d))

    for _ in range(_NEWTON_MAX_ITER):
        active = active[~(res[active] <= _NEWTON_TOL)]  # a NaN residual stays
        if active.size == 0:
            break
        aa, bb, dd = a[active], b[active], d[active]
        ss = aa + bb
        # Trigamma is the Hurwitz zeta(2, x); polygamma(1, x) computes the
        # same value times exactly 1.0, plus a digamma it then discards.
        tri_s = zeta(2, ss)
        hp = 1.0 / (ss * ss)  # h'(alpha+beta)
        j_aa = -dd * (zeta(2, aa) - tri_s) - hp
        j_bb = -dd * (zeta(2, bb) - tri_s) - hp
        j_ab = dd * tri_s - hp
        det = j_aa * j_bb - j_ab * j_ab
        singular = ~np.isfinite(det) | (np.abs(det) < 1e-300)
        det[singular] = np.nan  # a NaN step, never accepted
        fa, fb, r0 = f_a[active], f_b[active], res[active]
        step_a = (-fa * j_bb + fb * j_ab) / det
        step_b = (-fb * j_aa + fa * j_ab) / det

        sums = s_a[active], s_b[active], s0[active]
        scale = np.ones(active.size)
        stalled = ~singular
        for _halving in range(_MAX_HALVINGS + 1):
            # np.maximum gives np.clip's doubles (NaN included) at less cost.
            ta = np.maximum(aa + scale * step_a, EPS_POS)
            tb = np.maximum(bb + scale * step_b, EPS_POS)
            tf_a, tf_b = _ab_residual(ta, tb, dd, *sums)
            tres = np.maximum(np.abs(tf_a), np.abs(tf_b))
            worse = ~np.isfinite(tres) | (tres > r0)
            accept = stalled & ~worse
            i = active[accept]
            a[i], b[i], res[i] = ta[accept], tb[accept], tres[accept]
            f_a[i], f_b[i] = tf_a[accept], tf_b[accept]
            stalled &= worse
            if not stalled.any():
                break
            scale[stalled] *= 0.5
        leave = singular | stalled
        fallback[active[leave]] = True
        active = active[~leave]

    # Newton budget exhausted: whoever is still short of the residual
    # target falls back; a subject whose last step met it keeps its root.
    fallback[active[~(res[active] <= _NEWTON_TOL)]] = True

    for i in np.flatnonzero(fallback):
        a[i], b[i] = _bisect_ab(d[i], s_a[i], s_b[i], s0[i])
    return a, b, fallback


def _m_sums(graph, t_t, lam, priors):
    """Per subject: the updated tau and the shape system's sums (s_a, s_b),
    from the flat gate posteriors t_t and expected log agreement rates
    lam."""
    flat_sidx, degree, m = graph.flat_sidx, graph.degree, graph.m
    # bincount adds the weights in flat (task-major) order.
    s_a = np.bincount(flat_sidx, weights=lam[0], minlength=m)
    s_b = np.bincount(flat_sidx, weights=lam[1], minlength=m)
    tau_acc = np.bincount(flat_sidx, weights=t_t, minlength=m)
    tau = (priors.tau0 + tau_acc) / (degree + 1.0)
    return tau, s_a, s_b


def m_step(multigraph, stats, params, priors):
    """Per-subject (tau, alpha, beta, fallback) from e_step's flat stats.

    Newton starts at params' shapes; `fallback` marks the subjects whose
    shapes came from the bisection fallback.
    """
    _checked(multigraph, params)
    priors.validate()
    a_t, b_t, t_t = _flat(multigraph, stats)
    lam = _digammas(a_t, b_t)[1]
    tau, s_a, s_b = _m_sums(multigraph, t_t, lam, priors)
    alpha, beta, fallback = _solve_shapes(
        params.alpha, params.beta, multigraph.degree, s_a, s_b, priors.s0
    )
    return tau, alpha, beta, fallback


# ---------------------------------------------------------------------------
# gamma update
# ---------------------------------------------------------------------------


def _gamma_from_sums(num, den, previous):
    """Closed-form chance rate num/den clamped to GAMMA_CLAMP; a zero
    denominator (all gates confidently open) keeps `previous`."""
    if den <= 0.0:
        return float(previous)
    return float(np.clip(num / den, GAMMA_CLAMP[0], GAMMA_CLAMP[1]))


def _pair_layout(graph):
    """Flat neighbour index j of every ordered pair (i, j != i), ordered
    task-major, then by i, then by j; and of the agreeing pairs alone
    (E[i, j] = 1), in the same order.
    """
    fi, fj, e = [], [], []
    for g in graph.groups:
        ii, jj = np.nonzero(_offdiag(g.edges.shape[1]))
        fi.append(g.dest[:, ii].ravel())
        fj.append(g.dest[:, jj].ravel())
        e.append(g.edges[:, ii, jj].ravel())
    fi, fj, e = map(np.concatenate, (fi, fj, e))
    # Each row's pairs come out with j ascending; a stable sort keeps that.
    order = np.argsort(fi, kind="stable")
    pair_j = fj[order]
    return pair_j, pair_j[e[order] == 1]


def _gamma_sums(pairs, t_t):
    """Numerator and denominator of the chance-rate update: over every
    ordered pair (i, j) of `pairs` (a _pair_layout), the weight 1 - tau~_j
    times E[i, j], and the weight alone.  cumsum adds in sequence, so both
    equal the plain loop's sums bit for bit (np.sum adds pairwise and would
    not).  The numerator runs over the agreeing pairs only: each pair it
    skips adds w * 0 = +0.0 to a sum of weights w >= 0, which leaves it as
    it is, and w * 1 = w.
    """
    pair_j, agree_j = pairs
    w = 1.0 - t_t
    num = float(np.cumsum(w[agree_j])[-1]) if agree_j.size else 0.0
    den = float(np.cumsum(w[pair_j])[-1]) if pair_j.size else 0.0
    return num, den


def update_gamma(multigraph, tau_tilde, previous):
    """Closed-form chance-agreement rate from the flat gate posteriors
    tau~, clamped to GAMMA_CLAMP.  A zero denominator (all gates
    confidently open) keeps `previous`.
    """
    (t_t,) = _flat(multigraph, [tau_tilde])
    return _gamma_from_sums(*_gamma_sums(_pair_layout(multigraph), t_t), previous)


# ---------------------------------------------------------------------------
# Monitored objective
# ---------------------------------------------------------------------------


def _objective_flat(graph, flat, dig, lam, params, priors):
    """Variational objective: expected complete-data log posterior plus
    the entropy of the factorized posterior.

    `dig, lam` are `_digammas(alpha~, beta~)` of the flat statistics.

    The prior enters in pseudo-count form (exponents tau0 and 1 - tau0 on
    tau, and the shape-sum Gamma kernel), which is exactly the form whose
    stationary points the M-step updates solve; the trace is therefore a
    proper ascent monitor.
    """
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
    # betaln(alpha_i, beta_i) depends on the subject alone: one call per
    # subject, gathered to the slots, gives the per-slot call's elements.
    shapes = np.sum(
        (alpha_i - 1.0 + omega_tt) * lam_a
        + (beta_i - 1.0 + psi_tt - omega_tt) * lam_b
        - betaln(params.alpha, params.beta)[flat_sidx]
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


def log_posterior(params, priors, multigraph, stats):
    """Monitored variational objective at e_step's flat `stats`.

    Normally read off FitReport.loglik_trace; exposed for direct
    evaluation.
    """
    _checked(multigraph, params)
    priors.validate()
    flat = _flat(multigraph, stats)
    dig, lam = _digammas(flat[0], flat[1])
    return _objective_flat(multigraph, flat, dig, lam, params, priors)


# ---------------------------------------------------------------------------
# Fit driver
# ---------------------------------------------------------------------------


class _Run:
    """One fit of the lockstep driver: its chance rate, the priors and
    parameters of its current EB round, and what its report collects.
    `advance` holds every per-fit decision of the loop."""

    def __init__(self, gamma, subjects):
        self.gamma = gamma
        self.subjects = subjects
        self.trace = []
        self.round_starts = []
        self.fallback_ids = set()
        self.gamma_kept = 0
        self.total_iters = 0
        self.start_round(Priors())

    def start_round(self, priors):
        self.round_starts.append(self.total_iters)
        self.priors = priors
        # Each round refits from the standard initialization: the E-step
        # re-derives gate posteriors from the reliability parameters, so a
        # warm start is not an ascent point of the new round's objective
        # and would break the monotone trace.
        m = len(self.subjects)
        self.tau = np.ones(m)
        self.alpha = np.ones(m)
        self.beta = np.ones(m)
        self.converged = False

    def advance(self, graph, tau, alpha, beta, fallback, stats, config):
        """Take one EM iteration's parameters; False once the fit is done.

        `fallback` marks the bisected subjects; `stats` is the iteration's
        (flat, dig, lam), or None untraced.  A round ends once the largest
        parameter change drops below config.tol, or after config.max_iter
        iterations; then the priors re-centre on the population means,
        until they move by less than config.eb_tol or config.eb_max_rounds
        rounds have run.
        """
        if fallback.any():
            self.fallback_ids.update(self.subjects[j] for j in np.flatnonzero(fallback))
        delta = max(
            float(np.max(np.abs(tau - self.tau))),
            float(np.max(np.abs(alpha - self.alpha))),
            float(np.max(np.abs(beta - self.beta))),
        )
        self.tau, self.alpha, self.beta = tau, alpha, beta
        self.total_iters += 1
        if not all(np.all(np.isfinite(x)) for x in (tau, alpha, beta)):
            raise RuntimeError(f"non-finite parameters at EM iteration {self.total_iters}")
        if stats is not None:
            self.trace.append(_objective_flat(graph, *stats, self.params(), self.priors))
        self.converged = delta < config.tol
        if not self.converged and self.total_iters - self.round_starts[-1] < config.max_iter:
            return True
        new = Priors(tau0=float(np.mean(tau)), s0=float(np.mean(alpha + beta) / 2.0))
        moved = max(abs(new.tau0 - self.priors.tau0), abs(new.s0 - self.priors.s0))
        if moved < config.eb_tol or len(self.round_starts) == config.eb_max_rounds:
            return False
        self.start_round(new)
        return True

    def params(self):
        return ModelParams(
            self.subjects, tau=self.tau, alpha=self.alpha, beta=self.beta, gamma=self.gamma
        )

    def report(self):
        return FitReport(
            params=self.params(),
            priors=self.priors,
            iterations=self.total_iters,
            converged=self.converged,
            loglik_trace=self.trace,
            round_starts=self.round_starts,
            fallback_subjects=sorted(self.fallback_ids),
            gamma_kept_count=self.gamma_kept,
        )


def _stacked(arrays):
    """The arrays end to end; a lone array as it is (the solver copies)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _fit_lockstep(multigraph, config, gammas):
    """Fits at each chance rate of `gammas`, moved forward in lockstep.

    Each iteration runs every running fit's E-step and statistics on its
    own flat arrays, then one `_solve_shapes` call solves the Beta shapes
    of all their subjects, stacked fit by fit, each with its fit's prior
    scale.  The solver works element by element, so every fit gets the
    doubles it gets alone.  Each fit's `_Run.advance` then takes its new
    parameters, and the fit leaves the batch when it finishes.  When
    `advance` finds a fit's parameters non-finite, it and the fits after
    it leave, and once the fits before it finish, the first such fit's
    error is raised, as running the fits one after another would raise it.
    """
    if multigraph.n == 0:
        raise ValueError("multigraph has no tasks")
    subjects, m, degree = multigraph.subjects, multigraph.m, multigraph.degree
    pairs = _pair_layout(multigraph) if config.update_gamma else None
    runs = [_Run(float(g), subjects) for g in gammas]
    running = list(runs)
    error = None
    while running:
        new_tau, s_a, s_b, stats = [], [], [], []
        for run in running:
            flat = _e_step(multigraph, run.tau, run.alpha, run.beta, run.gamma)
            dig, lam = _digammas(flat[0], flat[1])
            tau, sa, sb = _m_sums(multigraph, flat[2], lam, run.priors)
            new_tau.append(tau)
            s_a.append(sa)
            s_b.append(sb)
            if config.update_gamma:
                num, den = _gamma_sums(pairs, flat[2])
                run.gamma_kept += int(den <= 0.0)
                run.gamma = _gamma_from_sums(num, den, run.gamma)
            stats.append((flat, dig, lam) if config.trace else None)

        k = len(running)
        alpha, beta, fallback = _solve_shapes(
            _stacked([run.alpha for run in running]),
            _stacked([run.beta for run in running]),
            _stacked([degree] * k),
            _stacked(s_a),
            _stacked(s_b),
            _stacked([np.full(m, run.priors.s0) for run in running]),
        )
        alpha, beta, fallback = (x.reshape(k, m) for x in (alpha, beta, fallback))

        still = []
        for i, run in enumerate(running):
            try:
                if run.advance(multigraph, new_tau[i], alpha[i], beta[i], fallback[i], stats[i], config):
                    still.append(run)
            except RuntimeError as exc:
                # The fits after this one stop; those before it run on, and
                # one of them may fail first.
                error = exc
                break
        running = still
    if error is not None:
        raise error
    return [run.report() for run in runs]


def fit(multigraph, config=None):
    """Variational EM fit of the reliability model on one multigraph.

    Starts from tau0 = 0.5, tau_i = alpha_i = beta_i = 1; alternates the
    per-task E-step (statistics computed from the previous iteration's
    parameters throughout, so evaluation order never matters) with the
    per-subject M-step until the largest parameter change drops below
    config.tol.  An outer loop re-centers the priors on the fitted
    population means and refits until they stop moving.  Deterministic:
    identical inputs give a bit-identical report.  Invariant, up to
    rounding, to how the subjects are named and how each task orders its
    raters: renaming the subjects (whatever sort order that gives them) or
    permuting a task's raters together with its indicators moves no tau,
    alpha or beta by more than 1e-12 (addition order changes, so the
    doubles may not be the same) and leaves the ranking as it is.
    """
    config = config or FitConfig()
    return _fit_lockstep(multigraph, config, [config.gamma_value()])[0]


def fit_grid(multigraph, config=None):
    """Fits over a grid of chance rates; one report per value, in grid order.

    The fits run in lockstep, with one shape solve per EM iteration across
    all of them.  Each report is bit-identical to `fit` with its rate
    alone, whatever the other rates and their order.
    """
    config = config or FitConfig(gamma=DEFAULT_GAMMA_GRID)
    return _fit_lockstep(multigraph, config, _gamma_values(config.gamma))
