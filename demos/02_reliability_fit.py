# Fitting the reliability model and recovering planted spammers.
#
# Data are drawn from the model's own generative story: each subject has
# a reliability rate tau (chance of answering seriously) and a Beta-shaped
# regularity (how often serious answers agree with the crowd).  We plant
# fully unreliable subjects, fit by variational EM, and check that the
# estimated tau pushes them to the bottom of the ranking.

import numpy as np

from glba import FitConfig, fit
from glba.simulate import GenerativeSpec, make_true_params, sample_multigraph

SPAMMERS = 8
truth = make_true_params(
    80, spammer_count=SPAMMERS, tau_reliable=0.9, agree_mean=0.7, strength=5.0, gamma=0.37
)
spec = GenerativeSpec(m=80, n=600, raters_per_task=5, true_params=truth, seed=42)
graph, _ = sample_multigraph(spec)
print(f"sampled {graph.n} tasks over {graph.m} subjects")

report = fit(graph, FitConfig(gamma=0.37))
print(
    f"fit: {report.iterations} EM iterations over {len(report.round_starts)} "
    f"prior-adjustment rounds, converged={report.converged}"
)
print(f"final priors: tau0={report.priors.tau0:.3f}, s0={report.priors.s0:.3f}")

# The monitored objective rises within each round (tiny wiggles are
# allowed by the gate-odds approximation).
trace = np.array(report.loglik_trace)
print(f"objective: first {trace[0]:.1f} -> last {trace[-1]:.1f}")

# Planted spammers should own the bottom of the tau ranking.
params = report.params
spam_ids = truth.subjects[:SPAMMERS]
spam_tau = [params.tau[params.position[s]] for s in spam_ids if s in params.position]
good_tau = [t for s, t in zip(params.subjects, params.tau) if s not in set(spam_ids)]
print(f"\nplanted spammers' tau: {np.round(spam_tau, 3)}")
print(f"reliable subjects' tau: mean {np.mean(good_tau):.3f}, min {np.min(good_tau):.3f}")

order = np.argsort(params.tau)
bottom = [params.subjects[i] for i in order[:SPAMMERS]]
caught = len(set(bottom) & set(spam_ids))
print(f"bottom-{SPAMMERS} of the ranking catches {caught}/{SPAMMERS} planted spammers")

# Regularity estimates: the reliable crowd was generated with agreement
# mean 0.7; the fitted Beta means should sit near it.
good_idx = [params.position[s] for s in params.subjects if s not in set(spam_ids)]
means = params.alpha[good_idx] / (params.alpha[good_idx] + params.beta[good_idx])
print(f"\nfitted agreement mean of reliable subjects: {means.mean():.3f} (true 0.7)")
