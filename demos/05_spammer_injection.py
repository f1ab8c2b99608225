# Stress-testing detection with population-mimicking spammers.
#
# The hardest spammer to catch copies the crowd: every label is an
# independent draw from the population's own rating distribution, so no
# marginal statistic can flag them.  This script injects such spammers
# into a clean corpus, refits, and inspects where they land in the
# reliability ranking -- plus the confidently-unreliable rule used to
# prune future pools.

import numpy as np

from glba import (
    FitConfig,
    InjectionSpec,
    build_multigraph,
    fit,
    flag_confidently_unreliable,
    inject_spammers,
    rank_subjects,
)
from glba.simulate import sample_response_table

base, _ = sample_response_table(60, 400, (4, 6), rating_sigma=1.0, bias_sigma=1.0, seed=31)
print(f"base corpus: {len(base)} responses, {len(base.subject_index)} subjects")

spec = InjectionSpec(spammer_count=5, tasks_per_spammer=40, seed=1)
mixed, spam_ids = inject_spammers(base, "valence", spec)
print(f"injected {len(spam_ids)} spammers x {spec.tasks_per_spammer} disjoint tasks")

# Their labels are marginally indistinguishable from the crowd's ...
# (read from the tables' columns: one subject code and one rating per
# response, the code a position in the sorted subject ids)
pool = base.ratings("valence")[base.rated("valence")]
spam_codes = [mixed.subject_index.index(s) for s in spam_ids]
spam_pool = mixed.ratings("valence")[np.isin(mixed.subject_code, spam_codes)]
print(f"population rating mean {np.mean(pool):.2f} vs injected mean {np.mean(spam_pool):.2f}")

# ... but their per-task agreement patterns are not.
graph = build_multigraph(mixed, "valence", min_raters=4)
report = fit(graph, FitConfig(gamma=0.37))
ranked = rank_subjects([report])

positions = {r.subject_id: r.rank for r in ranked}
spam_ranks = sorted(positions[s] for s in spam_ids if s in positions)
print(f"\ninjected spammers' ranks (of {len(ranked)}): {spam_ranks}")
spam_tau = [r.tau_mean for r in ranked if r.subject_id in set(spam_ids)]
base_tau = [r.tau_mean for r in ranked if r.subject_id not in set(spam_ids)]
print(f"injected tau: mean {np.mean(spam_tau):.3f}; base subjects: {np.mean(base_tau):.3f}")

# Online exclusion rule: low reliability percentile AND a tight Beta
# posture (small regularity variance) means the model is *confident* the
# subject is unreliable, not merely uncertain about them.  Tightening
# var_max below a subject's regularity variance defers the decision until
# more of their labels arrive.
flagged = flag_confidently_unreliable(ranked, var_max=0.1, tau_pct=25.0)
hits = len(set(flagged) & set(spam_ids))
print(f"\nconfidently-unreliable rule flags {len(flagged)} subjects, {hits} of them injected")
deferred = flag_confidently_unreliable(ranked, var_max=0.04, tau_pct=25.0)
print(f"with var_max tightened to 0.04 only {len(deferred)} are flagged (others deferred)")
