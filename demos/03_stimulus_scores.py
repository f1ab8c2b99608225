# Confidence-weighted stimulus scores and extreme-emotion retrieval.
#
# Once subject reliabilities are fitted, each stimulus gets (a) a
# confidence: the probability that at least one of its raters was
# serious, and (b) an adjusted score: the reliability-weighted mean
# rating shrunk by that confidence.  Low-confidence stimuli need more
# labels before their scores mean anything.

import numpy as np

from glba import FitConfig, build_multigraph, extreme_subset, fit, image_scores
from glba.simulate import sample_response_table

# A heavily polluted pool: a third of the subjects label at random, so
# some stimuli end up rated mostly by unreliable raters.
tau_true = np.ones(60)
tau_true[:20] = 0.0
table, truth = sample_response_table(
    60, 400, (4, 6), tau_true=tau_true, rating_sigma=0.8, seed=11
)

graph = build_multigraph(table, "valence", min_raters=4)
report = fit(graph, FitConfig(gamma=0.37))
params = report.params

# Adjusted scores in the "reliably high valence" direction, as columns in
# report order; iterating them gives one ImageReport record per stimulus.
scores = image_scores(table, "valence", params, direction="high")
reports = list(scores)
print("top five stimuli by adjusted score:")
for r in reports[:5]:
    print(
        f"  {r.task_id}: adjusted {r.adjusted_score:.3f} "
        f"(confidence {r.confidence:.2f}, raw mean {r.raw_mean:.2f})"
    )

print(f"\n{np.mean(scores.confidence > 0.9):.0%} of stimuli have confidence above 90%")

# Stimuli whose estimated score clears 8 on the 1..9 scale with over 90%
# confidence: candidate gold-standard positives.
high = extreme_subset(scores, score_min=8.0, conf_min=0.9)
print(f"{len(high)} stimuli estimated >= 8 with confidence > 90%")

# The same machinery retrieves reliably *low* stimuli: ratings are
# flipped before weighting, so high adjusted scores mean low valence.
low_scores = image_scores(table, "valence", params, direction="low")
low = extreme_subset(low_scores, score_min=8.0, conf_min=0.9)
print(f"{len(low)} stimuli estimated <= 2 with confidence > 90%")

# Confidence only collapses when nearly every rater of a stimulus is
# unreliable; with 4-6 raters a single trusted rater keeps it high, so
# the real work is done by the reliability weights inside the mean.
worst = min(reports, key=lambda r: r.confidence)
print(
    f"\nleast-confident stimulus {worst.task_id}: confidence {worst.confidence:.2f}, "
    f"raw mean {worst.raw_mean:.2f}, adjusted {worst.adjusted_score:.3f}"
)
