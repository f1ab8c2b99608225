# Comparing the agreement model against classical baselines.
#
# Two baselines: confusion-matrix EM over thresholded categories (the
# classical consensus route) and the mean-task-duration heuristic hosts
# actually use.  Evaluation is top-K precision of each method's
# most-suspect ranking against the planted spammer set, plus the
# overhead curve (labels lost per quality threshold).

import numpy as np

from glba import (
    FitConfig,
    build_multigraph,
    categorize_table,
    dawid_skene_fit,
    dawid_skene_rank,
    duration_rank,
    fit_grid,
    overhead_curve,
    precision_recall,
    rank_subjects,
)
from glba.simulate import sample_response_table

SPAMMERS = 10
tau_true = np.ones(80)
tau_true[:SPAMMERS] = 0.0
table, truth = sample_response_table(
    80, 500, 5, tau_true=tau_true, rating_sigma=1.0, seed=21, with_timing=True
)
planted = {s for s, t in truth.items() if t == 0.0}

# Agreement-model ranking, averaged over a small chance-rate grid.
graph = build_multigraph(table, "valence", min_raters=4)
fits = fit_grid(graph, FitConfig(gamma=[0.3, 0.37, 0.44], max_iter=300, eb_max_rounds=6))
ranked = rank_subjects(fits)
pr = precision_recall(ranked, planted, top_k=(SPAMMERS,))
print(f"agreement model: top-{SPAMMERS} precision {pr.top_k[SPAMMERS]:.2f}")

# Dawid-Skene over low/neutral/high categories.
cat = categorize_table(table, "valence", threshold=0.5)
ds = dawid_skene_fit(cat)
ds_top = [s for s, _ in dawid_skene_rank(ds)[:SPAMMERS]]
ds_prec = sum(s in planted for s in ds_top) / SPAMMERS
print(f"dawid-skene:     top-{SPAMMERS} precision {ds_prec:.2f}")

# Duration heuristic: fastest mean (view + label) seconds first.
timed, excluded = duration_rank(table)
time_top = [s for s, _ in timed[:SPAMMERS]]
time_prec = sum(s in planted for s in time_top) / SPAMMERS
print(f"mean duration:   top-{SPAMMERS} precision {time_prec:.2f} ({len(excluded)} untimed)")

# Overhead: labels removed when filtering subjects below a reliability
# threshold.  Quality costs data; the curve quantifies how much.
curve = overhead_curve(table, "valence", ranked, "subject-filter", [0.1, 0.3, 0.5, 0.7])
total = int(table.rated("valence").sum())
print("\noverhead (subject filter):")
for th, removed in curve:
    print(f"  tau < {th:.1f}: {removed:5d} of {total} labels removed")
