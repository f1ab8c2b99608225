# Building agreement multigraphs from raw ratings.
#
# Two raters "agree" on a stimulus when their ratings are close in
# percentile terms over the whole pool of answers, which adapts the
# comparison to how people actually use the scale.  This script prints
# the pool's cumulative fractions, shows the pairwise rule on a
# three-rater table, and assembles the per-task multigraph that
# everything downstream consumes.

import numpy as np

from glba import ResponseTable, build_multigraph, variance_ratio
from glba.simulate import sample_response_table

# A small synthetic ratings corpus: 40 subjects, 200 stimuli, 4-6 raters
# per stimulus, everyone rating seriously around each stimulus's latent
# valence.
table, _ = sample_response_table(40, 200, (4, 6), rating_sigma=1.0, seed=7)
print(f"{len(table)} responses from {len(table.subject_index)} subjects")

# The cumulative fractions P(v) of the pooled valence ratings, binned to
# one decimal: the share of the pool at or below v.  Most mass sits
# mid-scale, so equal absolute gaps can mean very different percentile
# gaps.  The table is columnar: one float per response (NaN where a
# response has no valence rating), and `rated` masks the rated ones.
values = table.ratings("valence")[table.rated("valence")]
support, counts = np.unique(np.round(values, 1), return_counts=True)
cdf = np.cumsum(counts) / len(values)
print("\ncumulative fractions:")
for v, p in zip(support.tolist(), cdf.tolist()):
    print(f"  rating {v:>3}: {p:.3f}")

# The pairwise rule, shown on one stimulus rated 4, 5 and 9 by three
# raters.  Each rating's successor is the next *observed* rating (the
# top one's P is 1), and two ratings a, b agree iff
#   0.5 |P(a) - P(b)| + 0.5 |P(a+) - P(b+)| <= delta.
# Here P(4) = 1/3, P(5) = 2/3, P(9) = 1: 5 and 9 are percentile
# neighbours, as no rating lies between them, while 4 and 5 sit a third
# of the pool apart.  At delta 0.2 only b and c agree; at 0.4, a and b
# do too; a and c never do below 0.5.  A table holds each id column as
# its sorted distinct ids and one code per row: the rows are (a, t1),
# (b, t1) and (c, t1).
nan3 = [np.nan] * 3
tiny = ResponseTable(["a", "b", "c"], [0, 1, 2], ["t1"], [0, 0, 0], {"valence": [4.0, 5.0, 9.0]}, nan3, nan3)
for delta in (0.2, 0.4):
    edges = build_multigraph(tiny, "valence", delta=delta, min_raters=1).tasks[0].edges
    print(f"\nratings 4, 5, 9 at delta {delta}:\n{edges}")

# Assemble the multigraph.  Stimuli with fewer than four raters are
# screened out, mirroring the usual minimum-evidence rule.
graph = build_multigraph(table, "valence", delta=0.2, min_raters=4)
edges = sum(t.n_raters * (t.n_raters - 1) for t in graph.tasks)
ones = sum(int(t.edges.sum()) for t in graph.tasks)
print(f"\nmultigraph: {graph.n} tasks, {graph.m} subjects, {edges} ordered pairs")
print(f"overall agreement rate: {ones / edges:.3f}")

# How much of the rating variance lives within tasks?  Small values mean
# raters disagree less on the same stimulus than across stimuli, i.e. the
# dimension carries consensus signal worth modeling.
print(f"\nwithin-task variance share: {variance_ratio(table, 'valence'):.3f}")

# One task up close: its rater list and the 0/1 agreement matrix.
task = graph.tasks[0]
print(f"\ntask {task.task_id}: raters {task.subjects}")
print(np.array(task.edges))
