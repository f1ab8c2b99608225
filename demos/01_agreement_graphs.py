# Building agreement multigraphs from raw ratings.
#
# Two raters "agree" on a stimulus when their ratings are close in
# percentile terms over the whole pool of answers, which adapts the
# comparison to how people actually use the scale.  This script builds
# the percentile table, inspects the pairwise rule, and assembles the
# per-task multigraph that everything downstream consumes.

import numpy as np

from glba import (
    agree,
    build_multigraph,
    percentile_table,
    variance_ratio,
)
from glba.simulate import sample_response_table

# A small synthetic ratings corpus: 40 subjects, 200 stimuli, 4-6 raters
# per stimulus, everyone rating seriously around each stimulus's latent
# valence.
table, _ = sample_response_table(40, 200, (4, 6), rating_sigma=1.0, seed=7)
print(f"{len(table)} responses from {len(table.subjects())} subjects")

# The percentile table of the pooled valence ratings.  Most mass sits
# mid-scale, so equal absolute gaps can mean very different percentile
# gaps.  The table is columnar: one float per response (NaN where a
# response has no valence rating), and `rated` masks the rated ones.
values = table.ratings("valence")[table.rated("valence")]
ptable = percentile_table(values, scale=sorted(set(values)))
print("\ncumulative fractions:")
for v in ptable.support:
    print(f"  rating {v:>3}: {ptable.cdf[v]:.3f}")

# The pairwise rule at the default threshold 0.2: identical ratings always
# agree; mid-scale neighbors usually agree; extremes rarely agree with
# anything far away.
print("\nagree(4, 5) =", agree(4.0, 5.0, ptable))
print("agree(1, 9) =", agree(1.0, 9.0, ptable))
print("agree(8, 9) =", agree(8.0, 9.0, ptable))

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
