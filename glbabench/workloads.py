"""Workload definitions: seeded inputs and the CLI stage list of each workload.

A workload is a closed loop in one process: its stages run one after
another, each a call of ``glba.cli.main`` on files in the run directory.
Every input is generated from the benchmark seed; the program only sees the
generated files and the flags below.
"""

import glob

import numpy as np

# Input sizes per workload.  "full" is what the benchmark measures; "tiny"
# runs the same stage list in seconds, for the smoke test.
SIZES = {
    "ratings-grid": {
        "full": dict(subjects=200, tasks=1200, raters=5, spammers=20),
        "tiny": dict(subjects=20, tasks=120, raters=5, spammers=2),
    },
    "large": {
        "full": dict(subjects=500, tasks=5000, raters=(4, 8), spammers=50),
        "tiny": dict(subjects=60, tasks=300, raters=(4, 8), spammers=6),
    },
    "learned-gamma": {
        "full": dict(subjects=120, tasks=700, raters=(4, 8), spammers=10, tasks_per_spammer=50),
        "tiny": dict(subjects=30, tasks=80, raters=(4, 8), spammers=3, tasks_per_spammer=10),
    },
}

WORKLOADS = tuple(SIZES)

DELTA = 0.2
MIN_RATERS = 4
TAU_RELIABLE = 0.9
DS_THRESHOLD = 0.5
# Dawid-Skene EM iterations; it stops at this cap on every workload.
DS_MAX_ITER = 20

# Every fit runs a fixed budget: eb_max_rounds EB rounds of max_iter EM
# iterations each (the tolerances are never met).  Left to converge, the
# round count (11 or 12 on the learned-gamma inputs) and the iterations per
# round (57 to 110 on the ratings grid) jump from seed to seed, and fit time
# with them; with a fixed budget, fit time measures the cost per iteration.
# The budgets keep every stage near a second, so a run holds many samples.
# Every fit runs on one thread: the reference task (worker.py) sees the
# contention on the CPU of the stage's thread only, and a threaded E-step
# spread fit times by 10% between runs.
_BUDGET = ["eb_tol = 1e-12", "tol = 1e-12"]
CONFIGS = {
    "ratings-grid": ["eb_max_rounds = 1", "max_iter = 10", *_BUDGET],
    "large": ["eb_max_rounds = 1", "max_iter = 20", *_BUDGET],
    "learned-gamma": ["eb_max_rounds = 2", "max_iter = 20", "update_gamma = true", *_BUDGET],
}


def ratings_file(workload):
    """The ratings CSV the workload's stages after `inject` read."""
    return "out/injected.csv" if workload == "learned-gamma" else "ratings.csv"


def spammer_file(workload):
    """Where the ids of the spammers the ranking should find end up."""
    return "out/injected_ids.txt" if workload == "learned-gamma" else "planted.txt"


def write_inputs(workload, seed, size="full"):
    """Generate the workload's inputs from `seed` into the current directory.

    Writes ``ratings.csv``, ``fit.cfg`` and, for planted-spammer workloads,
    ``planted.txt``.  Returns the seconds spent in
    ``simulate.sample_response_table``.
    """
    import time

    from glba import simulate, textio

    sz = SIZES[workload][size]
    m = sz["subjects"]
    if workload == "learned-gamma":
        # The spammers are injected later by the CLI `inject` stage.
        tau = None
    else:
        tau = np.full(m, TAU_RELIABLE)
        tau[: sz["spammers"]] = 0.0
    t0 = time.perf_counter()
    table, truth = simulate.sample_response_table(
        m,
        sz["tasks"],
        sz["raters"],
        tau_true=tau,
        rating_sigma=1.0,
        bias_sigma=0.0 if workload == "ratings-grid" else 1.0,
        seed=seed,
        dimensions=("valence",),
        with_timing=True,
    )
    sample_s = time.perf_counter() - t0
    textio.write_responses(table, "ratings.csv")
    if tau is not None:
        textio.write_id_list(sorted(s for s, t in truth.items() if t == 0.0), "planted.txt")
    with open("fit.cfg", "w", encoding="utf-8") as fh:
        fh.write("\n".join([*CONFIGS[workload], "workers = 1"]) + "\n")
    return sample_s


def _fits():
    return sorted(glob.glob("out/fit_*.tsv"))


def stages(workload, seed, size="full"):
    """The workload's stage list: (stage name, argv factory) pairs.

    Each factory runs right before its stage, in the run directory, so a
    stage can name files an earlier stage wrote (the fit reports' names
    carry the fitted gamma).
    """
    sz = SIZES[workload][size]
    ratings = ratings_file(workload)
    k = str(sz["spammers"])
    graph_flags = ["--delta", str(DELTA), "--min-raters", str(MIN_RATERS)]
    build = ("build_graph", lambda: ["build-graph", ratings, *graph_flags, "--out", "out"])
    rank = ("rank", lambda: ["rank", *_fits(), "--out", "out"])
    # The middle of the sorted grid is the reference fit rank_subjects uses.
    images = ("images", lambda: ["images", ratings, _fits()[(len(_fits()) - 1) // 2], "--out", "out"])
    pr = ("pr", lambda: ["pr", "out/subjects.tsv", spammer_file(workload), "--top-k", k, "--out", "out"])
    baseline_time = ("baseline_time", lambda: ["baseline-time", ratings, "--out", "out"])
    baseline_ds = (
        "baseline_ds",
        lambda: [
            "baseline-ds",
            ratings,
            "--threshold",
            str(DS_THRESHOLD),
            "--ds-max-iter",
            str(DS_MAX_ITER),
            "--out",
            "out",
        ],
    )
    if workload == "ratings-grid":
        return [
            build,
            ("fit", lambda: ["fit", "out/graph.tsv", "--config", "fit.cfg", "--out", "out"]),
            rank,
            images,
            ("overhead", lambda: ["overhead", ratings, "out/subjects.tsv", "--out", "out"]),
            pr,
            baseline_ds,
            baseline_time,
        ]
    fit = (
        "fit",
        lambda: ["fit", "out/graph.tsv", "--gamma", "0.37", "--config", "fit.cfg", "--out", "out"],
    )
    if workload == "large":
        return [build, fit, rank, images, baseline_time]
    inject = (
        "inject",
        lambda: [
            "inject",
            "ratings.csv",
            "--spammers",
            k,
            "--tasks-per-spammer",
            str(sz["tasks_per_spammer"]),
            "--seed",
            str(seed),
            "--out",
            "out",
        ],
    )
    return [inject, build, fit, rank, images, pr, baseline_ds, baseline_time]
