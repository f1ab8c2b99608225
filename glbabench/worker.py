"""Subprocess side of the benchmark; run.py starts it, one process per step.

    python3 glbabench/worker.py setup  WORKLOAD SEED SIZE RESULT_JSON
    python3 glbabench/worker.py stages WORKLOAD SEED SIZE RESULT_JSON SECONDS TRACE

Both run in the run directory with ``PYTHONPATH`` naming the checkout's
``src``.  ``setup`` imports glba and writes the seeded inputs.  ``stages``
runs the workload's CLI stages in this one process (traced or not) and
records each stage run's wall time and exit code, the peak resident set
and, when traced, the spans.

Every timing also gets a scale to reference speed.  On a shared machine
other tenants slow a CPU by up to 2x, in spells of seconds to minutes, so
raw times of one stage spread by 30% between runs.  A fixed reference task
that uses no glba code runs between consecutive stage runs; a stage run's
scale is REFERENCE_S over the mean time of the reference runs on either
side of it, and its time at reference speed is its wall time times that
scale.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# Stages faster than this (at reference speed) run again after every slower
# stage of a pass, so they collect more samples, spread over the run.
CHEAP_S = 0.25

# The reference task's time on an uncontended CPU of the 2-CPU virtual
# machine (Intel Xeon, 2.0 GHz) the benchmark was tuned on.
REFERENCE_S = 0.018


def reference_time():
    """Wall time of fixed interpreter-bound work: dict updates, small
    objects, string formatting and a sort, the kind most stages spend their
    time on.  (A numpy-heavy reference tracked the stages' slowdowns worse.)"""
    t = time.perf_counter()
    acc = {}
    rows = []
    for i in range(60000):
        k = i % 997
        acc[k] = acc.get(k, 0.0) + i * 0.5
        if i % 3 == 0:
            rows.append((str(k), k))
    rows.sort()
    return time.perf_counter() - t


def _import_glba():
    import glba.cli

    return glba.cli, time.perf_counter() - _T0


def setup(workload, seed, size):
    import workloads

    _, import_s = _import_glba()
    sample_s = workloads.write_inputs(workload, seed, size)
    total_s = time.perf_counter() - _T0
    scale = REFERENCE_S / ((reference_time() + reference_time()) / 2)
    return {"import_s": import_s, "sample_s": sample_s, "total_s": total_s, "scale": scale}


def stages(workload, seed, size, seconds, trace):
    """Run the stage list once, then passes while the next still fits."""
    import workloads

    cli, _ = _import_glba()
    plan = workloads.stages(workload, seed, size)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    samples = {name: [] for name, _ in plan}
    scales = {name: [] for name, _ in plan}
    codes = {name: [] for name, _ in plan}
    before = reference_time()

    def run(name, argv_of):
        nonlocal before
        argv = argv_of()
        rep = len(samples[name])
        # Start every stage from a clean heap, as a fresh CLI process would.
        gc.collect()
        t = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.stage(name, rep, lambda: cli.main(argv))
        except SystemExit as exc:  # argparse rejected the flags
            code = exc.code
        except Exception:  # a crashing stage is a failed operation, not the end of the run
            traceback.print_exc()
            code = -1
        samples[name].append(time.perf_counter() - t)
        codes[name].append(code)
        after = reference_time()
        scales[name].append(REFERENCE_S / ((before + after) / 2))
        before = after

    with open("stages.log", "a", encoding="utf-8") as log, contextlib.redirect_stdout(
        log
    ), contextlib.redirect_stderr(log), tracer or contextlib.nullcontext():
        start = time.perf_counter()
        for stage in plan:
            run(*stage)
        pass_s = time.perf_counter() - start
        cheap = [s for s in plan if samples[s[0]][0] * scales[s[0]][0] < CHEAP_S]
        slow = [stage for stage in plan if stage not in cheap]
        schedule = [s for stage in slow for s in [stage, *cheap]] or cheap
        while time.perf_counter() - start + pass_s <= seconds:
            t = time.perf_counter()
            for stage in schedule:
                run(*stage)
            pass_s = time.perf_counter() - t

    return {
        "samples": samples,
        "scales": scales,
        "codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.records() if tracer else [],
    }


def main(argv):
    mode, workload, seed, size, result_path = argv[:5]
    if mode == "setup":
        result = setup(workload, int(seed), size)
    else:
        result = stages(workload, int(seed), size, float(argv[5]), argv[6] == "1")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
