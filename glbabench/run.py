"""The glba benchmark: one workload, seeded inputs, CLI stages, checked outputs.

    python3 glbabench/run.py --workload ratings-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Setup (import glba, generate the inputs
from --seed, write the CSV) runs SETUP_REPS times, each in a fresh process;
then one process runs the workload's CLI stages (``glba.cli.main``) in
passes for up to --seconds and reports each stage's median time at
reference speed (see worker.py).  With --trace 1 a second, traced process
repeats the stages and the per-layer metrics come from its spans.

The last line of stdout is a JSON object with keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The full record (environment, per-stage samples,
checks, fit report digests, spans) goes to .glbabench-work/<run>/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
# Never used while the benchmark or a change is tuned; a claimed gain must
# also hold on this seed.
HELD_OUT_SEED = 20261017
SETUP_REPS = 3
TIME_LIMIT_S = 170.0


def _metric_specs():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def _environment():
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    revision = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            revision = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "glba").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
    }


class _Worker:
    """Starts worker.py steps in the run directory and reads their results."""

    def __init__(self, workdir, args, deadline):
        self.workdir = workdir
        self.args = args
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def __call__(self, mode, tag, *extra):
        result = self.workdir / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), mode, self.args.workload]
        cmd += [str(self.args.seed), self.args.size, str(result), *extra]
        timeout = max(1.0, self.deadline - time.monotonic())
        # subprocess.run kills and reaps the child if the timeout expires.
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)


def _stage_metrics(run):
    """Stage times at reference speed and the end-to-end times built from them.

    Each stage counts the median of its runs' times at reference speed
    (worker.py explains the scale); the raw medians go to the record.
    """
    med = {
        name: statistics.median(t * k for t, k in zip(times, run["scales"][name]))
        for name, times in run["samples"].items()
    }
    return med, {
        "wall_s": sum(med.values()),
        "fit_s": med["fit"],
        "graph_s": med["build_graph"],
        "report_s": med["rank"] + med["images"],
        "baseline_s": med.get("baseline_ds", 0.0) + med["baseline_time"],
    }


def _account(run, failures):
    """(attempted, failed) stage executions of one stages process."""
    attempted = failed = 0
    for name, codes in run["codes"].items():
        attempted += len(codes)
        if failures.get(name):
            failed += len(codes)
        else:
            failed += sum(code != 0 for code in codes)
    return attempted, failed


def run_benchmark(args):
    import checks
    import tracer
    import workloads

    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".glbabench-work" / f"{args.workload}-{args.size}-s{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    worker = _Worker(workdir, args, deadline)
    stage_names = [name for name, _ in workloads.stages(args.workload, args.seed, args.size)]

    setups, input_digests = [], set()
    for rep in range(SETUP_REPS):
        setups.append(worker("setup", f"setup{rep}"))
        input_digests.add(checks.textio.file_digest(workdir / "ratings.csv"))
    setup_s = statistics.median(s["total_s"] * s["scale"] for s in setups)

    os.chdir(workdir)
    record = {"seed": args.seed, "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED}
    record["environment"] = _environment()
    record["setups"] = setups
    record["problems"] = [] if len(input_digests) == 1 else ["setup reps wrote different inputs"]
    attempted = failed = 0
    runs = {}
    for traced in (False, True) if args.trace else (False,):
        tag = "traced" if traced else "untraced"
        runs[tag] = worker("stages", tag, str(args.seconds), str(int(traced)))
        failures, quality, digests = checks.check_outputs(args.workload, stage_names)
        a, f = _account(runs[tag], failures)
        attempted += a
        failed += f
        record["problems"] += [msg for msgs in failures.values() for msg in msgs]
        record[f"{tag}_fit_digests"] = digests

    untraced = runs["untraced"]
    med, e2e = _stage_metrics(untraced)
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = untraced["peak_rss_mb"]
    e2e["spammer_auc"] = quality.get("spammer_auc", 0.0)
    e2e_specs, layer_specs = _metric_specs()
    record.update(
        end_to_end=e2e,
        quality=quality,
        stage_medians=med,
        raw_stage_medians={n: statistics.median(v) for n, v in untraced["samples"].items()},
        stage_samples=untraced["samples"],
        stage_scales=untraced["scales"],
    )
    if args.trace:
        traced = runs["traced"]
        spans = traced.pop("spans")
        run_scales = {f"{n}#{i}": k for n, ks in traced["scales"].items() for i, k in enumerate(ks)}
        layers = tracer.layer_metrics(spans, run_scales)
        layers["trace.overhead_s"] = _stage_metrics(traced)[1]["wall_s"] - e2e["wall_s"]
        layers["simulate.sample_response_table_s"] = statistics.median(
            s["sample_s"] * s["scale"] for s in setups
        )
        layers["scoring.spammer_precision"] = quality.get("spammer_precision", 0.0)
        layers["baselines.ds_precision"] = quality.get("ds_precision", 0.0)
        record["per_layer"] = layers
        with open("spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]} for m in layer_specs}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in e2e_specs}
    correct = not record["problems"] and failed == 0
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for name, m in metrics.items():
        print(f"{args.workload}: {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: failed_ops = {failed}/{attempted}; problems: {record['problems'] or 'none'}")
    print(f"{args.workload}: record in {workdir.relative_to(ROOT)}/result.json")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "glba" / "__init__.py").is_file():
        print(f"error: no glba sources at {SRC}; run from a glba checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
