"""rarepred benchmark: three workloads, end-to-end metrics, a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline_forest --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, with timings in units of a reference
computation sampled alongside (see perfbench/speed.py); with ``--trace 1``
they are the per-layer ones, and the spans are written to
``.perfbench/traces/``. The line before it is a JSON object of details:
machine facts, per-model AUCs, the timings in wall-clock units, the tail
percentile and its sample count, and any check that failed. See
perfbench/README.md for the workloads and what each metric should explain.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: at or below the CPU count on any machine, and steadier
# timings on a small shared one. Must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")


def machine_facts() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and which
    percentile that is; with fewer than eleven samples, the maximum."""
    ordered = sorted(latencies)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(res) -> tuple[dict, dict]:
    tail_ref, percentile = tail(res.latencies_ref)
    tail_s, _ = tail(res.latencies_s)
    reference_s = res.probe.durations()
    metrics = {
        "setup_s": (statistics.median(res.setup_s), "s"),
        "run_ref": (statistics.median(res.rep_ref), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "batch_p50_ref": (statistics.median(res.latencies_ref), "ref"),
        "batch_tail_ref": (tail_ref, "ref"),
        "test_auc": (statistics.fmean(res.quality.values()) if res.quality else 0.0, "auc"),
    }
    detail = {
        # the same timings in wall-clock units, which follow the host's speed
        "run_s": statistics.median(res.rep_s),
        "batch_p50_ms": 1000 * statistics.median(res.latencies_s),
        "batch_tail_ms": 1000 * tail_s,
        "reference_ms": 1000 * statistics.median(reference_s),
        "reference_samples": len(reference_s),
        "batch_tail_percentile": percentile,
        "batch_samples": len(res.latencies_ref),
        "setup_s_samples": res.setup_s,
        "run_s_samples": res.rep_s,
        "run_ref_samples": res.rep_ref,
    }
    return metrics, detail


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith((".bytes", ".rows")):
        return name.rsplit(".", 1)[1]
    return "count"


def per_layer(res, workload, tracer) -> tuple[dict, dict, list[str]]:
    import tracer as tracing

    values, unsteady = tracing.layer_metrics(
        tracer, res.setup_runs, res.measured_runs
    )
    values["trace.overhead_s"] = (
        statistics.median(res.traced_rep_s) - statistics.median(res.rep_s)
    )
    metrics = {name: (values.get(name, 0.0), _unit(name)) for name in tracing.PER_LAYER}
    fired = {s.name for s in tracer.spans}
    problems = [f"expected span never fired: {name}" for name in sorted(workload.expect - fired)]
    measured_runs = set(res.measured_runs)
    broken = {
        (s.name, s.run) for s in tracer.spans
        if s.name.startswith(workload.forbid)
        or (s.run in measured_runs and s.name.startswith(workload.forbid_measured))
    }
    problems += [f"predicted bypass broken: {name} fired in {run}" for name, run in sorted(broken)]
    problems += [f"counter did not repeat: {name}" for name in unsteady]
    detail = {
        "traced_run_s": res.traced_rep_s,
        "untraced_run_s": res.rep_s,
        "setup_s_samples": res.setup_s,
        # share of each step's time spent in traced calls into other layers
        "step_coverage": {
            name[:-2]: 1 - values[f"{name[:-2]}.self_s"] / values[name]
            for name in sorted(values) if name.startswith("cli.step.") and name.endswith(".s")
        },
        "spans": len(tracer.spans),
    }
    return metrics, detail, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "rarepred")):
        print(f"error: no rarepred sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    work_dir = os.path.join(OUT, "runs", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        res = workload.run(args.seed, args.seconds, work_dir, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    detail = {"workload": args.workload, "seed": args.seed, "machine": machine_facts()}
    detail.update(res.detail, quality=res.quality)
    problems = []
    if tracer is None:
        metrics, extra = end_to_end(res)
    else:
        metrics, extra, problems = per_layer(res, workload, tracer)
        trace_path = os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        extra["trace_file"] = os.path.relpath(trace_path, ROOT)
    detail.update(extra, problems=problems)
    correct = res.failed == 0 and not problems
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
