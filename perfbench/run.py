"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload study --seed 1 --seconds 20 --trace 0

Steps: time ``SETUP_PROBES`` fresh-process set-ups, set up in this
process, run the fixed-seed reference rep and compare its output
digest with ``digests.json``, then repeat seeded reps for
``--seconds`` and check the outputs.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs every rep
twice, untraced and traced, and reports the per-layer metrics.  The
last line of standard output is the result as one JSON object; the
full record (host, samples, spans) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

# One BLAS thread, set before NumPy loads (the set-up probes inherit
# it): the workloads run in one process with no extra threads, and
# OpenBLAS's worker threads made run times swing with the host's load.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_setups(workload: str, scratch: str) -> list[float]:
    samples = []
    for index in range(SETUP_PROBES):
        directory = os.path.join(scratch, f"probe{index}")
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, directory],
            check=True,
            timeout=120,
        )
        samples.append(time.perf_counter() - started)
        shutil.rmtree(directory, ignore_errors=True)
    return samples


def timed_phase(workload, seed: int, seconds: float, trace: bool, tracer, clock):
    """Repeat reps until ``seconds`` have passed (at least one rep).

    Traced runs run each rep seed untraced and traced, alternating
    which goes first, so the overhead compares like with like.
    """
    from layers import count_retries, targets
    from workloads import rep_seed

    plain, traced = [], []
    started = time.perf_counter()
    index = 0
    while True:
        rep_input = rep_seed(seed, index)
        order = (False, True) if index % 2 == 0 else (True, False)
        for with_trace in order if trace else (False,):
            if with_trace:
                workload.tracer = tracer
                tracer.install(targets(tracer))
                count_retries(tracer)
                try:
                    traced.append(workload.run_rep(rep_input, f"rep{index}t"))
                finally:
                    tracer.uninstall()
            else:
                workload.tracer = clock
                plain.append(workload.run_rep(rep_input, f"rep{index}"))
        index += 1
        if time.perf_counter() - started >= seconds:
            return plain, traced


def end_to_end(reps, setup_samples, rsm_nrmse: float) -> dict[str, float]:
    from measure import median, peak_rss_mb

    return {
        "setup_s": median(setup_samples),
        # Per rep, so one rep slowed by the host moves the median less
        # than it moves a run-wide total.
        "points_per_s": median([rep.simulated / rep.wall_s for rep in reps]),
        "time_to_surrogate_s": median([rep.surrogate_s for rep in reps]),
        "warm_rerun_s": median([s for rep in reps for s in rep.warm_s]),
        "time_to_optimum_s": median([rep.optimum_s for rep in reps]),
        # Counts and scores repeat exactly per rep seed; the mean over
        # reps moves less between runs than a median of few.
        "evals_to_optimum": statistics.fmean(rep.simulated for rep in reps),
        "optimum_desirability": statistics.fmean(rep.desirability for rep in reps),
        "rsm_predict_us": median([s for rep in reps for s in rep.predict_s]) * 1e6,
        "rsm_nrmse": rsm_nrmse,
        "peak_rss_mb": peak_rss_mb(),
    }


def report_lines(metrics, units, reps, host) -> list[str]:
    from measure import tail_percentile

    lines = [f"host: {json.dumps(host, sort_keys=True)}"]
    samples = {
        "time_to_surrogate_s": [rep.surrogate_s for rep in reps],
        "time_to_optimum_s": [rep.optimum_s for rep in reps],
        "warm_rerun_s": [s for rep in reps for s in rep.warm_s],
        "rsm_predict_us": [s * 1e6 for rep in reps for s in rep.predict_s],
    }
    for name, value in metrics.items():
        line = f"{name} = {value:.6g} {units[name]}"
        if name in samples:
            tail = tail_percentile(samples[name])
            line += f" (median of {len(samples[name])}"
            if tail is not None:
                line += f"; p{tail[0]:g} {tail[1]:.6g}"
            line += ")"
        if name == "points_per_s":
            line += (
                f"; x calibration = {value * host['calibration_s']:.6g} "
                "points per calibration run"
            )
        lines.append(line)
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    from ledger import Tracer
    from layers import layer_metrics
    from measure import host_record, median
    from workloads import REFERENCE_SEED, WORKLOADS

    out_dir = os.path.join(ROOT, ".perfbench_out")
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    scratch = os.path.join(out_dir, run_id)
    os.makedirs(scratch, exist_ok=True)
    try:
        host = host_record()
        setup_samples = time_setups(args.workload, scratch)
        clock = Tracer(run_id)
        tracer = Tracer(run_id)
        workload = WORKLOADS[args.workload](scratch, clock)
        workload.setup()

        problems = []
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
            pinned = json.load(handle)
        reference = workload.run_rep(REFERENCE_SEED, "reference")
        digest = workload.digest(reference)
        if digest != pinned.get(args.workload):
            problems.append(
                f"reference digest {digest} != pinned {pinned.get(args.workload)}"
            )
        problems += reference.problems

        plain, traced = timed_phase(
            workload, args.seed, args.seconds, bool(args.trace), tracer, clock
        )
        reps = traced if args.trace else plain
        problems += [p for rep in plain + traced for p in rep.problems]
        problems += workload.check(reps)
        attempted = sum(rep.attempted for rep in reps)
        failed = sum(rep.failed for rep in reps)

        if args.trace:
            counters = {}
            for rep in traced:
                for key, value in rep.counters.items():
                    counters[key] = counters.get(key, 0) + value
            metrics, trace_problems = layer_metrics(
                tracer,
                counters,
                failed,
                untraced_wall_s=sum(rep.wall_s for rep in plain),
                rsm_predict_s=median([s for rep in traced for s in rep.predict_s]),
            )
            problems += trace_problems
            wanted = spec["per_layer"]
            tracer.dump(os.path.join(out_dir, f"{run_id}.spans.json"))
        else:
            metrics = end_to_end(
                plain, setup_samples, workload.accuracy(plain, reference)
            )
            wanted = spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in wanted}
        metrics = {name: float(metrics[name]) for name in units}
        for line in report_lines(metrics, units, reps, host):
            print(line)
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "host": host,
            "reference_digest": digest,
            "setup_samples_s": setup_samples,
            "reps": [
                {
                    key: value
                    for key, value in vars(rep).items()
                    if key not in ("outputs", "predict_s")
                }
                for rep in reps
            ],
            "problems": problems,
            "metrics": metrics,
        }
        with open(os.path.join(out_dir, f"{run_id}.json"), "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
