"""One pass of a workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD PASS_SEED MODE SPANS

MODE is ``setup`` (import and generate inputs, then stop before the first
job), ``plain`` or ``traced``.  The pass runs the job list in order, one job
at a time, then checks every output, and prints one JSON object on stdout.
``ready`` is the CLOCK_MONOTONIC reading when set-up is done, so the
parent can measure set-up from the moment it spawned this process.

Each job runs under a ``hostspeed.Meter``: its row gets the job's raw
``seconds`` and its ``ref_s``, the seconds at the reference host speed.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import time

import mpmath

import qchar.cli  # noqa: F401  -- set-up includes importing every module
import hostspeed
import spans
import workloads


def run_jobs(jobs, tracer=None):
    """Run each job once, in order; returns (outputs, rows)."""
    outputs, rows = [], []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        error = None
        with hostspeed.Meter(tracer and tracer.gap) as meter:
            try:
                out = job.call()
            except Exception as exc:  # a failing job is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
        outputs.append(out)
        rows.append({"id": i, "name": job.name, "params": job.params,
                     "seconds": meter.seconds, "ref_s": meter.ref_s,
                     "calib_s": meter.calib_s,
                     "samples": len(meter.samples), "error": error})
    if tracer is not None:
        tracer.job = "checks"
    return outputs, rows


def check_jobs(jobs, outputs, rows):
    """Apply each job's check; marks rows ok / failed (known or not)."""
    ctx: dict = {}
    for job, out, row in zip(jobs, outputs, rows):
        failure = row.pop("error")
        if failure is None:
            try:
                with mpmath.workprec(workloads.CHECK_PREC):
                    row.update(job.check(out, ctx))
            except workloads.CheckError as exc:
                failure = str(exc)
            except Exception as exc:  # malformed output
                failure = f"check raised {type(exc).__name__}: {exc}"
        row["ok"] = failure is None
        if failure is not None:
            row["failure"] = failure
            row["known"] = bool(job.known_failure
                                and job.known_failure in failure)
    return rows


def main(argv):
    workload, pass_seed, mode, spans_path = argv
    jobs = workloads.WORKLOADS[workload](int(pass_seed))
    tracer = None
    if mode == "traced":
        tracer = spans.Tracer()
        tracer.install()
    ready = time.monotonic()
    report = {"ready": ready,
              "env": {"python": platform.python_version(),
                      "mpmath": mpmath.__version__,
                      "mpmath_backend": mpmath.libmp.BACKEND}}
    if mode != "setup":
        outputs, rows = run_jobs(jobs, tracer)
        check_jobs(jobs, outputs, rows)
        ref = [r["ref_s"] for r in rows]
        speed = statistics.median(hostspeed.REF_S / r["calib_s"]
                                  for r in rows)
        report.update({
            # closed loop: the job list takes the sum of the job latencies
            "wall_s": sum(ref),
            "job_p50_s": statistics.median(ref),
            "job_max_s": max(ref),
            "raw_wall_s": sum(r["seconds"] for r in rows),
            "speed": speed,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
            "cpu_s": time.process_time(),
            "rows": rows,
        })
        if tracer is not None:
            counters = spans.job_counters(tracer.spans)
            for row in rows:
                row.update(counters.get(row["id"], {}))
            layers = spans.summarize(tracer.spans)
            for name in layers:
                if name.endswith(".self_s"):  # to reference seconds
                    layers[name] *= speed
            report["layers"] = layers
            tracer.write(spans_path)
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
