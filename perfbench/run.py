"""qchar benchmark: seeded job lists run closed-loop, end to end and per layer.

    python3 perfbench/run.py --workload {exact,asymptotic,quadrature} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root.  Load is a closed loop in one process with
one thread: the next job starts when the previous one returns.  Each pass
runs one job list of the workload, in a fresh interpreter, so qchar's module
caches start cold as they do for a CLI user; passes repeat until
``--seconds`` is spent.  Pass k draws its inputs from seed
``1000 * --seed + k`` (a traced pass uses the seed of the untraced pass it
pairs with), so one run covers several draws of the grid and its medians
hardly depend on the keys a single draw picked.

Times are reported in reference seconds: each job's seconds are scaled by
the host speed measured before, during and after it with a fixed
calibration that does not touch qchar (``hostspeed.py``), since on a shared
host the same pass varies by up to 1.6x from one minute to the next.  Raw
seconds and the measured speed are printed next to them.

``--trace 0`` reports the end-to-end metrics from untraced passes;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of BENCHMARK.json.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the environment, the
job rows of one pass and every metric by name.  The full record, and the
spans of the last traced pass, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("exact", "asymptotic", "quadrature")

SETUP_PROBES = 10     # start-ups measured for setup_s, after a warm-up
CALIB_SAMPLES = 5     # host-speed samples before and after each of them
MIN_PASSES = 2        # per mode, while the run stays within 2x --seconds
HARD_LIMIT_S = 170    # the whole run must end within 180 s


def _environment(child_env):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {**child_env, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": model,
            "git_sha": sha, "platform": platform.platform()}


class Runner:
    def __init__(self, workload, seed, deadline):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep
                        .join(p for p in (SRC, os.environ.get("PYTHONPATH"))
                              if p))
        self.spans_path = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
        os.makedirs(OUT, exist_ok=True)

    def pass_(self, mode, index):
        """One child interpreter; returns (report, setup seconds, seconds)."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), self.workload,
               str(1000 * self.seed + index), mode, self.spans_path]
        spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True,
                                  timeout=max(1.0, self.deadline - spawn))
        except subprocess.TimeoutExpired:
            raise SystemExit(f"error: {mode} pass exceeded the time limit")
        done = time.monotonic()
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise SystemExit(f"error: {mode} pass exited {proc.returncode}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        return report, report["ready"] - spawn, done - spawn

    def setup_probe(self):
        """Set-up seconds of one start-up that stops before the first job,
        in reference seconds: scaled by host-speed samples taken here just
        before the spawn and just after the child exits."""
        before = hostspeed.mean_sample(CALIB_SAMPLES)
        setup = self.pass_("setup", 0)[1]
        after = hostspeed.mean_sample(CALIB_SAMPLES)
        return setup * hostspeed.REF_S / ((before + after) / 2)


def _min_field(rows, key):
    vals = [r[key] for r in rows if key in r]
    return min(vals) if vals else 0.0


def run(args, spec):
    start = time.monotonic()
    runner = Runner(args.workload, args.seed, start + HARD_LIMIT_S)
    runner.pass_("setup", 0)  # warm-up: byte-compiles qchar, fills caches
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]

    modes = ("plain", "traced") if args.trace else ("plain",)
    passes = {m: [] for m in modes}
    measure_start = time.monotonic()
    while True:
        mode = min(modes, key=lambda m: len(passes[m]))
        report, setup, seconds = runner.pass_(mode, len(passes[mode]))
        report["raw_setup_s"] = setup
        passes[mode].append(report)
        # the next pass is predicted to take as long as this one
        fewest = min(len(p) for p in passes.values())
        predicted = time.monotonic() - measure_start + seconds
        if time.monotonic() + seconds > runner.deadline:
            break
        if fewest == 0 or predicted <= args.seconds or (
                fewest < MIN_PASSES and predicted <= 2 * args.seconds):
            continue
        break
    if not all(passes.values()):
        raise SystemExit("error: no time left for a pass of every mode")

    plain = passes["plain"]
    all_passes = [p for ps in passes.values() for p in ps]
    all_rows = [r for p in all_passes for r in p["rows"]]
    attempted = len(all_rows)
    failed = sum(not r["ok"] for r in all_rows)
    unexpected = [r for r in all_rows if not r["ok"] and not r["known"]]
    plain_rows = [r for p in plain for r in p["rows"]]
    plain_failed = sum(not r["ok"] for r in plain_rows)

    values = {
        "wall_s": statistics.median([p["wall_s"] for p in plain]),
        "job_p50_s": statistics.median([p["job_p50_s"] for p in plain]),
        "job_max_s": statistics.median([p["job_max_s"] for p in plain]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median([p["rss_mb"] for p in plain]),
        "ok_frac": 1 - plain_failed / len(plain_rows),
    }
    if args.trace:
        # counts and margins from the first traced pass, whose inputs depend
        # on --seed alone; times as medians over the traced passes
        traced = passes["traced"]
        first = traced[0]
        values.update(first["layers"])
        for name in first["layers"]:
            if name.endswith("self_s"):
                values[name] = statistics.median(
                    [p["layers"][name] for p in traced])
        values.update({
            "cli.output_bytes":
                sum(r.get("output_bytes", 0) for r in first["rows"]),
            "characters.F_ls_numeric.bound_slack_digits":
                _min_field(first["rows"], "bound_slack_digits"),
            "check.margin_digits": _min_field(first["rows"], "margin_digits"),
            "run.cpu_s": statistics.median([p["cpu_s"] for p in plain]),
            "run.raw_wall_s": statistics.median(
                [p["raw_wall_s"] for p in plain]),
            "run.trace_overhead_frac": statistics.median(
                [p["wall_s"] for p in traced]) / values["wall_s"] - 1,
        })
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] not in values:
            raise SystemExit(f"error: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    env = _environment(plain[0]["env"])
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "setup_samples_s": setups, "passes": passes, "metrics": metrics}
    with open(os.path.join(OUT, f"{args.workload}-{args.seed}-"
                                f"trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed}: "
          + ", ".join(f"{len(p)} {m} passes" for m, p in passes.items())
          + f" of {len(plain[0]['rows'])} jobs, "
          f"{len(setups)} set-up samples")
    print("# job rows of the first untraced pass "
          "(seconds, then work counters):")
    for r in plain[0]["rows"]:
        extra = {k: v for k, v in r.items()
                 if k not in ("id", "name", "params", "start", "seconds",
                              "ok", "known")}
        status = "ok" if r["ok"] else ("FAILED (known)" if r["known"]
                                       else "FAILED")
        print(f"#  {r['id']:2d} {r['name']:<36} {r['seconds']:9.4f} s "
              f"{status:<14} {json.dumps(r['params'])} {json.dumps(extra)}")
    print(f"# failed_frac {plain_failed / len(plain_rows):.6f} "
          f"({plain_failed}/{len(plain_rows)} untraced jobs)")
    print("# raw wall seconds per untraced pass "
          f"{[round(p['raw_wall_s'], 3) for p in plain]}, host speed "
          f"{[round(p['speed'], 3) for p in plain]} (1 = reference)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "qchar", "__init__.py")):
        print(f"error: no qchar sources under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
