"""Self-test of the benchmark's accounting: corrupted outputs count as failed.

    PYTHONPATH=src python3 perfbench/selftest.py

Runs a few cheap real jobs through the same run/check path as a pass, each
once as is and once with its output corrupted, and exits non-zero unless
exactly the corrupted copies are counted as failed, and the documented
verify-em failure is counted as failed and as known.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import mpmath as mp

import workloads
from worker import check_jobs, run_jobs


def _bump_series(out):
    f, ch, g = out
    f = type(f)(f.D, dict(f.coeffs), f.trunc)
    f.coeffs[max(f.coeffs)] += 1
    return f, ch, g


def _bump_cli(out):
    rc, text = out
    obj = json.loads(text)
    obj["coeffs"][-1][1] = str(int(obj["coeffs"][-1][1]) + 1)
    return rc, json.dumps(obj)


def _corrupt(job, bump):
    return replace(job, name=job.name + " (corrupted)",
                   call=lambda: bump(job.call()))


def main():
    f, ch, _ = workloads._exact_point(3, 1, 12, None).call()
    pinned = {"3,1,12": {"F": workloads.series_digest(f),
                         "ch": workloads.series_digest(ch)}}
    point = workloads._exact_point(3, 1, 12, pinned)
    coeffs = workloads._exact_cli_coeffs(3, 1, 12, pinned)
    half = workloads._half_index_job([((0.1, 0.2), (0.05, 1.0)),
                                      ((-0.2, 0.1), (0.1, 0.9))])
    jobs = [point, _corrupt(point, _bump_series),
            coeffs, _corrupt(coeffs, _bump_cli),
            half, _corrupt(half, lambda errs: [errs[0] + mp.mpf("1e-20"),
                                               *errs[1:]]),
            workloads._verify_em_cli()]
    outputs, rows = run_jobs(jobs)
    check_jobs(jobs, outputs, rows)
    want_failed = {j.name for j in jobs if j.name.endswith("(corrupted)")}
    want_failed.add("asymptotic.cli.verify-em")
    got_failed = {r["name"] for r in rows if not r["ok"]}
    known = {r["name"] for r in rows if not r["ok"] and r["known"]}
    for r in rows:
        print(f"{r['name']:<40} {'ok' if r['ok'] else 'FAILED'} "
              f"{r.get('failure', '')[:80]}")
    if got_failed != want_failed or known != {"asymptotic.cli.verify-em"}:
        print(f"self-test FAILED: failed {sorted(got_failed)}, "
              f"known {sorted(known)}", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
