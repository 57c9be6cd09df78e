"""The layering of qchar.certified and the benchmark's contract with qchar.

certified is the bottom layer: it loads no other qchar module.  The tracer
in perfbench/spans.py rebinds each traced function in its home module and
in every module of its fixed QCHAR_MODULES list that bound it by
``from ... import``; a traced function bound anywhere else would silently
escape it.  The workloads in perfbench/workloads.py call qchar's functions
and CLI and check what they return; one pass of each must pass its checks,
in process and as a traced perfbench/worker.py run.
"""

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import qchar

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(name):
    """perfbench/<name>.py, read as it is, under the name perfbench_<name>."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def src_env():
    """The environment with ROOT/src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_certified_loads_no_other_qchar_module():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, qchar.certified; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'qchar'))"],
        env=src_env(), capture_output=True, text=True, check=True).stdout
    assert out.strip() == "['qchar', 'qchar.certified']"


def test_traced_functions_resolve_in_their_home_modules():
    for mod_name, attr, *_ in load_perfbench("spans").TRACED:
        obj = importlib.import_module(f"qchar.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert obj.__module__ == f"qchar.{mod_name}", (mod_name, attr)


def test_every_module_binding_a_traced_function_is_rebound():
    spans = load_perfbench("spans")
    traced = {id(getattr(importlib.import_module(f"qchar.{m}"), attr))
              for m, attr, *_ in spans.TRACED if "." not in attr}
    for info in pkgutil.iter_modules(qchar.__path__):
        module = importlib.import_module(f"qchar.{info.name}")
        if any(id(value) in traced for value in vars(module).values()):
            assert info.name in spans.QCHAR_MODULES, info.name


@pytest.mark.parametrize("workload", ["exact", "asymptotic", "quadrature"])
def test_one_benchmark_pass_meets_its_checks(workload):
    # as perfbench/worker.py runs a pass: every job, then every check in
    # order with one shared ctx, at the checks' precision
    workloads = load_perfbench("workloads")
    jobs = workloads.WORKLOADS[workload](8)
    outputs = [job.call() for job in jobs]
    ctx = {}
    with mp.workprec(workloads.CHECK_PREC):
        for job, out in zip(jobs, outputs):
            job.check(out, ctx)


@pytest.mark.parametrize("workload", ["exact", "asymptotic", "quadrature"])
def test_one_traced_benchmark_pass_meets_its_checks(workload, tmp_path):
    # the tracer's hooks read qchar's internals (ZetaQSeries.data, the
    # coefficients of invert's result, _F_ls_via_H_series' third argument);
    # a traced pass in a fresh interpreter fails if they no longer fit
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload,
         "8", "traced", str(tmp_path / "spans.json")],
        env=src_env(), capture_output=True, text=True, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert [row for row in report["rows"] if not row["ok"]] == []
    assert report["layers"]
