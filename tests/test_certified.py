"""The layering of qchar.certified and the benchmark tracer's contract.

certified is the bottom layer: it loads no other qchar module.  The tracer
in perfbench/spans.py rebinds each traced function in its home module and
in every module of its fixed QCHAR_MODULES list that bound it by
``from ... import``; a traced function bound anywhere else would silently
escape it.
"""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import qchar

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_certified_loads_no_other_qchar_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, qchar.certified; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'qchar'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "['qchar', 'qchar.certified']"


def test_traced_functions_resolve_in_their_home_modules():
    for mod_name, attr, *_ in load_spans().TRACED:
        obj = importlib.import_module(f"qchar.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert obj.__module__ == f"qchar.{mod_name}", (mod_name, attr)


def test_every_module_binding_a_traced_function_is_rebound():
    spans = load_spans()
    traced = {id(getattr(importlib.import_module(f"qchar.{m}"), attr))
              for m, attr, *_ in spans.TRACED if "." not in attr}
    for info in pkgutil.iter_modules(qchar.__path__):
        module = importlib.import_module(f"qchar.{info.name}")
        if any(id(value) in traced for value in vars(module).values()):
            assert info.name in spans.QCHAR_MODULES, info.name
