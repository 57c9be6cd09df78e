"""Spans around qchar's public functions, installed from outside the package.

Each traced function is replaced by a wrapper in its defining module and in
every qchar module that bound it with ``from ... import ...`` (for example
``qchar.characters.poch_ratio_bivariate`` and
``qchar.decomposition.euler_phi_numeric``); two hot methods are wrapped on
their classes.  qchar's source is not changed.

A span is ``[name, start, end, parent, job, cover_start, cover_end, attrs]``.
``cover_*`` also spans the wrapper's own bookkeeping, so that a parent's
self time (its duration minus the time its child spans cover) does not
absorb the cost of tracing its children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import qchar.exact_series as exact_series


def _bits(values):
    out = 0
    for c in values:
        out = max(out, abs(c.numerator).bit_length(),
                  c.denominator.bit_length())
    return out


def _mul_pre(args, kwargs):
    return {"term_pairs": len(args[0].coeffs) * len(args[1].coeffs)}


def _series_bits(out, attrs):
    attrs = attrs or {}
    attrs["bits"] = _bits(out.coeffs.values())
    return attrs


def _zeta_post(out, attrs):
    bits = max((abs(c).bit_length() for c in out.data.values()), default=0)
    return {"entries_out": len(out.data), "bits": bits}


def _trunc_pre(args, kwargs):
    return {"trunc": args[2]}


def _rc_post(out, attrs):
    return {"rc": out}


def _series_pair(args):
    return isinstance(args[1], exact_series.ExactQSeries)


# (module, attribute or Class.method, span name, pre, post)
TRACED = [
    ("exact_series", "ZetaQSeries.mul_factor", "exact_series.zeta_mul_factor",
     None, _zeta_post),
    ("exact_series", "ExactQSeries.__mul__", "exact_series.qseries_mul",
     _mul_pre, _series_bits),
    ("exact_series", "ExactQSeries.invert", "exact_series.invert",
     None, _series_bits),
    ("exact_series", "euler_product_pow", "exact_series.euler_product_pow",
     None, None),
    ("exact_series", "poch_ratio_bivariate",
     "exact_series.poch_ratio_bivariate", None, None),
    ("characters", "coeff_series_exact", "characters.coeff_series_exact",
     None, None),
    ("characters", "F_ls_exact", "characters.F_ls_exact", None, None),
    ("characters", "character_ch", "characters.character_ch", None, None),
    ("characters", "_F_ls_via_H_series", "characters.via_H_series",
     _trunc_pre, None),
    ("characters", "F_ls_numeric", "characters.F_ls_numeric", None, None),
    ("characters", "H_value", "characters.H_value", None, None),
    ("characters", "fourier_coeff_by_quadrature",
     "characters.fourier_quadrature", None, None),
    ("modular_objects", "theta", "modular_objects.theta", None, None),
    ("modular_objects", "eta", "modular_objects.eta", None, None),
    ("modular_objects", "euler_phi_numeric",
     "modular_objects.euler_phi_numeric", None, None),
    ("modular_objects", "eisenstein_G2k", "modular_objects.eisenstein_G2k",
     None, None),
    ("modular_objects", "g_ell", "modular_objects.g_ell", None, None),
    ("modular_objects", "laurent_coefficients_D",
     "modular_objects.laurent_coefficients_D", None, None),
    ("partial_theta", "partial_theta", "partial_theta.partial_theta",
     None, None),
    ("partial_theta", "script_F", "partial_theta.script_FG", None, None),
    ("partial_theta", "script_G", "partial_theta.script_FG", None, None),
    ("decomposition", "F_ls_multivar_quadrature", "decomposition.quadrature",
     None, None),
    ("decomposition", "F_ell_product", "decomposition.product", None, None),
    ("decomposition", "F_ls_decomposed", "decomposition.decomposed",
     None, None),
    ("decomposition", "random_admissible_point",
     "decomposition.sample_point", None, None),
    ("modular_transform", "mordell_integral",
     "modular_transform.mordell_integral", None, None),
    ("modular_transform", "verify_S_transform",
     "modular_transform.S_transform", None, None),
    ("modular_transform", "verify_general_transform",
     "modular_transform.general_transform", None, None),
    ("asymptotics", "sl3_bracket_value", "asymptotics.sl3_bracket_value",
     None, None),
    ("asymptotics", "qdim_ratio", "asymptotics.qdim_ratio", None, None),
    ("asymptotics", "verify_appendix", "asymptotics.verify_appendix",
     None, None),
    ("bernoulli_euler", "bernoulli_number", "bernoulli_euler.bernoulli_number",
     None, None),
    ("cli", "main", "cli.main", None, _rc_post),
]

QCHAR_MODULES = ("exact_series", "bernoulli_euler", "modular_objects",
                 "partial_theta", "characters", "decomposition",
                 "modular_transform", "asymptotics", "cli")


class Tracer:
    """Collects spans in memory; ``job`` labels the spans opened next."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = "setup"
        self._stack: list[int] = []

    def wrap(self, name, fn, pre=None, post=None, only=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if only is not None and not only(args):
                return fn(*args, **kwargs)
            cover_start = clock()
            attrs = pre(args, kwargs) if pre else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job,
                    cover_start, 0.0, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[2] = span[6] = clock()
                stack.pop()
                raise
            span[2] = clock()
            stack.pop()
            if post:
                span[7] = post(out, attrs)
            span[6] = clock()
            return out

        return wrapper

    def gap(self, start, end):
        """Records time spent inside the open span on work that is not
        qchar's (a host-speed sample), so that it is not the span's self
        time."""
        self.spans.append(["hostspeed.sample", start, end,
                           self._stack[-1] if self._stack else -1, self.job,
                           start, end, None])

    def install(self):
        """Wrap every entry of TRACED wherever qchar binds it."""
        mods = [importlib.import_module(f"qchar.{m}") for m in QCHAR_MODULES]
        for mod_name, attr, name, pre, post in TRACED:
            home = importlib.import_module(f"qchar.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                fn = getattr(cls, meth)
                # series x series only; scalar products are not counted
                only = _series_pair if meth == "__mul__" else None
                wrapped = self.wrap(name, fn, pre, post, only)
                for other in list(vars(cls)):
                    if getattr(cls, other) is fn:  # __rmul__ = __mul__
                        setattr(cls, other, wrapped)
                continue
            fn = getattr(home, attr)
            wrapped = self.wrap(name, fn, pre, post)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def write(self, path):
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": sp[0], "start": sp[1],
                                     "end": sp[2], "parent": sp[3],
                                     "job": sp[4], "attrs": sp[7]}) + "\n")


def summarize(spans) -> dict:
    """Per-layer counters of one traced pass, keyed by metric name."""
    covered = [0.0] * len(spans)
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            covered[sp[3]] += sp[6] - sp[5]
            children[sp[3]].append(i)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    sums = defaultdict(int)
    bits = 0
    rounds, final_trunc = [], 0
    for i, sp in enumerate(spans):
        name, attrs = sp[0], sp[7] or {}
        calls[name] += 1
        self_s[name] += (sp[2] - sp[1]) - covered[i]
        for key in ("term_pairs", "entries_out", "trunc"):
            sums[(name, key)] += attrs.get(key, 0)
        bits = max(bits, attrs.get("bits", 0))
        if name == "cli.main" and attrs.get("rc"):
            sums["nonzero_exits"] += 1
        if name == "characters.F_ls_numeric":
            kids = [spans[k] for k in children[i]
                    if spans[k][0] == "characters.via_H_series"]
            rounds.append(len(kids))
            if kids:
                final_trunc = max(final_trunc, kids[-1][7]["trunc"])
        if name == "modular_objects.g_ell" and sp[3] >= 0 and \
                spans[sp[3]][0] == "characters.fourier_quadrature":
            sums["g_ell_evals"] += 1
    out = {}
    for name in set(calls) | {n for _, _, n, _, _ in TRACED}:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    requests = calls["characters.coeff_series_exact"]
    builds = calls["exact_series.poch_ratio_bivariate"]
    out.update({
        "exact_series.zeta_mul_factor.entries_out":
            sums[("exact_series.zeta_mul_factor", "entries_out")],
        "exact_series.qseries_mul.term_pairs":
            sums[("exact_series.qseries_mul", "term_pairs")],
        "exact_series.max_coeff_bits": bits,
        "characters.bivariate.requests": requests,
        "characters.bivariate.builds": builds,
        "characters.bivariate.hit_ratio":
            1 - builds / requests if requests else 0.0,
        "characters.via_H_series.trunc_sum":
            sums[("characters.via_H_series", "trunc")],
        "characters.F_ls_numeric.rounds":
            sum(rounds) / len(rounds) if rounds else 0.0,
        "characters.F_ls_numeric.final_trunc": final_trunc,
        "characters.fourier_quadrature.g_ell_evals": sums["g_ell_evals"],
        "decomposition.product_evals": calls["decomposition.product"],
        "cli.nonzero_exits": sums["nonzero_exits"],
    })
    return out


def job_counters(spans) -> dict:
    """Work counters per job id from one traced pass."""
    per_job = defaultdict(lambda: defaultdict(int))
    for sp in spans:
        row, attrs = per_job[sp[4]], sp[7] or {}
        if sp[0] == "decomposition.product":
            row["product_evals"] += 1
        elif sp[0] == "modular_objects.g_ell":
            row["g_ell_evals"] += 1
        elif sp[0] == "characters.via_H_series":
            row["via_H_calls"] += 1
            row["via_H_trunc_max"] = max(row["via_H_trunc_max"],
                                         attrs["trunc"])
        elif sp[0] == "exact_series.zeta_mul_factor":
            row["zeta_entries_out"] += attrs.get("entries_out", 0)
        elif sp[0] == "modular_transform.mordell_integral":
            row["mordell_integrals"] += 1
    return {job: dict(row) for job, row in per_job.items()}
