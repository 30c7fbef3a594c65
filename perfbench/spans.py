"""In-memory span tracer that wraps autoheat's public callables from outside.

The program is not changed: `Tracer.install` replaces every public function
bound in an `autoheat.*` module namespace (each namespace that binds it, so
`forms.maass_values`, `sobolev.maass_values` and `synthesis.maass_values`
all go through one wrapper) and the public methods, `__init__` and
`__call__` of autoheat's working classes (`KBesselScaled`,
`EisensteinEvaluator`, ...).  `Tracer.uninstall` puts the originals back.

A span is (name, start, end, parent, op): perf_counter seconds, the index of
the enclosing span (-1 at top level) and the benchmark operation that was
running.  A span's self time is its duration minus that of its child spans.
Counters are taken at the same call boundaries.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import sys
import time
import types

import numpy as np

_PREFIX = "autoheat"


def _size(x) -> int:
    return int(np.size(x))


# counters taken at a call boundary: span name -> fn(args, kwargs, result) -> {counter: n}
_COUNTERS = {
    "special.KBesselScaled.__call__": lambda a, k, r: {"kbessel_args": _size(a[1])},
    "special.KBesselScaled.accurate": lambda a, k, r: {"kbessel_args": _size(a[1])},
    "sobolev.basis_values": lambda a, k, r: {"basis_cells": _size(r)},
    "spectral_model.build_grid": lambda a, k, r: {"grid_size": r.size},
    "oracle.enumerate_group": lambda a, k, r: {"orbit_points": len(r)},
    "oracle.heat_kernel_plane": lambda a, k, r: {"plane_kernel_points": _size(a[1])},
}

# per-layer metric -> (phase, kind, what): the phase is "setup" (cold eval and
# verify suites, once per run) or "round" (averaged over the timed rounds);
# kind "self" sums the self times of the named spans, "calls" counts them and
# "counter" reads a counter
_SETUP, _ROUND = "setup", "round"
LAYER_METRICS = {
    "special.kbessel_compile_s": (_SETUP, "self", ["special.KBesselScaled.__init__"]),
    "special.kbessel_compiles": (_SETUP, "calls", ["special.KBesselScaled.__init__"]),
    "special.xi_line_s": (_SETUP, "self", ["special.xi_line", "special.zeta_euler_maclaurin",
                                           "special.zeta_line", "special.scattering_phase"]),
    "special.kbessel_eval_s": (_ROUND, "self", ["special.KBesselScaled.__call__",
                                                "special.KBesselScaled.accurate",
                                                "special.bessel_k_imag",
                                                "special.bessel_k_imag_scaled"]),
    "special.kbessel_eval_calls": (_ROUND, "calls", ["special.KBesselScaled.__call__",
                                                     "special.KBesselScaled.accurate"]),
    "special.kbessel_eval_args": (_ROUND, "counter", "kbessel_args"),
    "forms.load_maass_data_s": (_SETUP, "self", ["forms.load_maass_data",
                                                 "forms.parse_maass_data",
                                                 "forms.maass_laplacian_residual"]),
    "forms.normalize_s": (_SETUP, "self", ["forms.normalize_maass_form"]),
    "forms.eisenstein_init_s": (_SETUP, "self", ["forms.EisensteinEvaluator.__init__"]),
    "forms.eisenstein_eval_s": (_ROUND, "self", ["forms.EisensteinEvaluator.unitary_values",
                                                 "forms.EisensteinEvaluator.unitary_value",
                                                 "forms.EisensteinEvaluator.standard_value",
                                                 "forms.EisensteinEvaluator.auto_terms"]),
    "forms.eisenstein_eval_calls": (_ROUND, "calls",
                                    ["forms.EisensteinEvaluator.unitary_values"]),
    "forms.maass_eval_s": (_ROUND, "self", ["forms.maass_values", "forms.eval_maass",
                                            "forms.basepoint_value_maass"]),
    "forms.maass_eval_calls": (_ROUND, "calls", ["forms.maass_values"]),
    "spectral_model.build_grid_s": (_SETUP, "self", ["spectral_model.build_grid",
                                                     "spectral_model.eisenstein_nodes"]),
    "spectral_model.grid_size": (_SETUP, "counter", "grid_size"),
    "sobolev.basis_values_s": (_ROUND, "self", ["sobolev.basis_values"]),
    "sobolev.basis_cells": (_ROUND, "counter", "basis_cells"),
    "synthesis.evaluate_s": (_ROUND, "self", ["synthesis.evaluate_heat_kernel"]),
    "synthesis.evaluate_calls": (_ROUND, "calls", ["synthesis.evaluate_heat_kernel"]),
    "heat.heat_coefficients_s": (_ROUND, "self", ["heat.heat_coefficients"]),
    "oracle.enumerate_group_s": (_ROUND, "self", ["oracle.enumerate_group"]),
    "oracle.orbit_points": (_ROUND, "counter", "orbit_points"),
    "oracle.heat_kernel_plane_s": (_ROUND, "self", ["oracle.heat_kernel_plane"]),
    "oracle.plane_kernel_points": (_ROUND, "counter", "plane_kernel_points"),
    "oracle.orbit_tail_s": (_ROUND, "self", ["oracle.orbit_tail"]),
    "oracle.periodized_oracle_s": (_ROUND, "self", ["oracle.periodized_oracle"]),
    "oracle.basepoint_s": (_ROUND, "self", ["oracle.periodized_oracle_basepoint",
                                            "oracle.matrix_counts_by_norm"]),
    "verify.sobolev_suite_s": (_SETUP, "self", ["verify.sobolev_suite"]),
    "verify.semigroup_suite_s": (_SETUP, "self", ["verify.semigroup_suite"]),
    "verify.heat_suite_s": (_SETUP, "self", ["verify.heat_suite"]),
}


def _autoheat_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == _PREFIX or name.startswith(_PREFIX + "."))]


def _own(obj) -> bool:
    return getattr(obj, "__module__", "").split(".")[0] == _PREFIX


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix(_PREFIX + '.')}.{fn.__qualname__}"


def _traced_class(cls) -> bool:
    return not (dataclasses.is_dataclass(cls) or issubclass(cls, (enum.Enum, BaseException)))


class Tracer:
    """Spans and counters of one benchmark run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.op = "setup"
        self.phase = _SETUP  # aggregates are kept per phase
        self.counters: dict[tuple[str, str], int] = {}
        self._stack: list[int] = []
        self._child: list[float] = []
        self._self: dict[tuple[str, str], float] = {}
        self._calls: dict[tuple[str, str], int] = {}
        self._wrappers: dict[int, types.FunctionType] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _wrap(self, fn):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        name = _span_name(fn)
        count = _COUNTERS.get(name)
        spans, stack, child = self.spans, self._stack, self._child

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            child.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                inner = child.pop()
                if child:
                    child[-1] += end - start
                spans[idx] = (name, start, end, parent, self.op)
                key = (self.phase, name)
                self._self[key] = self._self.get(key, 0.0) + (end - start - inner)
                self._calls[key] = self._calls.get(key, 0) + 1
            if count is not None:
                for counter, n in count(args, kwargs, result).items():
                    key = (self.phase, counter)
                    self.counters[key] = self.counters.get(key, 0) + int(n)
            return result

        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _patch(self, owner, attr, original):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original))

    def install(self) -> None:
        """Wrap every public autoheat callable in every namespace that binds it."""
        classes = []
        for mod in _autoheat_modules():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not _own(obj):
                    continue
                if isinstance(obj, types.FunctionType):
                    self._patch(mod, attr, obj)
                elif isinstance(obj, type) and _traced_class(obj) and obj not in classes:
                    classes.append(obj)
        for cls in classes:
            for attr, obj in list(vars(cls).items()):
                public = not attr.startswith("_") or attr in ("__init__", "__call__")
                if public and isinstance(obj, types.FunctionType):
                    self._patch(cls, attr, obj)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------
    def calls_in(self, phase: str) -> int:
        """Wrapped calls made during a phase."""
        return sum(n for (p, _), n in self._calls.items() if p == phase)

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Every LAYER_METRICS entry; round-phase figures are per round."""
        out = {}
        for metric, (phase, kind, what) in LAYER_METRICS.items():
            if kind == "self":
                v = sum(self._self.get((phase, n), 0.0) for n in what)
            elif kind == "calls":
                v = sum(self._calls.get((phase, n), 0) for n in what)
            else:
                v = self.counters.get((phase, what), 0)
            out[metric] = v / rounds if phase == _ROUND else v
        return out

    def to_json(self) -> dict:
        def table(d):
            return [[phase, name, v] for (phase, name), v in sorted(d.items())]

        return {
            "spans": {"fields": ["name", "start", "end", "parent", "op"],
                      "rows": [list(s) for s in self.spans if s is not None]},
            "self_s": table(self._self),
            "calls": table(self._calls),
            "counters": table(self.counters),
        }


def wrapper_cost_s(n: int = 20_000) -> float:
    """Seconds one wrapped call adds over a direct one (median of five trials)."""

    def noop(x):
        return x

    noop.__module__ = f"{_PREFIX}.bench"
    wrapped = Tracer()._wrap(noop)
    trials = []
    for _ in range(5):
        t0 = time.perf_counter()
        for i in range(n):
            noop(i)
        t1 = time.perf_counter()
        for i in range(n):
            wrapped(i)
        t2 = time.perf_counter()
        trials.append(((t2 - t1) - (t1 - t0)) / n)
    return sorted(trials)[2]
