"""Outside-in per-layer tracing of the pastates public API.

The tracer replaces each traced public function with a wrapper at every
module attribute that holds it, so calls are seen wherever the caller looks
the function up: ``complete`` and ``specfun`` bind ``exp_sinh`` with
``from .quadrature import``, and both bindings are patched in place.  Spans
are aggregated as they close (calls, inclusive time, self time = span minus
its traced children), which keeps memory flat even for the ~10^5 spans of a
``verify all`` battery.  ``restore`` puts every original back.
"""

from __future__ import annotations

import importlib
import time

# (layer, public function) pairs traced, in report order.
TRACED = (
    ("specfun", "kummer_u_int"),
    ("specfun", "legendre_q"),
    ("specfun", "gauss_2f1"),
    ("specfun", "generalized_pfq"),
    ("specfun", "legendre_p_deriv"),
    ("quadrature", "exp_sinh"),
    ("quadrature", "tanh_sinh"),
    ("fockstate", "pasvs"),
    ("fockstate", "pasops"),
    ("fockstate", "pacsc"),
    ("fockstate", "csc"),
    ("fockstate", "sns"),
    ("fockstate", "inner"),
    ("overlap", "pasvs_overlap"),
    ("overlap", "pasops_overlap"),
    ("overlap", "csc_norm"),
    ("overlap", "pacsc_norm"),
    ("complete", "moment_check"),
    ("complete", "unity_resolution_matrix"),
    ("complete", "discrete_completeness_matrix"),
    ("complete", "sns_completeness_matrix"),
    ("complete", "weight_h"),
    ("complete", "weight_h1m"),
    ("complete", "weight_hmum"),
    ("cli", "main"),
)

# Every module whose namespace may hold a binding of a traced function.
MODULES = (
    "pastates",
    "pastates.specfun",
    "pastates.quadrature",
    "pastates.fockstate",
    "pastates.overlap",
    "pastates.complete",
    "pastates.cli",
)

_QUAD = ("quadrature.exp_sinh", "quadrature.tanh_sinh")
_CONSTRUCTORS = (
    "fockstate.pasvs",
    "fockstate.pasops",
    "fockstate.pacsc",
    "fockstate.csc",
    "fockstate.sns",
)
_OVERLAPS = ("overlap.pasvs_overlap", "overlap.pasops_overlap")
_ORACLE_PARTS = ("fockstate.pasvs", "fockstate.pasops", "fockstate.inner")
_RADIAL_PARENTS = ("complete.moment_check", "complete.unity_resolution_matrix")

WRAPPED_MARK = "__bench_traced__"


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.work = 0   # nodes_used or len(coeffs), summed over calls


class Tracer:
    """Installs span-recording wrappers; records only while ``active``."""

    def __init__(self):
        self.active = False
        self.stats = {f"{layer}.{fn}": _Stat() for layer, fn in TRACED}
        self.unconverged = {name: 0 for name in _QUAD}
        self.top_overlaps = {name: 0 for name in _OVERLAPS}
        self.oracle_vectors = {name: 0 for name in _OVERLAPS}
        self.oracle_s = 0.0
        self.kummer_quad_nodes = 0
        self.radial_integrals = 0
        self.kummer_in_radial = 0
        self._stack: list[list] = []     # [name, child_seconds] per open span
        self._patched: list[tuple] = []  # (module, attribute, original)

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(name) for name in MODULES]
        for layer, fn in TRACED:
            original = getattr(importlib.import_module(f"pastates.{layer}"), fn)
            wrapper = self._wrap(f"{layer}.{fn}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, name, fn):
        tracer = self
        stat = self.stats[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            tracer._count(name, result, dur)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    # ------------------------------------------------------------ counters

    def _count(self, name, result, dur) -> None:
        """Work counters, attributed by the open spans above this one."""
        if name in _QUAD:
            self.stats[name].work += result.nodes_used
            if not result.converged:
                self.unconverged[name] += 1
            if name == "quadrature.exp_sinh" and self._stack:
                parent = self._stack[-1][0]
                if parent == "specfun.kummer_u_int":
                    self.kummer_quad_nodes += result.nodes_used
                elif parent in _RADIAL_PARENTS:
                    self.radial_integrals += 1
        elif name == "specfun.kummer_u_int":
            if any(frame[0] == "quadrature.exp_sinh" for frame in self._stack):
                self.kummer_in_radial += 1
        if name in _CONSTRUCTORS:
            self.stats[name].work += len(result.coeffs)
        if name in _OVERLAPS or name in _ORACLE_PARTS:
            outer = next((frame[0] for frame in self._stack if frame[0] in _OVERLAPS), None)
            if name in _OVERLAPS:
                if outer is None:
                    self.top_overlaps[name] += 1
            elif outer is not None:
                self.oracle_s += dur
                if name != "fockstate.inner":
                    self.oracle_vectors[outer] += 1

    # ------------------------------------------------------------ report

    def metrics(self, passes: int, traced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics, each normalized per pass of the workload's
        input set (counts and times alike)."""
        n = max(passes, 1)
        out: dict[str, float] = {}

        def ratio(num, den):
            return num / den if den else 0.0

        def stat(name):
            return self.stats[name]

        for fn in ("kummer_u_int", "legendre_q", "gauss_2f1", "generalized_pfq", "legendre_p_deriv"):
            s = stat(f"specfun.{fn}")
            out[f"specfun.{fn}.calls"] = s.calls / n
            out[f"specfun.{fn}.self_s"] = s.self_s / n
        kummer = stat("specfun.kummer_u_int")
        out["specfun.kummer_u_int.quad_nodes_per_call"] = ratio(self.kummer_quad_nodes, kummer.calls)
        out["specfun.kummer_u_int.wall_share"] = ratio(kummer.total_s, traced_wall_s)

        for name in _QUAD:
            s = stat(name)
            out[f"{name}.calls"] = s.calls / n
            out[f"{name}.self_s"] = s.self_s / n
            out[f"{name}.nodes_per_call"] = ratio(s.work, s.calls)
            out[f"{name}.unconverged"] = self.unconverged[name] / n

        for name in _CONSTRUCTORS:
            s = stat(name)
            out[f"{name}.calls"] = s.calls / n
            out[f"{name}.self_s"] = s.self_s / n
            out[f"{name}.coeffs_per_call"] = ratio(s.work, s.calls)
        out["fockstate.inner.calls"] = stat("fockstate.inner").calls / n
        out["fockstate.inner.self_s"] = stat("fockstate.inner").self_s / n

        for fn in ("pasvs_overlap", "pasops_overlap", "csc_norm", "pacsc_norm"):
            s = stat(f"overlap.{fn}")
            out[f"overlap.{fn}.calls"] = s.calls / n
            out[f"overlap.{fn}.self_s"] = s.self_s / n
        for name in _OVERLAPS:
            out[f"{name}.oracle_vectors_per_call"] = ratio(
                self.oracle_vectors[name], self.top_overlaps[name]
            )
        out["overlap.oracle_vectors_per_overlap"] = ratio(
            sum(self.oracle_vectors.values()), sum(self.top_overlaps.values())
        )
        out["overlap.oracle_wall_share"] = ratio(self.oracle_s, traced_wall_s)

        for fn in (
            "moment_check",
            "unity_resolution_matrix",
            "discrete_completeness_matrix",
            "sns_completeness_matrix",
            "weight_h",
            "weight_h1m",
            "weight_hmum",
        ):
            s = stat(f"complete.{fn}")
            out[f"complete.{fn}.calls"] = s.calls / n
            out[f"complete.{fn}.self_s"] = s.self_s / n
        out["complete.kummer_calls_per_radial_integral"] = ratio(
            self.kummer_in_radial, self.radial_integrals
        )

        out["cli.main.calls"] = stat("cli.main").calls / n
        out["cli.main.self_s"] = stat("cli.main").self_s / n
        return out


def traced_bindings() -> list[tuple[str, str]]:
    """(module, attribute) pairs currently holding a tracer wrapper."""
    found = []
    for name in MODULES:
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            if hasattr(value, WRAPPED_MARK):
                found.append((name, attr))
    return found
