"""Per-layer tracing from outside the program.

Wrappers are installed around the public functions of each kportrait
layer, on every module that binds the function (``integrate`` is bound in
both ``kportrait.numerics`` and ``kportrait.portrait``, ``build_portrait`` in
``kportrait.portrait`` and ``kportrait.cli``), so calls are seen whichever
name the caller uses.  A name a later change removes is reported as absent
instead of failing the run.  Spans stay in memory and are reduced to
per-layer metrics when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# layer -> traced public functions
LAYERS = {
    "model": ("classify_case", "finite_singular_points"),
    "compactify": ("compactify", "chart_transition", "family_infinite_points"),
    "local": ("hopf_analysis", "lyapunov_procedural", "dulac_check", "uniqueness_check"),
    "numerics": (
        "integrate",
        "return_map",
        "detect_limit_cycle",
        "separatrix_section_crossing",
        "cycle_loop",
        "conjecture_scan",
        "scan_to_csv",
    ),
    "portrait": ("build_portrait", "render_svg", "write_report"),
    "cli": ("main",),
}

TERMINALS = ("max-time", "converged-to-point", "escaped", "hit-section", "chart-boundary-loop", "failed")


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for span in span_names():
        names += [f"{span}.calls", f"{span}.self_ms"]
    names += [
        "numerics.integrate.steps",
        "numerics.integrate.steps_per_ms",
        "numerics.integrate.chart_steps",
        "numerics.integrate.raised",
        *(f"numerics.integrate.terminal.{t}" for t in TERMINALS),
        "numerics.return_map.no_return",
        "numerics.detect_limit_cycle.return_maps_per_call",
        "numerics.detect_limit_cycle.found_ratio",
        "portrait.render_svg.bytes",
        "portrait.write_report.bytes",
        "trace.overhead_ratio",
    ]
    return names


def unit(metric: str) -> str:
    if metric.endswith("_per_ms"):
        return "1/ms"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith(("ratio", ".no_return", "_per_call")):
        return "ratio"
    return "count"


def _orbit_counts(orbit) -> dict:
    samples = getattr(orbit, "samples", None)
    if not isinstance(samples, list) or not samples:
        return {}
    charts = sum(1 for s in samples if isinstance(s, tuple) and len(s) > 1 and s[1] in ("U1", "U2"))
    return {
        "steps": len(samples) - 1,
        "chart_steps": charts,
        "terminal": str(getattr(orbit, "terminal", "")),
    }


def _on_result(span: str, result) -> dict:
    """Work counts read off a returned value."""
    if span == "numerics.integrate":
        return _orbit_counts(result)
    if span == "numerics.detect_limit_cycle":
        return {"found": bool(getattr(result, "found", False))}
    if span in ("portrait.render_svg", "portrait.write_report") and isinstance(result, str):
        return {"bytes": len(result.encode())}
    return {}


def _on_raise(span: str, exc: BaseException) -> dict:
    attrs = {"raised": type(exc).__name__}
    if span == "numerics.integrate":
        # IntegrationFailure carries the partial orbit
        attrs.update(_orbit_counts(getattr(exc, "orbit", None)))
    return attrs


class Tracer:
    """Records one span per call of each traced function while enabled."""

    def __init__(self) -> None:
        # span: [name, parent index, start, end, attrs]
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "kportrait" or n.startswith("kportrait.")]
        for span in span_names():
            layer, fn_name = span.split(".")
            try:
                home = importlib.import_module(f"kportrait.{layer}")
            except ImportError:
                self.absent.append(span)
                continue
            orig = getattr(home, fn_name, None)
            if not callable(orig):
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    @contextlib.contextmanager
    def recording(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    @contextlib.contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _wrap(self, span: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            rec = [span, tracer._stack[-1] if tracer._stack else -1, 0.0, 0.0, None]
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[3] = time.perf_counter()
                rec[4] = _on_raise(span, exc)
                raise
            finally:
                tracer._stack.pop()
            rec[3] = time.perf_counter()
            rec[4] = _on_result(span, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Reduce the spans to the per-layer metrics of ``metric_names``."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for span in span_names():
            out[f"{span}.calls"] = 0
            out[f"{span}.self_ms"] = 0.0
        steps = chart_steps = raised = no_return = found = rm_in_dlc = svg_bytes = rep_bytes = 0
        terminals = dict.fromkeys(TERMINALS, 0)
        for k, (name, parent, t0, t1, attrs) in enumerate(self.spans):
            attrs = attrs or {}
            out[f"{name}.calls"] += 1
            out[f"{name}.self_ms"] += (t1 - t0 - child[k]) * 1e3
            if name == "numerics.integrate":
                steps += attrs.get("steps", 0)
                chart_steps += attrs.get("chart_steps", 0)
                raised += "raised" in attrs
                if attrs.get("terminal") in terminals:
                    terminals[attrs["terminal"]] += 1
            elif name == "numerics.return_map":
                no_return += attrs.get("raised") == "NoReturnError"
                if self._has_ancestor(parent, "numerics.detect_limit_cycle"):
                    rm_in_dlc += 1
            elif name == "numerics.detect_limit_cycle":
                found += attrs.get("found", False)
            elif name == "portrait.render_svg":
                svg_bytes += attrs.get("bytes", 0)
            elif name == "portrait.write_report":
                rep_bytes += attrs.get("bytes", 0)
        integrate_ms = out["numerics.integrate.self_ms"]
        rm_calls = out["numerics.return_map.calls"]
        dlc_calls = out["numerics.detect_limit_cycle.calls"]
        out.update(
            {
                "numerics.integrate.steps": steps,
                "numerics.integrate.steps_per_ms": steps / integrate_ms if integrate_ms > 0 else 0.0,
                "numerics.integrate.chart_steps": chart_steps,
                "numerics.integrate.raised": raised,
                **{f"numerics.integrate.terminal.{t}": n for t, n in terminals.items()},
                "numerics.return_map.no_return": no_return / rm_calls if rm_calls else 0.0,
                "numerics.detect_limit_cycle.return_maps_per_call": rm_in_dlc / dlc_calls if dlc_calls else 0.0,
                "numerics.detect_limit_cycle.found_ratio": found / dlc_calls if dlc_calls else 0.0,
                "portrait.render_svg.bytes": svg_bytes,
                "portrait.write_report.bytes": rep_bytes,
            }
        )
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][1]
        return False
