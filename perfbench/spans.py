"""In-process tracing of ringcav's layers, and the per-layer metrics built from it.

``install`` wraps the functions through which one ringcav module calls
another (and ``scipy.optimize.least_squares`` inside ``fitting``), in every
ringcav namespace that holds them, so a caller that imported a name directly
sees the wrapper too. It imports nothing itself: a module the command loads
after ``install`` is patched by an import hook once it has run. Each call records a span: name, parent span, start,
end and a few attributes (grid points, rows written, fit cost). Spans stay
in memory until the launcher writes them out when the command ends; nothing
under ``src/`` changes.

``layer_metrics`` turns the spans of a round of commands into the per-layer
metrics; ``import_metrics`` reads the output of ``python -X importtime``.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
from time import perf_counter

# Functions wrapped, by module. These are the calls that cross a module
# boundary; per-step helpers (thermal.relax, ...) stay unwrapped so tracing
# does not slow the loops it measures.
BOUNDARIES = {
    "params": ("params_from_dict", "merge_document"),
    "steady_state": ("spectrum",),
    "fitting": ("fit", "saturation_curve", "default_init", "evaluate_model",
                "generate_synthetic"),
    "ring": ("ring_transmission", "ring_from_lineshape", "ring_from_rates", "rates_from_ring"),
    "peaks": ("find_transmission_dips", "measure_splitting"),
    "thermal": ("lock_loop", "scan_experiment"),
    "io": ("write_columns_csv", "read_columns_csv", "write_json", "read_json"),
}

# name -> unit, in the order the metrics are reported
PER_LAYER = {
    "import.total_s": "s",
    "import.numpy_s": "s",
    "import.scipy_constants_s": "s",
    "import.scipy_optimize_s": "s",
    "import.scipy_signal_s": "s",
    "import.click_s": "s",
    "import.ringcav_self_s": "s",
    "steady_state.spectrum.calls": "count",
    "steady_state.spectrum.points": "count",
    "steady_state.spectrum.s": "s",
    "steady_state.spectrum.lowest.ns_per_point": "ns",
    "steady_state.spectrum.highest.ns_per_point": "ns",
    "steady_state.spectrum.follow.ns_per_point": "ns",
    "fitting.fit.calls": "count",
    "fitting.fit.s": "s",
    "fitting.starts": "count",
    "fitting.useful_start_ratio": "ratio",
    "fitting.model_calls": "count",
    "fitting.model_calls_reported": "count",
    "fitting.model_s": "s",
    "fitting.model_call_ms": "ms",
    "fitting.optimizer_self_s": "s",
    "fitting.default_init_s": "s",
    "fitting.saturation_curve.points": "count",
    "fitting.saturation_curve.ns_per_point": "ns",
    "ring.ring_transmission.calls": "count",
    "ring.ring_transmission.ns_per_point": "ns",
    "peaks.find_transmission_dips.calls": "count",
    "peaks.find_transmission_dips.s": "s",
    "thermal.steps": "count",
    "thermal.scan_experiment.us_per_step": "us",
    "thermal.lock_loop.us_per_step": "us",
    "thermal.s": "s",
    "io.write_csv.rows": "count",
    "io.write_csv.bytes": "bytes",
    "io.write_csv.s": "s",
    "io.write_csv.us_per_row": "us",
    "io.read_csv.rows": "count",
    "io.read_csv.s": "s",
    "io.read_csv.us_per_row": "us",
    "io.json.s": "s",
    "cli.self_s": "s",
    "params.s": "s",
    "trace.overhead_ratio": "ratio",
}

# Counts that must repeat exactly for a given seed.
EXACT_COUNTS = (
    "steady_state.spectrum.calls", "steady_state.spectrum.points", "fitting.fit.calls",
    "fitting.starts", "fitting.model_calls", "fitting.model_calls_reported",
    "fitting.saturation_curve.points", "ring.ring_transmission.calls",
    "peaks.find_transmission_dips.calls", "thermal.steps", "io.write_csv.rows",
    "io.write_csv.bytes", "io.read_csv.rows",
)

# span record fields
NAME, PARENT, START, END, ATTRS = range(5)


class Tracer:
    """Span recorder for one process; spans are lists so they dump as JSON."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, func, describe=None, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, dict(attrs or {})]
            stack.append(len(spans))
            spans.append(span)
            result = error = None
            span[START] = perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
                if describe is not None:
                    span[ATTRS].update(describe(args, kwargs, result, error))

        return traced


def _spectrum_describe(func):
    signature = inspect.signature(func)

    def describe(args, kwargs, result, error):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"points": len(bound.arguments["detuning_hz"]),
                "policy": bound.arguments["policy"].mode}
    return describe


def _points(args, kwargs, result, error):
    size = getattr(args[0], "size", None)  # an array, or a plain number
    return {"points": int(size) if size is not None else 1}


def _steps(args, kwargs, result, error):
    return {"steps": len(result.time_s)} if result is not None else {}


def _csv_written(args, kwargs, result, error):
    if error is not None:
        return {}
    return {"rows": len(args[2][0]) if args[2] else 0, "bytes": os.path.getsize(args[0])}


def _csv_read(args, kwargs, result, error):
    return {"rows": len(next(iter(result.values()))) if result else 0}


def _fit_result(args, kwargs, result, error):
    result = result if result is not None else getattr(error, "result", None)
    return {"n_eval": result.n_eval} if result is not None else {}


def _least_squares_result(args, kwargs, result, error):
    return {"cost": float(result.cost)} if result is not None else {}


DESCRIBERS = {
    "fitting.saturation_curve": _points,
    "ring.ring_transmission": _points,
    "thermal.lock_loop": _steps,
    "thermal.scan_experiment": _steps,
    "io.write_columns_csv": _csv_written,
    "io.read_columns_csv": _csv_read,
    "fitting.fit": _fit_result,
    "fitting.least_squares": _least_squares_result,
}

# Where each wrapped function is defined: module -> {attribute: span name}.
# ``least_squares`` is wrapped in scipy.optimize as well as in fitting, so a
# fitting that imports it inside a function still calls the wrapper.
SOURCES = {f"ringcav.{layer}": {f: f"{layer}.{f}" for f in names}
           for layer, names in BOUNDARIES.items()}
SOURCES["ringcav.fitting"]["least_squares"] = "fitting.least_squares"
SOURCES["scipy.optimize"] = {"least_squares": "fitting.least_squares"}


def _patched_namespace(name: str) -> bool:
    return name in SOURCES or name == "ringcav" or name.startswith("ringcav.")


class _Patcher:
    """Replaces each wrapped function in every namespace that holds it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.wrappers = {}  # id(original) -> (original, wrapper)
        self.wrapper_ids = set()
        self.models_wrapped = False

    def loaded(self, name: str, module) -> None:
        """Register what module defines, then patch every namespace loaded so far."""
        for attr, span_name in SOURCES.get(name, {}).items():
            original = getattr(module, attr, None)
            if (not callable(original) or id(original) in self.wrappers
                    or id(original) in self.wrapper_ids):
                continue
            describe = (_spectrum_describe(original) if span_name == "steady_state.spectrum"
                        else DESCRIBERS.get(span_name))
            wrapper = self.tracer.wrap(span_name, original, describe)
            self.wrappers[id(original)] = (original, wrapper)
            self.wrapper_ids.add(id(wrapper))
        if name == "ringcav.fitting" and not self.models_wrapped:
            self.models_wrapped = True
            for key, model in list(module.MODELS.items()):
                module.MODELS[key] = dataclasses.replace(
                    model, func=self.tracer.wrap("fitting.model", model.func, attrs={"model": key}))
        for module_name, namespace in list(sys.modules.items()):
            if namespace is None or not _patched_namespace(module_name):
                continue
            for attr, value in list(vars(namespace).items()):
                entry = self.wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(namespace, attr, entry[1])


class _PatchingLoader:
    """Loader proxy that hands each module to the patcher once it has run."""

    def __init__(self, loader, patcher: _Patcher):
        self._loader = loader
        self._patcher = patcher

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module):
        self._loader.exec_module(module)
        self._patcher.loaded(module.__name__, module)

    def __getattr__(self, name):  # get_source, get_resource_reader, ...
        return getattr(self._loader, name)


class _PatchOnImport:
    """sys.meta_path entry: patches ringcav modules (and scipy.optimize) imported later."""

    def __init__(self, patcher: _Patcher):
        self._patcher = patcher

    def find_spec(self, fullname, path, target=None):
        if not _patched_namespace(fullname):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        if spec.loader is not None and hasattr(spec.loader, "exec_module"):
            spec.loader = _PatchingLoader(spec.loader, self._patcher)
        return spec


def install(tracer: Tracer) -> None:
    """Wrap ringcav's layer boundaries, in every namespace that names them.

    Imports nothing: modules already loaded are patched now, and a module
    the command loads later is patched as soon as it has run, so a lazy
    import in the program stays lazy under tracing.
    """
    patcher = _Patcher(tracer)
    for name, module in list(sys.modules.items()):
        if module is not None and name in SOURCES:
            patcher.loaded(name, module)
    sys.meta_path.insert(0, _PatchOnImport(patcher))


# ------------------------------------------------------------------ metrics

def _duration(span):
    return span[END] - span[START]


def _has_ancestor(spans, span, pred):
    parent = span[PARENT]
    while parent >= 0:
        if pred(spans[parent]):
            return True
        parent = spans[parent][PARENT]
    return False


def _outermost_time(spans, pred):
    """Time in spans matching pred, not counting ones nested in another match."""
    return sum(_duration(s) for s in spans
               if pred(s) and not _has_ancestor(spans, s, pred))


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def _named(*names):
    return lambda span: span[NAME] in names


def layer_metrics(commands) -> dict:
    """Per-layer metrics (without import.* and trace.*) for one traced round.

    commands: list of (compute_s, spans) pairs, one per command process.
    Sums run over the round's commands; a layer the workload never enters
    reports 0.
    """
    acc = {name: 0.0 for name in PER_LAYER}
    sums = {k: 0.0 for k in ("lowest_s", "lowest_pts", "highest_s", "highest_pts",
                             "follow_s", "follow_pts", "sat_s", "ring_s", "ring_pts",
                             "scan_s", "scan_steps", "lock_s", "lock_steps",
                             "ls_model_s", "ls_s", "useful")}
    for compute_s, spans in commands:
        root_s = sum(_duration(s) for s in spans if s[PARENT] < 0)
        acc["cli.self_s"] += compute_s - root_s
        acc["params.s"] += _outermost_time(spans, lambda s: s[NAME].startswith("params."))
        acc["thermal.s"] += _outermost_time(spans, lambda s: s[NAME].startswith("thermal."))
        acc["io.json.s"] += _outermost_time(spans, _named("io.read_json", "io.write_json"))
        acc["io.write_csv.s"] += _outermost_time(spans, _named("io.write_columns_csv"))
        acc["io.read_csv.s"] += _outermost_time(spans, _named("io.read_columns_csv"))
        acc["fitting.fit.s"] += _outermost_time(spans, _named("fitting.fit"))
        acc["fitting.default_init_s"] += _outermost_time(spans, _named("fitting.default_init"))
        acc["peaks.find_transmission_dips.s"] += _outermost_time(
            spans, _named("peaks.find_transmission_dips"))

        for index, s in enumerate(spans):
            name, attrs, dur = s[NAME], s[ATTRS], _duration(s)
            if name == "steady_state.spectrum":
                acc["steady_state.spectrum.calls"] += 1
                acc["steady_state.spectrum.points"] += attrs["points"]
                acc["steady_state.spectrum.s"] += dur
                kind = "follow" if attrs["policy"] == "follow_sweep" else attrs["policy"]
                sums[f"{kind}_s"] += dur
                sums[f"{kind}_pts"] += attrs["points"]
            elif name == "fitting.fit":
                acc["fitting.fit.calls"] += 1
                acc["fitting.model_calls_reported"] += attrs.get("n_eval", 0)
                costs = [c[ATTRS]["cost"] for c in spans
                         if c[NAME] == "fitting.least_squares" and c[PARENT] == index
                         and "cost" in c[ATTRS]]
                if costs:
                    best = min(costs)
                    sums["useful"] += sum(abs(c - best) <= 1e-9 * (1.0 + best) for c in costs)
            elif name == "fitting.least_squares":
                acc["fitting.starts"] += 1
                sums["ls_s"] += dur
            elif name == "fitting.model":
                acc["fitting.model_calls"] += 1
                acc["fitting.model_s"] += dur
                if _has_ancestor(spans, s, _named("fitting.least_squares")):
                    sums["ls_model_s"] += dur
            elif name == "fitting.saturation_curve":
                acc["fitting.saturation_curve.points"] += attrs["points"]
                sums["sat_s"] += dur
            elif name == "ring.ring_transmission":
                acc["ring.ring_transmission.calls"] += 1
                sums["ring_s"] += dur
                sums["ring_pts"] += attrs["points"]
            elif name == "peaks.find_transmission_dips":
                acc["peaks.find_transmission_dips.calls"] += 1
            elif name in ("thermal.lock_loop", "thermal.scan_experiment"):
                kind = "lock" if name == "thermal.lock_loop" else "scan"
                steps = attrs.get("steps", 0)
                acc["thermal.steps"] += steps
                sums[f"{kind}_s"] += dur
                sums[f"{kind}_steps"] += steps
            elif name == "io.write_columns_csv":
                acc["io.write_csv.rows"] += attrs["rows"]
                acc["io.write_csv.bytes"] += attrs["bytes"]
            elif name == "io.read_columns_csv":
                acc["io.read_csv.rows"] += attrs["rows"]

    for kind in ("lowest", "highest", "follow"):
        acc[f"steady_state.spectrum.{kind}.ns_per_point"] = _ratio(
            sums[f"{kind}_s"], sums[f"{kind}_pts"], 1e9)
    acc["fitting.useful_start_ratio"] = _ratio(sums["useful"], acc["fitting.starts"])
    acc["fitting.model_call_ms"] = _ratio(acc["fitting.model_s"], acc["fitting.model_calls"], 1e3)
    acc["fitting.optimizer_self_s"] = sums["ls_s"] - sums["ls_model_s"]
    acc["fitting.saturation_curve.ns_per_point"] = _ratio(
        sums["sat_s"], acc["fitting.saturation_curve.points"], 1e9)
    acc["ring.ring_transmission.ns_per_point"] = _ratio(sums["ring_s"], sums["ring_pts"], 1e9)
    acc["thermal.scan_experiment.us_per_step"] = _ratio(sums["scan_s"], sums["scan_steps"], 1e6)
    acc["thermal.lock_loop.us_per_step"] = _ratio(sums["lock_s"], sums["lock_steps"], 1e6)
    acc["io.write_csv.us_per_row"] = _ratio(acc["io.write_csv.s"], acc["io.write_csv.rows"], 1e6)
    acc["io.read_csv.us_per_row"] = _ratio(acc["io.read_csv.s"], acc["io.read_csv.rows"], 1e6)
    for name in EXACT_COUNTS:
        acc[name] = int(acc[name])
    return {name: value for name, value in acc.items()
            if not name.startswith(("import.", "trace."))}


# Cumulative import time of these modules, as ``-X importtime`` attributes it:
# the module that first imports a package pays for it.
IMPORTS = {
    "import.numpy_s": "numpy",
    "import.scipy_constants_s": "scipy.constants",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.scipy_signal_s": "scipy.signal",
    "import.click_s": "click",
}


def import_metrics(stderr_text: str) -> dict:
    """import.* metrics of one process from its ``-X importtime`` report.

    Every import of the process counts, also one a command makes lazily after
    set-up, except the tracer's own (``spans`` and what it pulls in).
    """
    self_us, cumulative_us = {}, {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cumulative, module = line[len("import time:"):].split("|")
        module = module.strip()
        self_us[module] = self_us.get(module, 0) + int(own)
        cumulative_us.setdefault(module, int(cumulative))
    tracer_us = cumulative_us.get("spans", 0)
    out = {"import.total_s": (sum(self_us.values()) - tracer_us) / 1e6}
    for metric, module in IMPORTS.items():
        out[metric] = cumulative_us.get(module, 0) / 1e6
    out["import.ringcav_self_s"] = sum(
        v for k, v in self_us.items() if k == "ringcav" or k.startswith("ringcav.")) / 1e6
    return out
