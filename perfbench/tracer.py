"""Call tracing for the benchmark's traced run.

`Tracer.install` wraps every public function and every public method of a
package class in each module namespace that binds it, so a call is seen
whichever module looks the name up (`pairwise_sqdist` is bound separately in
`tsne` and `metrics`, `run_tsne` in `cli`).  Each call records a span
``[name, start, end, parent, extra]``; spans stay in memory until the run
writes them out.  `layer_metrics` turns the spans into the per-layer metrics.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
import types

import numpy as np

LAYERS = ("simulate", "matrixio", "linalg", "reduce", "design", "tsne",
          "metrics", "plot", "cli")

# per-layer time metrics: metric -> span names whose outermost calls are summed
TIMES = {
    "tsne.kl_gradient_s": ("tsne.kl_gradient",),
    "tsne.step_s": ("tsne.step",),
    "design.project_s": ("design.Projector.project", "design.project"),
    "linalg.pairwise_sqdist_s": ("linalg.pairwise_sqdist",),
    "tsne.input_affinities_s": ("tsne.input_affinities",),
    "tsne.calibrate_s": ("tsne.calibrate_bandwidths",),
    "metrics.silhouette_s": ("metrics.silhouette",),
    "metrics.kbet_s": ("metrics.kbet_acceptance",),
    "metrics.lisi_s": ("metrics.lisi",),
    "metrics.pc_regression_s": ("metrics.pc_regression",),
    "plot.svg_s": ("plot.write_scatter_svg", "plot.render_scatter"),
    "simulate.simulate_s": ("simulate.simulate",),
    "simulate.normalize_s": ("simulate.normalize_log1p_cpm",),
    "reduce.reduce_s": ("reduce.residualized_reduce", "reduce.pca_reduce"),
    "linalg.truncated_svd_s": ("linalg.truncated_svd",),
    "design.build_design_s": ("design.build_design",),
}
CALLS = {
    "tsne.kl_gradient.calls": ("tsne.kl_gradient",),
    "design.project.calls": ("design.Projector.project", "design.project"),
    "linalg.pairwise_sqdist.calls": ("linalg.pairwise_sqdist",),
}
# embedding affinities and KL evaluated by run_tsne itself belong to its trace
TRACE_CALLEES = ("tsne.embedding_affinities", "tsne.kl_loss")
LOOP = "tsne.run_tsne"
CALIBRATE = "tsne.calibrate_bandwidths"
IO_PREFIXES = ("matrixio.read_", "matrixio.write_")


def layer_modules(package_name="bctsne"):
    """The package's layer modules that exist, by name.  They are looked up as
    modules because the package re-exports some functions under their
    module's name (`bctsne.simulate` is the function)."""
    mods = {}
    for name in LAYERS:
        try:
            mods[name] = importlib.import_module(f"{package_name}.{name}")
        except ModuleNotFoundError:
            pass
    return types.SimpleNamespace(**mods)


def span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def achieved_perplexity(D, sigma2):
    """Perplexity each row reaches with bandwidths sigma2 (diagonal excluded)."""
    logits = -0.5 * np.asarray(D, dtype=np.float64) / np.asarray(sigma2)[:, None]
    np.fill_diagonal(logits, -np.inf)
    logits -= logits.max(axis=1, keepdims=True)
    P = np.exp(logits)
    P /= P.sum(axis=1, keepdims=True)
    return np.exp(-np.sum(P * np.log(np.maximum(P, 1e-12)), axis=1))


def calibration_summary(D, sigma2, perplexity, tol):
    perp = achieved_perplexity(D, sigma2)
    return {
        "rows": int(perp.size),
        "converged": int(np.sum(np.abs(perp - perplexity) < tol)),
        "target": float(perplexity),
        "perplexity_min": float(perp.min()),
        "perplexity_max": float(perp.max()),
    }


def _bound_arguments(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _calibration_hook(fn, args, kwargs, result):
    a = _bound_arguments(fn, args, kwargs)
    return calibration_summary(a["D"], result, a["perplexity"], a.get("tol", 1e-5))


def _loop_hook(fn, args, kwargs, result):
    return {"n_iter": int(_bound_arguments(fn, args, kwargs)["cfg"].n_iter)}


def _io_hook(fn, args, kwargs, result):
    paths = [a for a in (*args, *kwargs.values()) if isinstance(a, (str, os.PathLike))]
    return {"bytes": sum(os.path.getsize(p) for p in paths if os.path.isfile(p))}


def _hook_for(name):
    if name == CALIBRATE:
        return _calibration_hook
    if name == LOOP:
        return _loop_hook
    if name.startswith(IO_PREFIXES):
        return _io_hook
    return None


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, extra or None]
        self.present = set()  # span names of every function found to wrap
        self._stack = []
        self._paused = 0.0  # time spent in hooks, kept out of every span
        self._saved = []  # (owner, attribute, original) for uninstall
        self._wrappers = {}

    def clock(self):
        return time.perf_counter() - self._paused

    def _open(self, name):
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else -1, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn):
        name = span_name(fn)
        self.present.add(name)
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        hook = _hook_for(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                t = time.perf_counter()
                try:
                    self.spans[idx][4] = hook(fn, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    pass  # a changed signature loses the extra, not the span
                self._paused += time.perf_counter() - t
            return result

        self._wrappers[id(fn)] = traced
        return traced

    def _replace(self, owner, attr, fn):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, self._wrap(fn))

    def install(self, package, layers):
        """Wrap the package's public functions and methods in the package
        namespace and every layer module."""
        prefix = package.__name__ + "."
        classes = set()
        for ns in [package, *vars(layers).values()]:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not getattr(obj, "__module__", "").startswith(prefix):
                    continue
                if isinstance(obj, types.FunctionType):
                    self._replace(ns, attr, obj)
                elif isinstance(obj, type) and obj not in classes:
                    classes.add(obj)
                    for mattr, method in list(vars(obj).items()):
                        if not mattr.startswith("_") and isinstance(method, types.FunctionType):
                            self._replace(obj, mattr, method)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self):
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, round(s - t0, 7), round(e - t0, 7), p, x] for n, s, e, p, x in self.spans]


def layer_metrics(spans, present):
    """Per-layer metrics from spans; also returns the metrics whose functions
    no longer exist (reported as 0) and a per-function summary."""
    names = [s[0] for s in spans]
    parent = [s[3] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]

    def outermost(targets):
        for i, name in enumerate(names):
            if not targets(name):
                continue
            p = parent[i]
            while p >= 0 and not targets(names[p]):
                p = parent[p]
            if p < 0:
                yield i

    metrics, absent = {}, []

    def add(metric, value, exists=True):
        metrics[metric] = float(value) if exists else 0.0
        if not exists:
            absent.append(metric)

    for metric, targets in TIMES.items():
        add(metric, sum(dur[i] for i in outermost(targets.__contains__)),
            any(t in present for t in targets))
    for metric, targets in CALLS.items():
        add(metric, sum(1 for _ in outermost(targets.__contains__)),
            any(t in present for t in targets))

    loops = {i for i, n in enumerate(names) if n == LOOP}
    iters = sum((spans[i][4] or {}).get("n_iter", 0) for i in loops)
    in_loop_setup = sum(dur[i] for i, n in enumerate(names)
                        if n == "tsne.input_affinities" and parent[i] in loops)
    add("tsne.iter_ms", 1e3 * (sum(dur[i] for i in loops) - in_loop_setup) / iters if iters else 0.0,
        LOOP in present)
    add("tsne.trace_s", sum(dur[i] for i, n in enumerate(names)
                            if n in TRACE_CALLEES and parent[i] in loops),
        LOOP in present)

    calibrations = [
        dict(spans[i][4], caller=names[parent[i]] if parent[i] >= 0 else None)
        for i, n in enumerate(names) if n == CALIBRATE and spans[i][4]
    ]
    rows = sum(c["rows"] for c in calibrations)
    add("tsne.calibrate.converged_frac",
        sum(c["converged"] for c in calibrations) / rows if rows else 0.0, CALIBRATE in present)
    add("tsne.calibrate.perplexity_min",
        min((c["perplexity_min"] for c in calibrations), default=0.0), CALIBRATE in present)
    add("tsne.calibrate.perplexity_max",
        max((c["perplexity_max"] for c in calibrations), default=0.0), CALIBRATE in present)

    io = list(outermost(lambda n: n.startswith(IO_PREFIXES)))
    add("matrixio.write_s", sum(dur[i] for i in io if names[i].startswith("matrixio.write_")))
    add("matrixio.read_s", sum(dur[i] for i in io if names[i].startswith("matrixio.read_")))
    add("matrixio.bytes", sum((spans[i][4] or {}).get("bytes", 0) for i in io))
    add("cli.self_s", sum(dur[i] - child[i] for i, n in enumerate(names) if n.startswith("cli.")))

    summary = {}
    for i, name in enumerate(names):
        row = summary.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur[i]
        row["self_s"] += dur[i] - child[i]
    return metrics, absent, summary, calibrations
