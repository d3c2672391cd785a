"""One benchmark process: builds a workload's inputs, runs it, checks it.

run.py starts this script in a fresh interpreter with the BLAS thread
variables already set, and reads the JSON it writes to --result.  Without
--trace it runs input 0 once as a warm-up, then goes round the run's inputs
until every input has run and --seconds have passed; with --trace it runs
input 0 once untraced and once with every package call wrapped (see
tracer.py).
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_info(np):
    """BLAS vendor from numpy's build config and the thread count it runs with."""
    try:
        vendor = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        vendor = "unknown"
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "mkl_get_max_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return vendor, threads


def environment():
    import numpy as np
    import scipy

    vendor, threads = blas_info(np)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": vendor, "blas_threads": threads}


_REFERENCE_BUFFERS = {}


def reference_times(repeats=3):
    """Times of `repeats` runs of a fixed piece of numpy and interpreter work
    that does not touch bctsne: they follow the speed the host gives this
    process at the moment.  The work writes into buffers made on the first
    call, so that what the process allocated before does not change its time."""
    import numpy as np

    buf = _REFERENCE_BUFFERS
    if not buf:
        Y = np.random.default_rng(0).normal(size=(400, 2))
        buf.update(Y=Y, YT=np.ascontiguousarray(Y.T), sq=np.einsum("ij,ij->i", Y, Y),
                   G=np.empty((400, 400)), W=np.empty((400, 400)), out=np.empty((400, 2)))
    Y, YT, sq, G, W, out = (buf[k] for k in ("Y", "YT", "sq", "G", "W", "out"))
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        for _ in range(4):  # Student-t kernel on squared distances, then W^2 @ Y
            np.matmul(Y, YT, out=G)
            G *= -2.0
            G += sq[:, None]
            G += sq[None, :]
            np.maximum(G, 0.0, out=G)
            G += 1.0
            np.reciprocal(G, out=W)
            np.multiply(W, W, out=G)
            np.matmul(G, Y, out=out)
        total = 0
        for i in range(20000):
            total += i % 7
        times.append(time.perf_counter() - t)
    return times


def timed(fn):
    t = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    package = importlib.import_module("bctsne")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "bctsne":
        raise RuntimeError(f"imported bctsne from {package.__file__}, not from this checkout")
    import tracer as tracing
    import workloads

    bt = tracing.layer_modules()

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install(package, bt)
    with tracer.span("setup") if tracer else contextlib.nullcontext():
        wl = workloads.WORKLOADS[args.workload](bt, args.seed, Path(args.workdir))
    result = {"setup_s": time.monotonic() - args.t0, "env": environment(),
              "setup_ref_s": reference_times(repeats=5)}

    def finish():
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")

    if args.setup_only:
        return finish()

    walls, refs, errors, outs, prints = [], [], [], {}, {}

    def run(i):
        out, wall = timed(lambda: wl.execute(i))
        outs[i] = out
        prints.setdefault(i, []).append(wl.fingerprint(out))
        if tracer is None:
            refs.append(reference_times())
        return wall

    try:
        if tracer is None:
            run(0)  # warm-up: lazy imports and first-touch allocations, not timed
            start = time.perf_counter()
            # every input at least once, then round the inputs again until time is up
            while len(walls) < wl.INPUTS or time.perf_counter() - start < args.seconds:
                walls.append(run(len(walls) % wl.INPUTS))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            tracer.uninstall()
            walls.append(run(0))
            tracer.install(package, bt)
            with tracer.span("execute"):
                result["traced_wall_s"] = run(0)
            tracer.uninstall()
    except Exception:  # a failed execution is counted, not fatal to the report
        errors.append(traceback.format_exc())
        if tracer:
            tracer.uninstall()
    result.update(walls=walls, refs=refs, errors=errors)

    checks = []
    if walls:
        outputs = [outs[i] for i in sorted(outs)]  # inputs 0..k-1, each by its last output
        result["quality"] = wl.quality(outputs)
        result["calibration"] = getattr(wl, "calibration", None)
        checks = wl.checks(outputs)
        repeated = [p for p in prints.values() if len(p) > 1]
        if repeated:
            checks.append(("deterministic", all(len(set(p)) == 1 for p in repeated),
                           f"{len(repeated)} input(s) of seed {args.seed} executed "
                           f"{min(map(len, repeated))} to {max(map(len, repeated))} times"))
    result["checks"] = [[name, bool(ok), detail] for name, ok, detail in checks]

    if tracer and walls and not errors:
        metrics, absent, summary, calibrations = tracing.layer_metrics(tracer.spans, tracer.present)
        metrics["trace_overhead_frac"] = result["traced_wall_s"] / walls[0] - 1.0
        metrics["trace.spans"] = float(len(tracer.spans))
        result.update(layer=metrics, absent=absent, calibrations=calibrations,
                      summary=summary)
        spans_path = Path(args.workdir) / "spans.json"
        spans_path.write_text(json.dumps({"spans": tracer.dump()}), encoding="utf-8")
        result["spans_file"] = str(spans_path)
    return finish()


if __name__ == "__main__":
    main()
