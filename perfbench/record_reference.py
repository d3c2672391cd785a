"""Record the reference values that the evaluate_n400 check compares against.

    python3 perfbench/record_reference.py 0-31 1729

For each input seed of each run seed given, stores the report rows of
metrics.evaluate on both planted embeddings in reference_evaluate.json
(merged with the input seeds already there).  Re-record only for a change
that is meant to alter the metrics' values.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(specs):
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads: the BLAS set-up of run.py's workers
    sys.path.insert(0, str(HERE.parent / "src"))
    from tracer import layer_modules
    from workloads import REFERENCE_FILE, Evaluate

    reference = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    for seed in parse_seeds(argv):
        wl = Evaluate(layer_modules(), seed, None)
        for i, s in enumerate(wl.seeds):
            reference[str(s)] = {name: [list(r) for r in rs] for name, rs in wl.execute(i).items()}
        print(f"seed {seed}: recorded input seeds {wl.seeds[0]}-{wl.seeds[-1]}", flush=True)
        lines = [f"{json.dumps(k)}: {json.dumps(v)}"
                 for k, v in sorted(reference.items(), key=lambda kv: int(kv[0]))]
        REFERENCE_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
