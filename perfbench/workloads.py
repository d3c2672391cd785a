"""The benchmark's workloads.

A run's seed gives each workload its INPUTS input seeds (`input_seeds`), and
the workload builds one input per input seed in its constructor (the set-up phase); `execute(i)`
is one timed execution on input i.  After timing, `quality` averages the
quality metrics over the inputs' last outputs and `checks` checks them.
Averaging over several inputs keeps a metric that depends on the data from
following one draw of it.  Library calls go through the module attributes of
the package passed in (`bt.tsne.run_tsne`, ...), so the traced run sees them.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from tracer import calibration_summary

ORTHO_LIMIT = 1e-9  # max |Z^T Y| allowed for a corrected embedding
REFERENCE_FILE = Path(__file__).with_name("reference_evaluate.json")
REFERENCE_TOL = 1e-6  # absolute, on every raw and rescaled metric value
PERPLEXITY = 30.0
CALIBRATION_TOL = 1e-5  # calibrate_bandwidths' default tolerance
def input_seeds(seed, count):
    """The seeds of a run's inputs; distinct run seeds give disjoint sets."""
    return [seed * count + i for i in range(count)]


def mean_quality(per_input):
    """{metric: mean over inputs} from one {metric: value} dict per input."""
    return {name: float(np.mean([q[name] for q in per_input])) for name in per_input[0]}


def merge_calibrations(summaries):
    return {"rows": sum(c["rows"] for c in summaries),
            "converged": sum(c["converged"] for c in summaries),
            "target": summaries[0]["target"],
            "perplexity_min": min(c["perplexity_min"] for c in summaries),
            "perplexity_max": max(c["perplexity_max"] for c in summaries)}


def sqdist(A):
    sq = np.einsum("ij,ij->i", A, A)
    D = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (A @ A.T), 0.0)
    np.fill_diagonal(D, 0.0)
    return D


def kl_divergence(P, Y):
    """KL(P || Q) for the Student-t affinities Q of Y, as tsne.kl_loss defines it."""
    W = 1.0 / (1.0 + sqdist(Y))
    np.fill_diagonal(W, 0.0)
    Q = W / W.sum()
    mask = P > 0
    return float(np.sum(P[mask] * (np.log(np.maximum(P[mask], 1e-12))
                                   - np.log(np.maximum(Q[mask], 1e-12)))))


def design_matrix(batch):
    """Intercept plus dummy columns for every batch level but the first."""
    batch = np.asarray(batch)
    levels = sorted(set(batch.tolist()), key=str)
    return np.column_stack([np.ones(batch.size)] + [(batch == lev).astype(float) for lev in levels[1:]])


def common_checks(Y, batch=None):
    checks = [("finite", bool(np.isfinite(Y).all()), f"{Y.shape[0]}x{Y.shape[1]} embedding")]
    if batch is not None:
        ortho = float(np.abs(design_matrix(batch).T @ Y).max())
        checks.append(("orthogonal", ortho <= ORTHO_LIMIT, f"max|Z^T Y| = {ortho:.3g}"))
    return checks


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def read_embedding(path):
    return np.array([[float(v) for v in row[1:]] for row in read_csv(path)[1:]])


def report_values(rows):
    """{(labeling, metric): (raw, rescaled)} from report rows."""
    return {(lab, met): (float(raw), float(resc)) for lab, met, raw, resc in rows}


class Pipeline:
    """`bctsne pipeline` at 200 cells, README defaults otherwise (2000 genes,
    1000 iterations): generate, embed corrected and uncorrected, evaluate,
    plot, manifest.  The only workload with CSV round trips, cli glue and
    plotting.  Input i is a config file with its own seed and output
    directory."""

    SIZES = {"cells": 200}
    INPUTS = 12  # all of them run within 20 s

    def __init__(self, bt, seed, workdir):
        self.bt = bt
        self.configs, self.outdirs = [], []
        for i, s in enumerate(input_seeds(seed, self.INPUTS)):
            outdir = workdir / f"out{i}"
            config = workdir / f"pipeline{i}.cfg"
            lines = [f"seed={s}", f"outdir={outdir}"] + [f"{k}={v}" for k, v in self.SIZES.items()]
            config.write_text("\n".join(lines) + "\n", encoding="utf-8")
            self.configs.append(config)
            self.outdirs.append(outdir)

    def execute(self, i):
        code = self.bt.cli.main(["pipeline", str(self.configs[i])])
        if code != 0:
            raise RuntimeError(f"pipeline exited with code {code}")
        return self.outdirs[i]

    def fingerprint(self, outdir):
        return hashlib.sha256(b"".join(
            (outdir / f"embedding_{tag}.csv").read_bytes() for tag in ("corrected", "uncorrected")
        )).hexdigest()

    def quality(self, outdirs):
        per_input = []
        for outdir in outdirs:
            report = report_values(read_csv(outdir / "report_corrected.csv")[1:])
            per_input.append({
                "kl_final": float(read_csv(outdir / "embedding_corrected.trace.csv")[-1][1]),
                "batch_lisi": report["batch", "lisi"][1],
                "group_sil": report["group", "silhouette"][0]})
        return mean_quality(per_input)

    def checks(self, outdirs):
        checks = []
        for outdir in outdirs:
            labels = read_csv(outdir / "labels.csv")
            batch = [row[labels[0].index("batch")] for row in labels[1:]]
            checks += common_checks(read_embedding(outdir / "embedding_corrected.csv"), batch)
            checks += common_checks(read_embedding(outdir / "embedding_uncorrected.csv"))
            entries = [line.split("  ", 1) for line in
                       (outdir / "manifest.txt").read_text(encoding="utf-8").splitlines()]
            bad = [name for digest, name in entries
                   if hashlib.sha256((outdir / name).read_bytes()).hexdigest() != digest]
            checks.append(("manifest", bool(entries) and not bad,
                           f"{outdir.name}: {len(entries)} files, mismatched: {bad}"))
        return checks


class Embed:
    """Library path simulate -> log1p-CPM -> design -> residualized PCA ->
    projected t-SNE at 500 cells x 2000 genes.  Only run_tsne is timed."""

    N_CELLS = 500
    N_GENES = 2000
    N_ITER = 300  # crosses the exaggeration/momentum switch at 250
    INPUTS = 8

    def __init__(self, bt, seed, workdir):
        self.bt = bt
        self.inputs = []
        for s in input_seeds(seed, self.INPUTS):
            sim = bt.simulate.simulate(bt.simulate.SimSpec(
                n_cells=self.N_CELLS, n_genes=self.N_GENES, seed=s))
            X = bt.simulate.normalize_log1p_cpm(sim.counts)
            design = bt.design.build_design({"batch": sim.batch_labels.tolist()})
            self.inputs.append({
                "scores": bt.reduce.residualized_reduce(X, design, 30, seed=s).scores,
                "projector": bt.design.Projector(design),
                "cfg": bt.tsne.OptimizerConfig(n_iter=self.N_ITER, perplexity=PERPLEXITY, seed=s),
                "batch": sim.batch_labels, "group": sim.group_labels})

    def execute(self, i):
        inp = self.inputs[i]
        return self.bt.tsne.run_tsne(inp["scores"], inp["cfg"], projector=inp["projector"]).Y

    def fingerprint(self, Y):
        return hashlib.sha256(np.ascontiguousarray(Y).tobytes()).hexdigest()

    def quality(self, outputs):
        per_input, calibrations = [], []
        for inp, Y in zip(self.inputs, outputs):
            table = self.bt.tsne.input_affinities(inp["scores"], PERPLEXITY)
            calibrations.append(calibration_summary(
                sqdist(inp["scores"]), table.sigma2, PERPLEXITY, CALIBRATION_TOL))
            per_input.append({"kl_final": kl_divergence(table.P, Y),
                              "batch_lisi": self.bt.metrics.lisi(Y, inp["batch"], PERPLEXITY)[1],
                              "group_sil": self.bt.metrics.silhouette(Y, inp["group"])[0]})
        self.calibration = merge_calibrations(calibrations)
        return mean_quality(per_input)

    def checks(self, outputs):
        return [c for inp, Y in zip(self.inputs, outputs) for c in common_checks(Y, inp["batch"])]


def planted_embeddings(seed, n):
    """Two 2-D layouts of a 4 x 4 crossed batch/group design: in `mixed` the
    batches overlap inside each group cluster, in `separated` every batch
    forms its own sub-cluster."""
    rng = np.random.default_rng(seed)
    i = np.arange(n)
    batch_idx, group_idx = i % 4, (i // 4) % 4
    centers = 12.0 * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    offsets = 3.0 * np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    mixed = centers[group_idx] + rng.normal(0.0, 1.5, size=(n, 2))
    separated = centers[group_idx] + offsets[batch_idx] + rng.normal(0.0, 0.7, size=(n, 2))
    labelings = {"batch": [f"b{k + 1}" for k in batch_idx],
                 "group": [f"g{k + 1}" for k in group_idx]}
    return {"mixed": mixed, "separated": separated}, labelings


class Evaluate:
    """metrics.evaluate on batch and group labelings of two planted 2-D
    embeddings of 400 points; no optimizer involved."""

    N_POINTS = 400
    INPUTS = 8

    def __init__(self, bt, seed, workdir):
        self.bt = bt
        self.seeds = input_seeds(seed, self.INPUTS)
        self.inputs = [planted_embeddings(s, self.N_POINTS) for s in self.seeds]
        self.cfgs = [bt.metrics.MetricsConfig(seed=s) for s in self.seeds]

    def execute(self, i):
        embeddings, labelings = self.inputs[i]
        return {name: self.bt.metrics.evaluate(Y, labelings, self.cfgs[i]).rows()
                for name, Y in embeddings.items()}

    def fingerprint(self, rows):
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    def quality(self, outputs):
        per_input, calibrations = [], []
        for (embeddings, _), rows in zip(self.inputs, outputs):
            mixed = report_values(rows["mixed"])
            table = self.bt.tsne.input_affinities(embeddings["mixed"], PERPLEXITY)
            calibrations.append(calibration_summary(
                sqdist(embeddings["mixed"]), table.sigma2, PERPLEXITY, CALIBRATION_TOL))
            per_input.append({"kl_final": kl_divergence(table.P, embeddings["mixed"]),
                              "batch_lisi": mixed["batch", "lisi"][1],
                              "group_sil": mixed["group", "silhouette"][0]})
        self.calibration = merge_calibrations(calibrations)
        return mean_quality(per_input)

    def checks(self, outputs):
        reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
        checks = []
        for s, rows in zip(self.seeds, outputs):
            values = {name: report_values(r) for name, r in rows.items()}
            flat = [v for r in values.values() for pair in r.values() for v in pair]
            mixed, sep = values["mixed"], values["separated"]
            checks += [
                ("finite", bool(np.isfinite(flat).all()), f"input seed {s}: {len(flat)} metric values"),
                ("planted", mixed["batch", "lisi"][1] > 0.8 > 0.2 > sep["batch", "lisi"][1]
                 and min(mixed["group", "silhouette"][0], sep["group", "silhouette"][0]) > 0.3,
                 f"input seed {s}: batch LISI mixed > 0.8 > 0.2 > separated; group silhouette > 0.3"),
            ]
            if str(s) in reference:
                expected = {name: report_values(r) for name, r in reference[str(s)].items()}
                worst = max(abs(a - b) for name in expected for key in expected[name]
                            for a, b in zip(expected[name][key],
                                            values[name].get(key, (np.inf, np.inf))))
                checks.append(("reference", worst <= REFERENCE_TOL,
                               f"input seed {s}: max abs deviation {worst:.3g} (tolerance {REFERENCE_TOL:g})"))
        return checks


WORKLOADS = {
    "pipeline_n200": Pipeline,
    "embed_n500": Embed,
    "evaluate_n400": Evaluate,
}
