"""Command-line front door: generate / embed / evaluate / plot / pipeline."""
from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from . import matrixio, plot
from .design import Projector, build_design
from .errors import BctsneError
from .metrics import MetricsConfig, evaluate
from .reduce import pca_reduce, residualized_reduce
from .simulate import SimSpec, normalize_log1p_cpm, simulate
from .tsne import OptimizerConfig, run_tsne


def _add_generate(sub):
    p = sub.add_parser("generate", help="write a synthetic counts + labels dataset")
    p.add_argument("--cells", type=int, default=800)
    p.add_argument("--genes", type=int, default=2000)
    p.add_argument("--batches", type=int, default=4)
    p.add_argument("--groups", type=int, default=4)
    p.add_argument("--batch-effect-sd", type=float, default=SimSpec.batch_effect_sd)
    p.add_argument("--group-effect-sd", type=float, default=SimSpec.group_effect_sd)
    p.add_argument("--de-prob", type=float, default=SimSpec.de_prob)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--counts-out", required=True)
    p.add_argument("--labels-out", required=True)
    p.set_defaults(func=cmd_generate)


def _sim_spec(opts):
    """SimSpec from a mapping keyed by the generate option names."""
    return SimSpec(
        n_cells=int(opts["cells"]),
        n_genes=int(opts["genes"]),
        n_batches=int(opts["batches"]),
        n_groups=int(opts["groups"]),
        batch_effect_sd=float(opts["batch_effect_sd"]),
        group_effect_sd=float(opts["group_effect_sd"]),
        de_prob=float(opts["de_prob"]),
        seed=int(opts["seed"]),
    )


def _write_dataset(spec, counts_out, labels_out):
    """Simulate spec, write its counts and labels CSVs and return
    (counts, cell ids, {"batch": ..., "group": ...})."""
    out = simulate(spec)
    ids = [f"cell{i + 1}" for i in range(spec.n_cells)]
    genes = [f"gene{j + 1}" for j in range(spec.n_genes)]
    labels = {"batch": out.batch_labels.tolist(), "group": out.group_labels.tolist()}
    matrixio.write_matrix_csv(out.counts, ids, genes, counts_out)
    matrixio.write_labels_csv(ids, labels, labels_out)
    print(
        f"generated {spec.n_cells} cells x {spec.n_genes} genes, "
        f"{spec.n_batches} batches, {spec.n_groups} groups, seed {spec.seed}"
    )
    return out.counts, ids, labels


def cmd_generate(args):
    _write_dataset(_sim_spec(vars(args)), args.counts_out, args.labels_out)
    return 0


def _add_embed(sub):
    p = sub.add_parser("embed", help="estimate a (batch-corrected) embedding")
    p.add_argument("matrix")
    p.add_argument("labels", nargs="?")
    p.add_argument("--batch-vars", default=None, help="comma-separated label columns")
    p.add_argument("--no-correction", action="store_true")
    p.add_argument("--normalize", action="store_true",
                   help="treat the matrix as counts and apply log1p-CPM first")
    p.add_argument("--k", type=int, default=30)
    p.add_argument("--perplexity", type=float, default=30.0)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--eta", type=float, default=200.0)
    p.add_argument("--exaggeration", type=float, default=12.0)
    p.add_argument("--dims", type=int, default=2, choices=(2, 3))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)


def _load_design(args, ids):
    if args.labels is None:
        raise BctsneError("a labels file is required for batch correction")
    label_ids, table = matrixio.read_labels_csv(args.labels)
    table = matrixio.align_labels(label_ids, table, ids)
    variables = [v.strip() for v in args.batch_vars.split(",") if v.strip()]
    unknown = [v for v in variables if v not in table]
    if unknown:
        raise BctsneError(
            f"unknown batch variable(s) {unknown}; file has {sorted(table)}"
        )
    return build_design({v: table[v] for v in variables})


def _embed(X, ids, design, opts, out):
    """PCA (residualized on design unless it is None) -> t-SNE (projected off
    design) with the embed option names in opts; writes the embedding CSV and
    its trace next to it and returns the embedding."""
    cfg = OptimizerConfig(
        n_iter=int(opts["iters"]),
        perplexity=float(opts["perplexity"]),
        eta=float(opts["eta"]),
        exaggeration_factor=float(opts["exaggeration"]),
        dims=int(opts["dims"]),
        seed=int(opts["seed"]),
    )
    if design is None:
        reduced, projector = pca_reduce(X, int(opts["k"]), seed=cfg.seed), None
    else:
        reduced = residualized_reduce(X, design, int(opts["k"]), seed=cfg.seed)
        projector = Projector(design)
    trace = []
    state = run_tsne(reduced.scores, cfg, projector=projector, on_trace=trace.append)
    matrixio.write_embedding_csv(state.Y, ids, out)
    matrixio.write_loss_trace(trace, _trace_path(out))
    print(f"wrote {out} ({'uncorrected' if design is None else 'corrected'})")
    return state.Y


def cmd_embed(args):
    if not args.no_correction and args.batch_vars is None:
        raise UsageError("--batch-vars is required unless --no-correction is given")
    X, ids, _ = matrixio.read_matrix_csv(args.matrix)
    if args.normalize:
        X = normalize_log1p_cpm(X)
    design = None if args.no_correction else _load_design(args, ids)
    _embed(X, ids, design, vars(args), args.out)
    return 0


def _trace_path(out):
    out = Path(out)
    return out.with_name(out.stem + ".trace.csv")


def _add_evaluate(sub):
    p = sub.add_parser("evaluate", help="score an embedding against labelings")
    p.add_argument("embedding")
    p.add_argument("labels")
    p.add_argument("--labelings", default=None,
                   help="comma-separated label columns (default: all)")
    p.add_argument("--knn", type=int, default=None)
    p.add_argument("--n-test", type=int, default=None)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--lisi-perplexity", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)


def cmd_evaluate(args):
    Y, ids = matrixio.read_embedding_csv(args.embedding)
    label_ids, table = matrixio.read_labels_csv(args.labels)
    table = matrixio.align_labels(label_ids, table, ids)
    if args.labelings:
        wanted = [v.strip() for v in args.labelings.split(",") if v.strip()]
        unknown = [v for v in wanted if v not in table]
        if unknown:
            raise BctsneError(f"unknown labeling(s) {unknown}")
        table = {v: table[v] for v in wanted}
    cfg = MetricsConfig(
        knn=args.knn,
        n_test=args.n_test,
        alpha=args.alpha,
        lisi_perplexity=args.lisi_perplexity,
        seed=args.seed,
    )
    report = evaluate(Y, table, cfg)
    matrixio.write_report_csv(report, args.out)
    print(report.format_table())
    return 0


def _add_plot(sub):
    p = sub.add_parser("plot", help="render an embedding scatter as SVG")
    p.add_argument("embedding")
    p.add_argument("labels")
    p.add_argument("--color-by", default=None)
    p.add_argument("--shape-by", default=None)
    p.add_argument("--title", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)


def cmd_plot(args):
    Y, ids = matrixio.read_embedding_csv(args.embedding)
    label_ids, table = matrixio.read_labels_csv(args.labels)
    table = matrixio.align_labels(label_ids, table, ids)
    for name in (args.color_by, args.shape_by):
        if name is not None and name not in table:
            raise BctsneError(f"unknown label column {name!r}")
    plot.write_scatter_svg(
        args.out,
        Y,
        color_labels=table[args.color_by] if args.color_by else None,
        shape_labels=table[args.shape_by] if args.shape_by else None,
        title=args.title,
    )
    print(f"wrote {args.out}")
    return 0


def _add_pipeline(sub):
    p = sub.add_parser(
        "pipeline", help="generate + embed (corrected and not) + evaluate + plot"
    )
    p.add_argument("config", help="flat key=value config file")
    p.set_defaults(func=cmd_pipeline)


_PIPELINE_DEFAULTS = {
    "cells": "800", "genes": "2000", "batches": "4", "groups": "4",
    "batch_effect_sd": str(SimSpec.batch_effect_sd),
    "group_effect_sd": str(SimSpec.group_effect_sd),
    "de_prob": str(SimSpec.de_prob),
    "k": "30", "perplexity": "30", "iters": "1000", "eta": "200",
    "exaggeration": "12", "dims": "2", "seed": "0", "outdir": "out",
}


def read_config(path):
    cfg = dict(_PIPELINE_DEFAULTS)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise BctsneError(f"{path}: line {lineno}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in _PIPELINE_DEFAULTS:
                raise BctsneError(f"{path}: line {lineno}: unknown key {key!r}")
            cfg[key] = value.strip()
    return cfg


def cmd_pipeline(args):
    cfg = read_config(args.config)
    outdir = Path(cfg["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    counts_path, labels_path = outdir / "counts.csv", outdir / "labels.csv"
    counts, ids, labels = _write_dataset(_sim_spec(cfg), counts_path, labels_path)
    X = normalize_log1p_cpm(counts)
    design = build_design({"batch": labels["batch"]})

    artifacts = [counts_path, labels_path]
    for tag, tag_design in (("corrected", design), ("uncorrected", None)):
        emb = outdir / f"embedding_{tag}.csv"
        report = outdir / f"report_{tag}.csv"
        svg = outdir / f"embedding_{tag}.svg"
        Y = _embed(X, ids, tag_design, cfg, emb)
        metrics = evaluate(Y, labels, MetricsConfig(seed=int(cfg["seed"])))
        matrixio.write_report_csv(metrics, report)
        print(metrics.format_table())
        plot.write_scatter_svg(svg, Y, color_labels=labels["group"],
                               shape_labels=labels["batch"], title=tag)
        artifacts += [emb, _trace_path(emb), report, svg]

    manifest = outdir / "manifest.txt"
    with manifest.open("w", encoding="utf-8", newline="\n") as fh:
        for artifact in artifacts:
            digest = hashlib.sha256(artifact.read_bytes()).hexdigest()
            fh.write(f"{digest}  {artifact.name}\n")
    print(f"wrote {manifest}")
    return 0


class UsageError(BctsneError):
    pass


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bctsne",
        description="Batch-corrected t-SNE embeddings via projected gradient descent",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_embed(sub)
    _add_evaluate(sub)
    _add_plot(sub)
    _add_pipeline(sub)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except BctsneError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
