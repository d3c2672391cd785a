"""Command-line front door: generate / embed / evaluate / plot / pipeline."""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import multiprocessing
import os
import sys
import threading
import traceback
import warnings
from pathlib import Path

from . import matrixio, plot
from .design import build_design
from .errors import BctsneError, DomainError, ValidationError, _warn_caller
from .linalg import ensure_index
from .metrics import MetricsConfig, _evaluate_settings, evaluate
from .reduce import pca_reduce
from .simulate import SimSpec, _assignment, normalize_log1p_cpm, simulate
from .tsne import OptimizerConfig, run_tsne

# pipeline's uncorrected embedding runs in a child process.  A forked child
# inherits the imported package and the scores; a spawned one would import
# bctsne again, which takes longer than a 200-cell run.  None is the
# platform's default start method.
_START_METHOD = "fork" if sys.platform.startswith("linux") else None

# The option tables below are the only definition of each setting: the
# subcommands are built from them, `read_config` parses a pipeline config with
# them, and an option's dest names the library config field it sets.


def _generate_options():
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--cells", dest="n_cells", type=int, default=SimSpec.n_cells)
    p.add_argument("--genes", dest="n_genes", type=int, default=SimSpec.n_genes)
    p.add_argument("--batches", dest="n_batches", type=int, default=SimSpec.n_batches)
    p.add_argument("--groups", dest="n_groups", type=int, default=SimSpec.n_groups)
    p.add_argument("--batch-effect-sd", type=float, default=SimSpec.batch_effect_sd)
    p.add_argument("--group-effect-sd", type=float, default=SimSpec.group_effect_sd)
    p.add_argument("--de-prob", type=float, default=SimSpec.de_prob)
    return p


def _embed_options():
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--k", type=int, default=30)
    p.add_argument("--perplexity", type=float, default=OptimizerConfig.perplexity)
    p.add_argument("--iters", dest="n_iter", type=int, default=OptimizerConfig.n_iter)
    p.add_argument("--eta", type=float, default=OptimizerConfig.eta)
    p.add_argument("--exaggeration", dest="exaggeration_factor", type=float,
                   default=OptimizerConfig.exaggeration_factor)
    p.add_argument("--dims", type=int, default=OptimizerConfig.dims)
    return p


def _seed_option():
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=0)
    return p


def _config(cls, opts):
    """The dataclass cls with each field that opts has set from opts."""
    fields = [f.name for f in dataclasses.fields(cls) if hasattr(opts, f.name)]
    return cls(**{name: getattr(opts, name) for name in fields})


def _names(text):
    """The comma-separated names in text, blanks dropped."""
    return [v.strip() for v in text.split(",") if v.strip()]


def _add_generate(sub):
    p = sub.add_parser("generate", parents=[_generate_options(), _seed_option()],
                       help="write a synthetic counts + labels dataset")
    p.add_argument("--counts-out", required=True)
    p.add_argument("--labels-out", required=True)
    p.set_defaults(func=cmd_generate)


def _write_dataset(spec, labels_out):
    """Simulate spec, print its summary line, write its labels CSV and return
    (counts, cell ids, gene names, {"batch": ..., "group": ...}); the caller
    writes the counts CSV."""
    out = simulate(spec)
    ids = [f"cell{i + 1}" for i in range(spec.n_cells)]
    genes = [f"gene{j + 1}" for j in range(spec.n_genes)]
    labels = {"batch": out.batch_labels.tolist(), "group": out.group_labels.tolist()}
    print(
        f"generated {spec.n_cells} cells x {spec.n_genes} genes, "
        f"{spec.n_batches} batches, {spec.n_groups} groups, seed {spec.seed}"
    )
    matrixio.write_labels_csv(ids, labels, labels_out)
    return out.counts, ids, genes, labels


def cmd_generate(args):
    counts, ids, genes, _ = _write_dataset(_config(SimSpec, args), args.labels_out)
    matrixio.write_matrix_csv(counts, ids, genes, args.counts_out)
    return 0


def _add_embed(sub):
    p = sub.add_parser("embed", parents=[_embed_options(), _seed_option()],
                       help="estimate a (batch-corrected) embedding")
    p.add_argument("matrix")
    p.add_argument("labels", nargs="?")
    p.add_argument("--batch-vars", type=_names, default=None,
                   help="comma-separated label columns")
    p.add_argument("--no-correction", action="store_true")
    p.add_argument("--normalize", action="store_true",
                   help="treat the matrix as counts and apply log1p-CPM first")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)


def _tsne(scores, projector, opts):
    """(embedding, trace records) of the t-SNE of the PCA scores with the
    embed options and seed in opts, corrected for the projector's design when
    one is given."""
    trace = []
    state = run_tsne(scores, _config(OptimizerConfig, opts), projector=projector,
                     on_trace=trace.append)
    return state.Y, trace


def _write_embedding(Y, trace, ids, out, tag):
    """Write the embedding CSV and its trace next to it."""
    matrixio.write_embedding_csv(Y, ids, out)
    matrixio.write_loss_trace(trace, _trace_path(out))
    print(f"wrote {out} ({tag})")


def cmd_embed(args):
    if args.no_correction == (args.batch_vars is not None):
        raise UsageError("give exactly one of --batch-vars and --no-correction")
    if args.batch_vars is not None and args.labels is None:
        raise UsageError("--batch-vars needs a labels file")
    X, ids, _ = matrixio.read_matrix_csv(args.matrix)
    if args.normalize:
        X = normalize_log1p_cpm(X)
    projector = None
    if not args.no_correction:
        labels = matrixio.read_labels_csv(args.labels, ids, args.batch_vars)
        projector = build_design(labels)
    Y, trace = _tsne(pca_reduce(X, args.k).scores, projector, args)
    _write_embedding(Y, trace, ids, args.out,
                     "uncorrected" if projector is None else "corrected")
    return 0


def _trace_path(out):
    out = Path(out)
    return out.with_name(out.stem + ".trace.csv")


def _add_evaluate(sub):
    p = sub.add_parser("evaluate", parents=[_seed_option()],
                       help="score an embedding against labelings")
    p.add_argument("embedding")
    p.add_argument("labels")
    p.add_argument("--labelings", type=_names, default=None,
                   help="comma-separated label columns (default: all)")
    p.add_argument("--knn", type=int, default=None)
    p.add_argument("--n-test", type=int, default=None)
    p.add_argument("--alpha", type=float, default=MetricsConfig.alpha)
    p.add_argument("--lisi-perplexity", type=float, default=MetricsConfig.lisi_perplexity)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)


def cmd_evaluate(args):
    Y, ids = matrixio.read_embedding_csv(args.embedding)
    table = matrixio.read_labels_csv(args.labels, ids, args.labelings)
    report = evaluate(Y, table, _config(MetricsConfig, args))
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
    columns = [c for c in (args.color_by, args.shape_by) if c is not None]
    table = matrixio.read_labels_csv(args.labels, ids, columns)
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


class _ConfigParser(argparse.ArgumentParser):
    """The generate and embed options, seed and outdir, parsed from a config
    file's lines; a bad line raises ValidationError."""

    def __init__(self):
        super().__init__(
            parents=[_generate_options(), _embed_options(), _seed_option()],
            add_help=False,
            allow_abbrev=False,
        )
        self.add_argument("--outdir", default="out")

    def error(self, message):
        raise ValidationError(message)


def read_config(path):
    """Typed pipeline settings from a flat key=value file whose keys are the
    generate and embed option names with _ for -, seed and outdir.  Each
    fault names the file and keeps its class, except that labelings which
    evaluate would refuse in the reports raise DomainError."""
    argv, first = [], {}
    with matrixio.path_faults(path), open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}: line {lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = f"--{key.replace('_', '-')}"
            if flag in first:
                raise ValidationError(f"{path}: line {lineno}: {key} was already set "
                                      f"on line {first[flag]}")
            first[flag] = lineno
            argv.append(f"{flag}={value}")
    try:  # settings that clash fail here, before the pipeline writes anything
        cfg = _ConfigParser().parse_args(argv)
        spec = _config(SimSpec, cfg)
        spec.validate()
        _config(OptimizerConfig, cfg).validate(cfg.n_cells)
        ensure_index(cfg.k, "k", 1, min(cfg.n_cells, cfg.n_genes))
        _, (batch, group) = _assignment(spec)
        try:  # the reports' labelings, under evaluate's own checks
            _evaluate_settings({"batch": batch, "group": group}, cfg.n_cells,
                               MetricsConfig(seed=cfg.seed))
        except ValidationError as exc:
            raise DomainError(f"evaluate cannot score cells={cfg.n_cells}, batches="
                              f"{cfg.n_batches}, groups={cfg.n_groups}: {exc}") from None
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return cfg


class _ChildTraceback(Exception):
    """The traceback, as text, of an exception raised in a child process."""


def _exit_when_closed(conn):
    """Thread target: end this process once conn has something to read.  The
    parent never sends on its end, so that is when the parent has closed it:
    it has finished, failed or died."""
    try:
        conn.poll(None)
    finally:
        os._exit(1)  # before any traceback: this thread writes nothing


def _tsne_in_child(receiver, sender, counts_csv, scores, opts):
    """Process target: write the counts CSV from counts_csv, a list of
    write_matrix_csv's arguments, then send the uncorrected run's (embedding,
    trace) or None, the warnings recorded, and the exception that ended
    either step with its traceback, or None.  The process ends at once when
    the parent closes receiver's end, as it does when it no longer wants the
    result."""
    # with the parent's end open here too, a result larger than the pipe's
    # buffer would wait forever for a parent that has died, and the watcher
    # would never wake
    receiver.close()
    threading.Thread(target=_exit_when_closed, args=(sender,), daemon=True).start()
    result = error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # the parent's filters decide
        try:
            matrixio.write_matrix_csv(*counts_csv)
            # the list is the counts' only reference, which the process
            # object keeps: clear it rather than hold them through the run
            counts_csv.clear()
            result = _tsne(scores, None, opts)
        except Exception as exc:
            error = exc, traceback.format_exc()
    try:
        sender.send((result, [w.message for w in caught], error))
    except ConnectionError:  # the parent has closed its end: end silently
        return
    sender.close()


def _receive(receiver, child):
    """The child's (embedding, trace), after raising its warnings in order
    from the caller's side; raises the child's exception if it sent one."""
    try:
        result, messages, error = receiver.recv()
    except EOFError:
        child.join()
        raise BctsneError(
            f"the uncorrected embedding's process ended with exit code "
            f"{child.exitcode} before sending its result"
        ) from None
    for message in messages:
        _warn_caller(message, type(message))
    if error is not None:
        exc, text = error
        raise exc from _ChildTraceback(text)
    return result


def _write_outputs(outdir, tag, Y, trace, ids, labels, seed):
    """Write the embedding, trace, report and plot for tag, print the report
    and return the four paths."""
    emb = outdir / f"embedding_{tag}.csv"
    report = outdir / f"report_{tag}.csv"
    svg = outdir / f"embedding_{tag}.svg"
    _write_embedding(Y, trace, ids, emb, tag)
    metrics = evaluate(Y, labels, MetricsConfig(seed=seed))
    matrixio.write_report_csv(metrics, report)
    print(metrics.format_table())
    plot.write_scatter_svg(svg, Y, color_labels=labels["group"],
                           shape_labels=labels["batch"], title=tag)
    return [emb, _trace_path(emb), report, svg]


def cmd_pipeline(args):
    cfg = read_config(args.config)
    outdir = Path(cfg.outdir)
    with matrixio.path_faults(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
    counts_path, labels_path = outdir / "counts.csv", outdir / "labels.csv"
    counts, ids, genes, labels = _write_dataset(_config(SimSpec, cfg), labels_path)
    scores = pca_reduce(normalize_log1p_cpm(counts), cfg.k).scores

    # a child process writes counts.csv and computes the uncorrected embedding
    # while this one computes the corrected one; the child prints nothing, so
    # every line comes from here, in the order of running the two one after
    # the other.  The pipe is duplex only so that the child can watch for
    # the parent's end to close: this process never sends on it
    context = multiprocessing.get_context(_START_METHOD)
    receiver, sender = context.Pipe()
    child = context.Process(target=_tsne_in_child, daemon=True,
                            args=(receiver, sender, [counts, ids, genes, counts_path],
                                  scores, cfg))
    # before start(), so that a forked child holds the counts only through
    # the list it clears; start() then lets go of this process's copy
    del counts
    child.start()
    sender.close()
    try:
        projector = build_design({"batch": labels["batch"]})
        artifacts = [counts_path, labels_path]
        artifacts += _write_outputs(outdir, "corrected", *_tsne(scores, projector, cfg),
                                    ids, labels, cfg.seed)
        artifacts += _write_outputs(outdir, "uncorrected", *_receive(receiver, child),
                                    ids, labels, cfg.seed)
    finally:
        receiver.close()  # ends the child if it is still running
        child.join()
        # a child ended while writing counts.csv leaves its temporary file
        matrixio.temporary_path(counts_path, child.pid).unlink(missing_ok=True)

    manifest = outdir / "manifest.txt"
    with matrixio.replacing(manifest) as fh:
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
    # the caller's filters decide each warning; each one they let through is
    # printed as one line in the errors' form, in order, once the command ends
    with warnings.catch_warnings(record=True) as caught:
        try:
            return args.func(args)
        except UsageError as exc:
            status, error = 2, f"usage: {exc}"
        except BctsneError as exc:
            status, error = 1, f"{type(exc).__name__}: {exc}"
        finally:
            for w in caught:
                print(f"warning: {w.category.__name__}: {w.message}", file=sys.stderr)
    print(f"error: {error}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
