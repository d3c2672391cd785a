import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from bctsne import (
    CalibrationWarning,
    DomainError,
    MetricsConfig,
    OptimizerConfig,
    OptimizerError,
    SimSpec,
    ValidationError,
    cli,
    evaluate,
    matrixio,
    tsne,
)
from bctsne.cli import main, read_config
from bctsne.matrixio import read_embedding_csv, read_matrix_csv, write_embedding_csv
from bctsne.metrics import kbet_acceptance


def package_env():
    """The environment for a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=src)


def running(pid):
    """Whether process pid exists and is neither a zombie nor dead."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def ends_within(pid, seconds):
    """Whether process pid has ended, or is a zombie, within seconds; it is
    killed if not."""
    deadline = time.monotonic() + seconds
    while running(pid) and time.monotonic() < deadline:
        time.sleep(0.1)
    if running(pid):
        os.kill(pid, signal.SIGKILL)
        return False
    return True


# The start of a script run in a fresh interpreter: a libc without prctl, as
# on FreeBSD, where fork is the default start method too.
NO_PRCTL = textwrap.dedent("""
    import ctypes

    class CDLL(ctypes.CDLL):
        def __getattr__(self, name):
            if name == "prctl":
                raise AttributeError(name)
            return super().__getattr__(name)

    ctypes.CDLL = CDLL
""")


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    counts, labels = d / "counts.csv", d / "labels.csv"
    rc = main([
        "generate", "--cells", "120", "--genes", "200", "--seed", "1",
        "--counts-out", str(counts), "--labels-out", str(labels),
    ])
    assert rc == 0
    return counts, labels


class TestGenerate:
    def test_default_shape(self, dataset):
        counts, labels = dataset
        M, ids, genes = read_matrix_csv(counts)
        assert M.shape == (120, 200)
        assert len(ids) == 120

    def test_seed_repeat_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            c = tmp_path / f"{name}_counts.csv"
            l = tmp_path / f"{name}_labels.csv"
            main(["generate", "--cells", "40", "--genes", "60", "--seed", "3",
                  "--counts-out", str(c), "--labels-out", str(l)])
            outs.append((c.read_bytes(), l.read_bytes()))
        assert outs[0] == outs[1]

    def test_invalid_flags_exit_nonzero(self, tmp_path, capsys):
        rc = main(["generate", "--cells", "0",
                   "--counts-out", str(tmp_path / "c.csv"),
                   "--labels-out", str(tmp_path / "l.csv")])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_negative_seed_rejected(self, tmp_path, capsys):
        counts, labels = tmp_path / "c.csv", tmp_path / "l.csv"
        rc = main(["generate", "--seed", "-1",
                   "--counts-out", str(counts), "--labels-out", str(labels)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "seed" in err
        assert not counts.exists() and not labels.exists()


class TestEmbed:
    def test_corrected_and_uncorrected(self, dataset, tmp_path):
        counts, labels = dataset
        for extra, name in (
            (["--batch-vars", "batch"], "corr.csv"),
            (["--no-correction"], "unc.csv"),
        ):
            out = tmp_path / name
            rc = main([
                "embed", str(counts), str(labels), "--normalize",
                "--k", "10", "--iters", "150", "--perplexity", "15",
                "--seed", "2", "--out", str(out), *extra,
            ])
            assert rc == 0
            Y, ids = read_embedding_csv(out)
            assert Y.shape == (120, 2)
            trace = (tmp_path / (name[:-4] + ".trace.csv")).read_text()
            assert trace.splitlines()[0].startswith("iteration,")

    def test_missing_batch_vars_usage_error(self, dataset, tmp_path, capsys):
        counts, labels = dataset
        rc = main(["embed", str(counts), str(labels),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "batch-vars" in capsys.readouterr().err

    def test_batch_vars_with_no_correction_usage_error(self, dataset, tmp_path, capsys):
        counts, labels = dataset
        out = tmp_path / "x.csv"
        rc = main(["embed", str(counts), str(labels), "--no-correction",
                   "--batch-vars", "batch", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "batch-vars" in err and "no-correction" in err
        assert not out.exists()

    def test_batch_vars_without_labels_usage_error(self, tmp_path, monkeypatch, capsys):
        def read(path):
            raise AssertionError(f"{path} was read before the usage check")

        monkeypatch.setattr(matrixio, "read_matrix_csv", read)
        out = tmp_path / "x.csv"
        rc = main(["embed", str(tmp_path / "counts.csv"), "--batch-vars", "batch",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and err.count("\n") == 1
        assert "batch-vars" in err and "labels" in err
        assert not out.exists()

    def test_unknown_batch_variable(self, dataset, tmp_path, capsys):
        counts, labels = dataset
        rc = main(["embed", str(counts), str(labels), "--batch-vars", "nope",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValidationError:") and err.count("\n") == 1
        assert "nope" in err and str(labels) in err

    @pytest.mark.parametrize("value", ["0", "-1", "inf"])
    def test_non_positive_exaggeration_rejected(self, dataset, tmp_path, capsys, value):
        counts, labels = dataset
        out = tmp_path / "x.csv"
        rc = main(["embed", str(counts), str(labels), "--batch-vars", "batch",
                   "--k", "10", "--iters", "5", "--perplexity", "15",
                   f"--exaggeration={value}", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "exaggeration" in err
        assert not out.exists()

    def test_negative_seed_rejected(self, dataset, tmp_path, capsys):
        counts, labels = dataset
        out = tmp_path / "x.csv"
        rc = main(["embed", str(counts), str(labels), "--batch-vars", "batch",
                   "--k", "10", "--iters", "5", "--perplexity", "15",
                   "--seed", "-2", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "seed" in err
        assert not out.exists()

    def test_three_dims(self, dataset, tmp_path):
        counts, labels = dataset
        out = tmp_path / "d3.csv"
        rc = main(["embed", str(counts), str(labels), "--no-correction",
                   "--normalize", "--k", "10", "--iters", "60",
                   "--perplexity", "15", "--dims", "3", "--out", str(out)])
        assert rc == 0
        Y, _ = read_embedding_csv(out)
        assert Y.shape[1] == 3


@pytest.fixture(scope="module")
def embedding(dataset, tmp_path_factory):
    counts, labels = dataset
    out = tmp_path_factory.mktemp("emb") / "emb.csv"
    main(["embed", str(counts), str(labels), "--normalize",
          "--batch-vars", "batch", "--k", "10", "--iters", "150",
          "--perplexity", "15", "--seed", "4", "--out", str(out)])
    return out


class TestEvaluateAndPlot:
    def test_evaluate_report(self, dataset, embedding, tmp_path, capsys):
        _, labels = dataset
        report = tmp_path / "report.csv"
        rc = main(["evaluate", str(embedding), str(labels), "--knn", "12",
                   "--out", str(report)])
        assert rc == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "labeling,metric,raw,rescaled"
        assert len(lines) == 1 + 2 * 4  # two labelings x four metrics

    @pytest.mark.parametrize("flag, name", [("--n-test=0", "n_test"),
                                            ("--n-test=-3", "n_test"),
                                            ("--alpha=5", "alpha"),
                                            ("--seed=-1", "seed")])
    def test_bad_kbet_setting_fails_cleanly(self, dataset, embedding, tmp_path, capsys,
                                            flag, name):
        _, labels = dataset
        report = tmp_path / "report.csv"
        rc = main(["evaluate", str(embedding), str(labels), flag, "--out", str(report)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert name in err
        assert not report.exists()

    def test_lisi_perplexity_above_rows_fails_cleanly(self, dataset, embedding,
                                                      tmp_path, capsys):
        # 20 rows cannot reach the default LISI perplexity, 30
        _, labels = dataset
        Y, ids = read_embedding_csv(embedding)
        small, report = tmp_path / "small.csv", tmp_path / "report.csv"
        write_embedding_csv(Y[:20], ids[:20], small)
        rc = main(["evaluate", str(small), str(labels), "--out", str(report)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "lisi_perplexity" in err and "n=20" in err
        assert not report.exists()

    def test_embedding_of_equal_rows_fails_cleanly(self, dataset, embedding,
                                                   tmp_path, capsys):
        # every point at one place: LISI's calibration refuses the duplicates
        _, labels = dataset
        Y, ids = read_embedding_csv(embedding)
        equal, report = tmp_path / "equal.csv", tmp_path / "report.csv"
        write_embedding_csv(np.ones_like(Y), ids, equal)
        rc = main(["evaluate", str(equal), str(labels), "--out", str(report)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValidationError: ") and err.count("\n") == 1
        assert "duplicates" in err
        assert not report.exists()

    @pytest.mark.parametrize("names", ["", ","])
    def test_empty_labelings_fail_cleanly(self, dataset, embedding, tmp_path, capsys,
                                          names):
        # a list of no names is not "every column", which --labelings' absence asks
        _, labels = dataset
        report = tmp_path / "report.csv"
        rc = main(["evaluate", str(embedding), str(labels), "--labelings", names,
                   "--out", str(report)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: ValidationError: need at least one labeling\n"
        assert not report.exists()

    def test_plot_legend_and_determinism(self, dataset, embedding, tmp_path):
        _, labels = dataset
        svgs = []
        for name in ("p1.svg", "p2.svg"):
            out = tmp_path / name
            rc = main(["plot", str(embedding), str(labels), "--color-by",
                       "group", "--shape-by", "batch", "--out", str(out)])
            assert rc == 0
            svgs.append(out.read_bytes())
        assert svgs[0] == svgs[1]
        text = svgs[0].decode()
        assert text.count("<text") >= 8  # 4 group + 4 batch legend entries
        assert 'width="800" height="600"' in text


class TestPipelineConfig:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus=1\n")
        rc = main(["pipeline", str(cfg)])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    def test_defaults_and_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# comment\ncells=50\nseed=9\nbatch_effect_sd=0.5\n")
        parsed = read_config(cfg)
        assert parsed.n_cells == 50
        assert parsed.seed == 9
        assert parsed.batch_effect_sd == 0.5
        assert parsed.perplexity == 30.0

    @pytest.mark.parametrize("line", ["cells=abc", "dims=4", "bogus=1", "cell=100",
                                      "k=900", "exaggeration=0", "perplexity=800",
                                      "de_prob=1.5", "batch_effect_sd=nan", "eta=inf",
                                      "seed=-1", "batches=1", "groups=1",
                                      "seed=1\nseed=2",
                                      # configs that only evaluate's checks refuse
                                      "cells=20\ngenes=100\nperplexity=5\nk=10\niters=50",
                                      "cells=31\ngenes=100\nbatches=15\ngroups=3\n"
                                      "perplexity=5\nk=10\niters=30",
                                      "cells=9\ngenes=50\nbatches=4\ngroups=3\n"
                                      "perplexity=3\nk=5\niters=30"])
    def test_bad_line_fails_before_any_output(self, tmp_path, capsys, line):
        outdir = tmp_path / "out"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"outdir={outdir}\n{line}\n")
        assert main(["pipeline", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(cfg) in err and line.split("=")[0] in err
        assert not outdir.exists()

    def test_line_without_equals_sign_named(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# comment\ncells 50\n")
        with pytest.raises(ValidationError, match="cfg.txt: line 2: expected key=value"):
            read_config(cfg)

    def test_readme_defaults_match(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("Recognized keys and defaults:", 1)[1].split("```")[1]
        documented, empty = tmp_path / "readme.cfg", tmp_path / "empty.cfg"
        documented.write_text("\n".join(block.split()) + "\n")
        empty.write_text("")
        defaults = read_config(empty)
        assert len(block.split()) == len(vars(defaults))
        assert read_config(documented) == defaults


Y30 = np.random.default_rng(0).standard_normal((30, 2))
BATCH30 = ["a", "b"] * 15


class TestOneClassPerFault:
    """A setting out of range raises DomainError, a ValidationError, from the
    library and from every subcommand, whichever module checks it."""

    def test_domain_error_is_a_validation_error(self):
        assert issubclass(DomainError, ValidationError)

    @pytest.mark.parametrize("call", [
        lambda cfg: SimSpec(seed=-1).validate(),
        lambda cfg: OptimizerConfig(seed=-1).validate(100),
        lambda cfg: kbet_acceptance(Y30, BATCH30, seed=-1),
        lambda cfg: evaluate(Y30, {"batch": BATCH30}, MetricsConfig(seed=-1)),
        lambda cfg: read_config(cfg),
    ], ids=["SimSpec", "OptimizerConfig", "kbet_acceptance", "evaluate", "read_config"])
    def test_negative_seed_raises_domain_error(self, tmp_path, call):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed=-1\n")
        with pytest.raises(DomainError, match="seed must be >= 0; got -1") as info:
            call(cfg)
        assert type(info.value) is DomainError

    @pytest.mark.parametrize("command", ["generate", "embed", "evaluate", "pipeline"])
    def test_negative_seed_prints_domain_error(self, dataset, embedding, tmp_path, capsys,
                                               command):
        counts, labels = dataset
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(f"outdir={tmp_path / 'out'}\nseed=-1\n")
        argv = {
            "generate": ["generate", "--seed=-1", "--counts-out", str(tmp_path / "c.csv"),
                         "--labels-out", str(tmp_path / "l.csv")],
            "embed": ["embed", str(counts), str(labels), "--batch-vars", "batch",
                      "--k", "10", "--iters", "5", "--perplexity", "15", "--seed=-1",
                      "--out", str(tmp_path / "e.csv")],
            "evaluate": ["evaluate", str(embedding), str(labels), "--seed=-1",
                         "--out", str(tmp_path / "r.csv")],
            "pipeline": ["pipeline", str(cfg)],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError: ") and err.count("\n") == 1
        assert err.endswith("seed must be >= 0; got -1\n")

    @pytest.mark.parametrize("dims", [1, 4])
    @pytest.mark.parametrize("command", ["embed", "pipeline"])
    def test_dims_out_of_range_prints_domain_error(self, dataset, tmp_path, capsys,
                                                   command, dims):
        # argparse has no range of its own for --dims: the command line and a
        # config get the library's check, its class and its message
        counts, labels = dataset
        out, outdir = tmp_path / "e.csv", tmp_path / "out"
        cfg = tmp_path / "dims.cfg"
        cfg.write_text(f"outdir={outdir}\ndims={dims}\n")
        argv = {
            "embed": ["embed", str(counts), str(labels), "--batch-vars", "batch",
                      "--k", "10", "--iters", "5", "--perplexity", "15",
                      "--dims", str(dims), "--out", str(out)],
            "pipeline": ["pipeline", str(cfg)],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        prefix = "error: DomainError: " + (f"{cfg}: " if command == "pipeline" else "")
        assert err == f"{prefix}dims must be in [2, 3]; got {dims}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dims.cfg"]

    @pytest.mark.parametrize("command", ["generate", "pipeline"])
    def test_text_that_does_not_parse(self, tmp_path, capsys, command):
        # in a config, a ValidationError that names the file; on the command
        # line, argparse's usage error
        cfg = tmp_path / "cells.cfg"
        cfg.write_text(f"outdir={tmp_path / 'out'}\ncells=abc\n")
        if command == "pipeline":
            assert main(["pipeline", str(cfg)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: ValidationError: {cfg}: ")
            assert err.count("\n") == 1
        else:
            with pytest.raises(SystemExit) as info:
                main(["generate", "--cells", "abc", "--counts-out", str(tmp_path / "c.csv"),
                      "--labels-out", str(tmp_path / "l.csv")])
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: bctsne generate")
        assert "invalid int value: 'abc'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cells.cfg"]


class TestPathFaults:
    """A path the user names that cannot be read, written or decoded ends the
    subcommand with one error line that names it, never the temporary file
    written for it, and leaves no temporary file."""

    # case: (files made first, bytes or None for a directory; the arguments,
    # with {labels} and {embedding} filled in; the path the error names)
    CASES = {
        "missing-embedding": ({}, "evaluate missing.csv {labels} --out m.csv",
                              "missing.csv"),
        "missing-config": ({}, "pipeline missing.cfg", "missing.cfg"),
        "labels-out-in-missing-dir": (
            {}, "generate --cells 20 --genes 10 --counts-out c.csv --labels-out nodir/l.csv",
            "nodir/l.csv"),
        "plot-out-is-a-directory": ({"dir": None}, "plot {embedding} {labels} --out dir/",
                                    "dir/"),
        "outdir-is-a-file": ({"file": b"", "run.cfg": b"outdir=file\ncells=40\n"},
                             "pipeline run.cfg", "file"),
        "latin1-matrix": ({"latin1.csv": b"id,y1,y2\ncaf\xe9,1,2\n"},
                          "evaluate latin1.csv {labels} --out m.csv", "latin1.csv"),
        "latin1-config": ({"run.cfg": b"# caf\xe9\n"}, "pipeline run.cfg", "run.cfg"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_one_error_line_names_the_path(self, dataset, embedding, tmp_path,
                                           monkeypatch, capsys, case):
        files, argv, named = self.CASES[case]
        monkeypatch.chdir(tmp_path)
        for name, data in files.items():
            if data is None:
                Path(name).mkdir()
            else:
                Path(name).write_bytes(data)
        argv = [arg.format(labels=dataset[1], embedding=embedding) for arg in argv.split()]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValidationError: {named}: ")
        assert err.count("\n") == 1 and ".tmp" not in err
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("out", ["outd/", "outd"])
    def test_output_directory_refused_by_name(self, dataset, embedding, tmp_path,
                                              monkeypatch, capsys, out):
        # refused before anything is written, with or without the slash
        monkeypatch.chdir(tmp_path)
        Path("outd").mkdir()
        assert main(["plot", str(embedding), str(dataset[1]), "--out", out]) == 1
        assert capsys.readouterr().err == f"error: ValidationError: {out}: is a directory\n"
        assert not list(tmp_path.rglob("*.tmp"))


class TestPipelineMatchesSubcommands:
    def test_embeddings_and_manifest(self, tmp_path):
        seed = "5"
        outdir = tmp_path / "pipe"
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(f"cells=60\ngenes=100\niters=100\nseed={seed}\noutdir={outdir}\n")
        assert main(["pipeline", str(cfg)]) == 0
        assert multiprocessing.active_children() == []

        counts, labels = tmp_path / "counts.csv", tmp_path / "labels.csv"
        assert main(["generate", "--cells", "60", "--genes", "100", "--seed", seed,
                     "--counts-out", str(counts), "--labels-out", str(labels)]) == 0
        assert counts.read_bytes() == (outdir / "counts.csv").read_bytes()
        assert labels.read_bytes() == (outdir / "labels.csv").read_bytes()
        for tag, extra in (("corrected", ["--batch-vars", "batch"]),
                           ("uncorrected", ["--no-correction"])):
            out = tmp_path / f"embedding_{tag}.csv"
            assert main(["embed", str(counts), str(labels), "--normalize",
                         "--iters", "100", "--seed", seed, "--out", str(out), *extra]) == 0
            assert out.read_bytes() == (outdir / out.name).read_bytes()

        entries = [line.split("  ", 1) for line in
                   (outdir / "manifest.txt").read_text(encoding="utf-8").splitlines()]
        expected = ["counts.csv", "labels.csv"] + [
            name.format(tag) for tag in ("corrected", "uncorrected")
            for name in ("embedding_{}.csv", "embedding_{}.trace.csv",
                         "report_{}.csv", "embedding_{}.svg")]
        assert [name for _, name in entries] == expected
        for digest, name in entries:
            assert hashlib.sha256((outdir / name).read_bytes()).hexdigest() == digest


class TestPipelineInTwoProcesses:
    """pipeline computes the uncorrected embedding in a child process (forked
    on Linux, so the child inherits monkeypatched functions).  A failure on
    either side ends the run with one error line, and no child outlives it."""

    @pytest.fixture
    def pipeline(self, tmp_path):
        outdir = tmp_path / "pipe"
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(f"cells=60\ngenes=100\niters=50\noutdir={outdir}\n")
        return cfg, outdir

    @staticmethod
    def patch_runs(monkeypatch, corrected=None, uncorrected=None):
        """Call corrected() or uncorrected() at the start of that run."""
        run_tsne = cli.run_tsne

        def patched(X, cfg, projector=None, **kwargs):
            before = uncorrected if projector is None else corrected
            if before is not None:
                before()
            return run_tsne(X, cfg, projector=projector, **kwargs)

        monkeypatch.setattr(cli, "run_tsne", patched)

    @staticmethod
    def raise_optimizer_error():
        raise OptimizerError("non-finite gradient", iteration=7)

    def test_uncorrected_run_raises(self, pipeline, monkeypatch, capsys):
        cfg, outdir = pipeline
        self.patch_runs(monkeypatch, uncorrected=self.raise_optimizer_error)
        assert main(["pipeline", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == "error: OptimizerError: non-finite gradient\n"
        assert not (outdir / "manifest.txt").exists()
        assert not list(outdir.glob("*uncorrected*"))
        assert (outdir / "report_corrected.csv").exists()
        assert multiprocessing.active_children() == []

    def test_corrected_run_raises_and_the_child_is_terminated(self, pipeline,
                                                               monkeypatch, capsys):
        cfg, outdir = pipeline
        self.patch_runs(monkeypatch, corrected=self.raise_optimizer_error,
                        uncorrected=lambda: time.sleep(600))
        start = time.monotonic()
        assert main(["pipeline", str(cfg)]) == 1
        assert time.monotonic() - start < 300  # the child did not sleep it out
        assert capsys.readouterr().err == "error: OptimizerError: non-finite gradient\n"
        assert not list(outdir.glob("embedding_*"))
        assert multiprocessing.active_children() == []

    @staticmethod
    def patch_counts_write(monkeypatch, write):
        """Call write(path) instead of writing counts.csv."""
        write_matrix_csv = matrixio.write_matrix_csv

        def patched(M, row_ids, col_names, path):
            if Path(path).name == "counts.csv":
                return write(path)
            return write_matrix_csv(M, row_ids, col_names, path)

        monkeypatch.setattr(matrixio, "write_matrix_csv", patched)

    def test_counts_write_raises_in_the_child(self, pipeline, monkeypatch, capsys):
        cfg, outdir = pipeline

        def fail(path):
            raise ValidationError(f"{path}: no space left")

        self.patch_counts_write(monkeypatch, fail)
        assert main(["pipeline", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: ValidationError: {outdir / 'counts.csv'}: no space left\n"
        assert not (outdir / "manifest.txt").exists()
        assert not list(outdir.glob("counts.csv*"))
        assert multiprocessing.active_children() == []

    def test_child_terminated_mid_write_leaves_no_temporary_file(self, pipeline,
                                                                monkeypatch, capsys):
        # the child ends at once, without running replacing's cleanup, so the
        # parent removes the child's temporary file
        cfg, outdir = pipeline

        def stall(path):
            with matrixio.replacing(path) as fh:
                fh.write("id,gene1\n")
                time.sleep(600)

        def raise_mid_write():
            deadline = time.monotonic() + 60
            while not list(outdir.glob("counts.csv.*.tmp")):
                assert time.monotonic() < deadline, "the child never began counts.csv"
                time.sleep(0.01)
            self.raise_optimizer_error()

        self.patch_counts_write(monkeypatch, stall)
        self.patch_runs(monkeypatch, corrected=raise_mid_write)
        start = time.monotonic()
        assert main(["pipeline", str(cfg)]) == 1
        assert time.monotonic() - start < 300  # the child did not sleep it out
        assert capsys.readouterr().err == "error: OptimizerError: non-finite gradient\n"
        assert sorted(p.name for p in outdir.iterdir()) == ["labels.csv"]
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs fork")
    def test_forked_child_frees_the_counts_once_written(self, pipeline, monkeypatch):
        # a forked child inherits this process's names: the counts must be
        # held only by the argument list that the child clears
        cfg, _ = pipeline
        monkeypatch.setattr(cli, "_START_METHOD", "fork")
        write_dataset, counts = cli._write_dataset, []

        def patched(spec, labels_out):
            dataset = write_dataset(spec, labels_out)
            counts.append(weakref.ref(dataset[0]))
            return dataset

        def freed():
            if counts[0]() is not None:
                raise ValidationError("the counts are still held")

        monkeypatch.setattr(cli, "_write_dataset", patched)
        self.patch_runs(monkeypatch, corrected=freed, uncorrected=freed)
        assert main(["pipeline", str(cfg)]) == 0

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs fork")
    def test_child_that_finds_the_pipe_closed_prints_nothing(self, pipeline):
        # the parent fails while the child's run goes on, so the child's send
        # finds the parent's end closed.  The watcher, which would end the
        # child then, only reports the close here, so the send always runs
        cfg, _ = pipeline
        script = textwrap.dedent("""
            import sys, threading
            from bctsne import OptimizerError, cli

            closed = threading.Event()

            def watch(conn):
                conn.poll(None)
                closed.set()

            run_tsne = cli.run_tsne

            def patched(X, cfg, projector=None, **kwargs):
                if projector is not None:
                    raise OptimizerError("non-finite gradient", iteration=7)
                closed.wait()
                return run_tsne(X, cfg, **kwargs)

            cli._START_METHOD = "fork"
            cli._exit_when_closed = watch
            cli.run_tsne = patched
            sys.exit(cli.main(["pipeline", sys.argv[1]]))
        """)
        proc = subprocess.run([sys.executable, "-c", script, str(cfg)],
                              capture_output=True, text=True, timeout=120,
                              env=package_env())
        assert (proc.returncode, proc.stderr) == (
            1, "error: OptimizerError: non-finite gradient\n")

    def test_other_errors_carry_the_childs_traceback(self, pipeline, monkeypatch):
        cfg, _ = pipeline

        def fail():
            raise KeyError("not a package error")

        self.patch_runs(monkeypatch, uncorrected=fail)
        with pytest.raises(KeyError, match="not a package error") as info:
            main(["pipeline", str(cfg)])
        assert "in _tsne_in_child" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_child_that_dies_silently_names_its_exit_code(self, pipeline, monkeypatch,
                                                          capsys):
        cfg, outdir = pipeline
        self.patch_runs(monkeypatch, uncorrected=lambda: os._exit(3))
        assert main(["pipeline", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: BctsneError:") and err.count("\n") == 1
        assert "exit code 3" in err
        assert not (outdir / "manifest.txt").exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_child_of_a_vanished_parent_does_not_wait_forever(self, pipeline):
        # the parent exits without cleaning up while its child has a result
        # larger than a pipe's buffer to send: the child must end, not block
        cfg, _ = pipeline
        script = textwrap.dedent("""
            import multiprocessing, os, sys
            import numpy as np
            from bctsne import cli
            from bctsne.tsne import EmbeddingState

            def run_tsne(X, cfg, projector=None, **kwargs):
                if projector is None:
                    return EmbeddingState(Y=np.zeros((100_000, 2)))
                print(multiprocessing.active_children()[0].pid, flush=True)
                os._exit(0)

            cli.run_tsne = run_tsne
            cli.main(["pipeline", sys.argv[1]])
        """)
        out = cfg.with_name("stdout.txt")
        with out.open("w") as fh:
            subprocess.run([sys.executable, "-c", script, str(cfg)], stdout=fh,
                           stderr=subprocess.DEVNULL, check=True, timeout=120,
                           env=package_env())
        pid = int(out.read_text().split()[-1])
        assert ends_within(pid, 60)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    @pytest.mark.parametrize("method, sig, libc", [
        pytest.param("fork", signal.SIGTERM, "", id="fork"),
        pytest.param("spawn", signal.SIGTERM, "", id="spawn"),
        pytest.param("fork", signal.SIGKILL, "", id="fork-SIGKILL"),
        pytest.param("spawn", signal.SIGKILL, "", id="spawn-SIGKILL"),
        pytest.param("fork", signal.SIGTERM, NO_PRCTL, id="fork-no-prctl"),
    ])
    def test_child_ends_with_a_parent_killed_by_a_signal(self, tmp_path, method, sig,
                                                          libc):
        # neither signal gives the parent a chance to stop its child, and
        # SIGKILL runs no handler at all.  The forked child's run sleeps; the
        # spawned one runs a real embedding of ten million iterations.  Each
        # must end when the kernel closes the dead parent's end of the pipe
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(f"cells=60\ngenes=100\niters=10000000\noutdir={tmp_path}\n")
        script = libc + textwrap.dedent("""
            import multiprocessing, sys, time
            from bctsne import cli

            def run_tsne(X, cfg, projector=None, **kwargs):
                if projector is None:
                    time.sleep(120)
                print("child", multiprocessing.active_children()[0].pid, flush=True)
                time.sleep(120)

            cli._START_METHOD = sys.argv[2]
            cli.run_tsne = run_tsne
            cli.main(["pipeline", sys.argv[1]])
        """)
        parent = subprocess.Popen([sys.executable, "-c", script, str(cfg), method],
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, env=package_env())
        try:
            lines = iter(parent.stdout.readline, "")
            pid = int(next(line for line in lines if line.startswith("child ")).split()[1])
            time.sleep(0.5)
            assert running(pid)  # the child is under way
        finally:
            parent.send_signal(sig)
            parent.stdout.close()
            assert parent.wait(timeout=30) == -sig
        assert ends_within(pid, 5)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs fork")
    def test_forked_child_without_prctl_writes_the_same_bytes(self, tmp_path,
                                                              monkeypatch, capsys):
        default, no_prctl = tmp_path / "default", tmp_path / "no-prctl"
        for run in (default, no_prctl):
            run.mkdir()
            (run / "pipeline.cfg").write_text("cells=60\ngenes=100\niters=50\noutdir=out\n")
        monkeypatch.chdir(default)
        assert main(["pipeline", "pipeline.cfg"]) == 0
        stdout = capsys.readouterr().out
        script = NO_PRCTL + textwrap.dedent("""
            import sys
            from bctsne import cli

            cli._START_METHOD = "fork"
            sys.exit(cli.main(["pipeline", "pipeline.cfg"]))
        """)
        proc = subprocess.run([sys.executable, "-c", script], cwd=no_prctl,
                              capture_output=True, text=True, timeout=300,
                              env=package_env())
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == stdout
        files = [{p.name: p.read_bytes() for p in (run / "out").iterdir()}
                 for run in (default, no_prctl)]
        assert len(files[1]) == 11
        assert files[1] == files[0]

    def test_child_warnings_reach_the_caller(self, pipeline, monkeypatch):
        cfg, _ = pipeline
        monkeypatch.setattr(tsne, "_MAX_ITER", 2)  # every calibration misses
        with pytest.warns(CalibrationWarning) as record:
            assert main(["pipeline", str(cfg)]) == 0
        caught = [w for w in record if issubclass(w.category, CalibrationWarning)]
        # per embedding, one from its run's affinities and one from its
        # report's LISI weights; the third came from the child's run
        assert len(caught) == 4
        assert [w.filename for w in caught] == [__file__] * 4
        assert multiprocessing.active_children() == []

    def test_spawned_child_writes_the_same_bytes(self, tmp_path, monkeypatch, capsys):
        default, outputs = cli._START_METHOD, {}
        for method in (default, "spawn"):
            monkeypatch.setattr(cli, "_START_METHOD", method)
            run = tmp_path / str(method)
            run.mkdir()
            (run / "pipeline.cfg").write_text("cells=60\ngenes=100\niters=50\noutdir=out\n")
            monkeypatch.chdir(run)
            assert main(["pipeline", "pipeline.cfg"]) == 0
            files = {p.name: p.read_bytes() for p in (run / "out").iterdir()}
            outputs[method] = (files, capsys.readouterr().out)
        assert len(outputs["spawn"][0]) == 11
        assert outputs[default] == outputs["spawn"]
        assert multiprocessing.active_children() == []
