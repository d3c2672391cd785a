import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from bctsne import (
    CalibrationWarning,
    OptimizerError,
    ValidationError,
    cli,
    matrixio,
    tsne,
)
from bctsne.cli import main, read_config
from bctsne.matrixio import read_embedding_csv, read_matrix_csv, write_embedding_csv


def package_env():
    """The environment for a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=src)


def ends_within(pid, seconds):
    """Whether process pid has ended, or is a zombie, within seconds; it is
    killed if not."""

    def running():
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return False
        return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")

    deadline = time.monotonic() + seconds
    while running() and time.monotonic() < deadline:
        time.sleep(0.1)
    if running():
        os.kill(pid, signal.SIGKILL)
        return False
    return True


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
                                      "seed=1\nseed=2"])
    def test_bad_line_fails_before_any_output(self, tmp_path, capsys, line):
        outdir = tmp_path / "out"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"outdir={outdir}\n{line}\n")
        assert main(["pipeline", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(cfg) in err and line.split("=")[0] in err
        assert not outdir.exists()

    def test_readme_defaults_match(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("Recognized keys and defaults:", 1)[1].split("```")[1]
        documented, empty = tmp_path / "readme.cfg", tmp_path / "empty.cfg"
        documented.write_text("\n".join(block.split()) + "\n")
        empty.write_text("")
        defaults = read_config(empty)
        assert len(block.split()) == len(vars(defaults))
        assert read_config(documented) == defaults


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
        # SIGTERM ends the child without running replacing's cleanup, so the
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
        # larger than a pipe's buffer to send: the send must fail, not block.
        # prctl is made to fail, or Linux would kill the child with its parent
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
            cli._die_with_parent = lambda: -1
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
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_child_ends_with_a_parent_killed_by_a_signal(self, tmp_path, method):
        # SIGTERM gives the parent no chance to stop its child.  The forked
        # child's run sleeps, so only the kernel's SIGKILL can end it; the
        # spawned one runs a real embedding of ten million iterations and
        # must notice at a trace record
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(f"cells=60\ngenes=100\niters=10000000\noutdir={tmp_path}\n")
        script = textwrap.dedent("""
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
            time.sleep(0.5)  # the child is under way
        finally:
            parent.send_signal(signal.SIGTERM)
            parent.stdout.close()
            assert parent.wait(timeout=30) == -signal.SIGTERM
        assert ends_within(pid, 5)

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
