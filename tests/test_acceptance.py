"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line, plus unit tests of criterion 5's rule on synthetic
traces.  Criteria 2, 4, 5 and 6 share the three-seed desk-scale simulation
runs built once per session.
"""
import sys
import time

import numpy as np
import pytest

from oracles import (
    embedding_affinities,
    hat_matrix_projection,
    kl_loss,
    literal_embedding_affinities,
    literal_input_affinities,
    silhouette_oracle,
)

from bctsne import (
    MetricsConfig,
    OptimizerConfig,
    Projector,
    SimSpec,
    build_design,
    normalize_log1p_cpm,
    pca_reduce,
    run_tsne,
    simulate,
)
from bctsne.cli import main
from bctsne.metrics import kbet_acceptance, lisi, pc_regression, silhouette
from bctsne.tsne import _Kernel, input_affinities


# Criterion 5: once early exaggeration ends at iteration 250, KL settles.
# Counting every rise above 1e-12 relative (the earlier rule: at most 3 of
# the 75 trace steps) flipped on last-bit changes of the PCA scores, since
# late oscillations of about 1e-4 are common at eta = 200.  The thresholds
# come from the traces (every 10 iterations) of this fixture's runs at 800
# cells, seeds 1-10, corrected and uncorrected, with the n x n kernel and the
# tiled kernel at 1 and 2 BLAS threads, 80 runs: no step from iteration 250
# on raised KL by more than 10.3%, and KL(999) / KL(500) lay in
# [0.929, 0.982].  Faults injected into seed 1 (uncorrected, both kernels at
# 1 and 2 threads): eta = 3000 leaves KL unsettled, with ratios of
# 0.44-0.57; a late momentum of 0.98 raises KL by 42-51% in one step;
# eta = 1000 and a minimum gain of 5 raise it by 11-20% once, at iteration
# 260, and then settle like an unfaulted run (ratios 0.96-0.99), so they
# pass.
KL_MAX_RISE = 0.25
KL_LATE_RATIO = (0.75, 1.0)


def kl_settles(trace):
    """Criterion 5's rule for a trace of (iteration, kl) pairs that records
    iteration 500: (ok, largest relative rise between consecutive records
    from iteration 250 on, KL at the last record / KL at iteration 500)."""
    post = [kl for t, kl in trace if t >= 250]
    rise = max(b / a - 1.0 for a, b in zip(post, post[1:]))
    ratio = post[-1] / dict(trace)[500]
    ok = rise <= KL_MAX_RISE and KL_LATE_RATIO[0] <= ratio <= KL_LATE_RATIO[1]
    return ok, rise, ratio


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    # bypass pytest's capture so the one-line verdicts always reach the console
    print(f"ACCEPTANCE {criterion}: {status} ({detail})", file=sys.__stdout__)
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def simulation_runs():
    """Corrected + uncorrected embeddings for seeds 1-3 at desk scale."""
    runs = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr("bctsne.tsne._TRACE_EVERY", 10)
        for seed in (1, 2, 3):
            out = simulate(SimSpec(seed=seed))
            X = normalize_log1p_cpm(out.counts)
            cfg = OptimizerConfig(n_iter=1000, seed=seed)

            scores = pca_reduce(X, 30).scores
            trace_u = []
            state_u = run_tsne(scores, cfg, on_trace=trace_u.append)

            projector = build_design({"batch": out.batch_labels.tolist()})
            scores_c = projector.project(scores)
            trace_c = []
            state_c = run_tsne(
                scores_c, cfg, projector=projector, on_trace=trace_c.append,
            )
            runs[seed] = {
                "sim": out,
                "scores_corrected": scores_c,
                "uncorrected": state_u,
                "corrected": state_c,
                "trace_uncorrected": trace_u,
                "trace_corrected": trace_c,
                "projector": projector,
            }
    return runs


def test_criterion_1_gradient_vs_finite_differences():
    rng = np.random.default_rng(100)
    t0 = time.time()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(8, 16))
        X = rng.standard_normal((n, 4))
        table = input_affinities(X, min(5.0, n - 2))
        Y = rng.standard_normal((n, 2))
        grad = _Kernel(table.P, 2)(Y)
        h = 1e-5
        for i in range(n):
            for j in range(2):
                Yp, Ym = Y.copy(), Y.copy()
                Yp[i, j] += h
                Ym[i, j] -= h
                fd = (
                    kl_loss(table.P, embedding_affinities(Yp)[0])
                    - kl_loss(table.P, embedding_affinities(Ym)[0])
                ) / (2 * h)
                worst = max(worst, abs(grad[i, j] - fd) / max(abs(fd), 1e-8))
    elapsed = time.time() - t0
    report(
        1,
        worst < 1e-4 and elapsed < 10.0,
        f"max relative error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_projection_exactness(simulation_runs, monkeypatch):
    worst_orth = 0.0
    worst_pcr = 0.0
    for seed, run in simulation_runs.items():
        orth = max(r.orthogonality_maxabs for r in run["trace_corrected"])
        worst_orth = max(worst_orth, orth)
        pcr = pc_regression(run["corrected"].Y, run["sim"].batch_labels.tolist())
        worst_pcr = max(worst_pcr, pcr)
    # additionally check EVERY iteration on a mid-size corrected run
    rng = np.random.default_rng(101)
    X = rng.standard_normal((150, 20))
    design = build_design({"b": (np.arange(150) % 3).tolist()})
    trace = []
    monkeypatch.setattr("bctsne.tsne._TRACE_EVERY", 1)
    run_tsne(
        X,
        OptimizerConfig(n_iter=400, perplexity=20, seed=0),
        projector=design,
        on_trace=trace.append,
    )
    every_iter = max(r.orthogonality_maxabs for r in trace)
    report(
        2,
        worst_orth < 1e-8 and every_iter < 1e-8 and worst_pcr < 1e-6,
        f"max |Z'Y| {max(worst_orth, every_iter):.2e}, "
        f"max batch PC-regression {worst_pcr:.2e}",
    )


def test_criterion_3_projector_properties():
    rng = np.random.default_rng(102)
    t0 = time.time()
    worst = 0.0
    contraction_ok = True
    for _ in range(50):
        n = int(rng.integers(20, 60))
        b = int(rng.integers(1, 5))
        Z = np.column_stack([np.ones(n), rng.standard_normal((n, b))])
        P = Projector(Z)
        Y1 = rng.standard_normal((n, 2))
        Y2 = rng.standard_normal((n, 2))
        T1 = P.project(Y1)
        worst = max(worst, np.abs(P.project(T1) - T1).max())
        lin = P.project(1.7 * Y1 - 0.6 * Y2) - (
            1.7 * P.project(Y1) - 0.6 * P.project(Y2)
        )
        worst = max(worst, np.abs(lin).max())
        contraction_ok &= np.linalg.norm(T1) <= np.linalg.norm(Y1) + 1e-10
    elapsed = time.time() - t0
    report(
        3,
        worst < 1e-10 and contraction_ok and elapsed < 5.0,
        f"max idempotence/linearity residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_simulation_study(simulation_runs):
    details = []
    ok = True
    for seed, run in simulation_runs.items():
        batch = run["sim"].batch_labels.tolist()
        group = run["sim"].group_labels.tolist()
        _, sil_u = silhouette(run["uncorrected"].Y, batch)
        _, lisi_u = lisi(run["uncorrected"].Y, batch)
        _, sil_c = silhouette(run["corrected"].Y, batch)
        _, lisi_c = lisi(run["corrected"].Y, batch)
        _, sil_g = silhouette(run["corrected"].Y, group)
        ok &= sil_u < 0.6 and lisi_u < 0.5
        ok &= sil_c > 0.9 and lisi_c > 0.6 and sil_g < 0.6
        details.append(
            f"seed {seed}: unc batch SIL {sil_u:.2f} LISI {lisi_u:.2f}; "
            f"corr batch SIL {sil_c:.2f} LISI {lisi_c:.2f} group SIL {sil_g:.2f}"
        )
    report(4, ok, "; ".join(details))


def test_criterion_5_kl_monotonicity(simulation_runs):
    worst_rise, ratios, ok = -np.inf, [], True
    for run in simulation_runs.values():
        for key in ("trace_corrected", "trace_uncorrected"):
            trace = [(r.iteration, r.kl_loss) for r in run[key]]
            run_ok, rise, ratio = kl_settles(trace)
            ok &= run_ok
            worst_rise = max(worst_rise, rise)
            ratios.append(ratio)
    report(5, ok, f"largest KL rise after iteration 250 {worst_rise:.2e}, "
                  f"KL(999)/KL(500) in [{min(ratios):.3f}, {max(ratios):.3f}]")


def test_criterion_6_affinity_normalization(simulation_runs):
    worst = 0.0
    for run in simulation_runs.values():
        table = input_affinities(run["scores_corrected"], 30.0)
        worst = max(worst, abs(table.P.sum() - 1.0))
        for key in ("corrected", "uncorrected"):
            Q, _ = embedding_affinities(run[key].Y)
            worst = max(worst, abs(Q.sum() - 1.0))
    report(6, worst < 1e-9, f"max |sum - 1| = {worst:.2e}")


def test_criterion_7_pipeline_determinism(tmp_path):
    cfg = tmp_path / "pipeline.cfg"
    outputs = []
    for tag in ("run_a", "run_b"):
        outdir = tmp_path / tag
        cfg.write_text(
            "cells=150\ngenes=300\niters=300\nk=15\nperplexity=15\n"
            f"seed=11\noutdir={outdir}\n"
        )
        rc = main(["pipeline", str(cfg)])
        assert rc == 0
        blobs = {}
        for name in (
            "embedding_corrected.csv",
            "embedding_uncorrected.csv",
            "embedding_corrected.svg",
            "embedding_uncorrected.svg",
        ):
            blobs[name] = (outdir / name).read_bytes()
        outputs.append(blobs)
    identical = all(outputs[0][k] == outputs[1][k] for k in outputs[0])
    report(7, identical, "embedding CSVs and SVGs byte-identical across reruns")


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(103)
    worst = {"input": 0.0, "embed": 0.0, "sil": 0.0, "proj": 0.0}
    for _ in range(10):
        X = rng.standard_normal((15, 4))
        table = input_affinities(X, 6.0)
        worst["input"] = max(
            worst["input"],
            np.abs(table.P - literal_input_affinities(X, table.sigma2)).max(),
        )

        Y = rng.standard_normal((15, 2))
        Q, W = embedding_affinities(Y)
        Qo, Wo = literal_embedding_affinities(Y)
        worst["embed"] = max(
            worst["embed"], np.abs(Q - Qo).max(), np.abs(W - Wo).max()
        )

        codes = rng.integers(0, 3, 24)
        while np.bincount(codes, minlength=3).min() < 2:
            codes = rng.integers(0, 3, 24)
        Ys = rng.standard_normal((24, 2))
        raw, _ = silhouette(Ys, codes.tolist())
        worst["sil"] = max(
            worst["sil"], abs(raw - silhouette_oracle(Ys, codes.tolist()))
        )

        Z = np.column_stack([np.ones(30), rng.standard_normal((30, 3))])
        Yp = rng.standard_normal((30, 2))
        worst["proj"] = max(
            worst["proj"],
            np.abs(Projector(Z).project(Yp) - hat_matrix_projection(Z, Yp)).max(),
        )
    ok = (
        worst["input"] < 1e-10
        and worst["embed"] < 1e-12
        and worst["sil"] < 1e-10
        and worst["proj"] < 1e-8
    )
    report(
        8,
        ok,
        "max deviations: affinities {input:.1e}, embedding {embed:.1e}, "
        "silhouette {sil:.1e}, projection {proj:.1e}".format(**worst),
    )


def test_criterion_9_metric_limit_behavior():
    rng = np.random.default_rng(104)
    n = 400
    # confounded: labels coincide with two well-separated clusters
    Y_conf = np.vstack(
        [rng.standard_normal((n // 2, 2)), rng.standard_normal((n // 2, 2)) + 40]
    )
    conf = ["a"] * (n // 2) + ["b"] * (n // 2)
    kbet_conf = kbet_acceptance(Y_conf, conf, seed=0)
    _, lisi_conf = lisi(Y_conf, conf)
    # i.i.d. labels on a single blob
    Y_iid = rng.standard_normal((n, 2))
    iid = rng.integers(0, 2, n).tolist()
    kbet_iid = kbet_acceptance(Y_iid, iid, seed=0)
    # wide perplexity averages out the binomial noise of i.i.d. label draws
    _, lisi_iid = lisi(Y_iid, iid, perplexity=100)
    ok = (
        kbet_conf < 0.05
        and lisi_conf < 0.1
        and kbet_iid > 0.85
        and lisi_iid > 0.9
    )
    report(
        9,
        ok,
        f"confounded kBET {kbet_conf:.3f} LISI {lisi_conf:.3f}; "
        f"iid kBET {kbet_iid:.3f} LISI {lisi_iid:.3f}",
    )


# synthetic KL traces, recorded every 10 iterations and at 999, and whether
# criterion 5's rule passes them
SYNTHETIC_TRACES = {
    "smooth descent": (lambda t: 1.0 + 50.0 / (t + 1), True),
    # the 1e-4 oscillations the earlier counting rule failed on
    "tiny oscillations": (
        lambda t: (1.0 + 50.0 / (t + 1)) * (1.0 + 1e-4 * (t // 10 % 2)), True),
    "small spike": (lambda t: 1.2 if t == 260 else 1.0 + 0.01 * (1000 - t) / 1000, True),
    "large spike": (lambda t: 1.3 if t == 260 else 1.0, False),
    "late spike": (lambda t: 1.3 if t == 900 else 1.0, False),
    "unsettled": (lambda t: 2.0 - t / 1000, False),
    "net rise": (lambda t: 1.0 + t / 10000, False),
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC_TRACES))
def test_criterion_5_rule_on_synthetic_traces(name):
    kl_at, ok = SYNTHETIC_TRACES[name]
    trace = [(t, kl_at(t)) for t in [*range(0, 1000, 10), 999]]
    assert kl_settles(trace)[0] is ok
