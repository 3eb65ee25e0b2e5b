"""Acceptance gates: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to watch the per-criterion lines.
The heavy end-to-end fixture (50 templates / 5,000 normals / 200 anomalies,
pinned seeds) is built once by the session-scoped `pipeline` fixture.
"""

import json
import math
import time

import numpy as np
import pytest

from masklog.calibrate import interpolated_quantile, select_threshold
from masklog.corpus import LABEL_ANOMALOUS, LABEL_NORMAL, synthesize
from masklog.errors import EmptyAfterCleaning
from masklog.manifest import file_digest, load_manifest, manifest_path_for
from masklog.masking import TOKEN_BY_TOKEN, MaskingStrategy, plan_token_by_token
from masklog.model import ModelConfig, backward, forward, init_params, mlm_loss
from masklog.normalize import RawLog, clean_lines, normalize
from masklog.score import score_corpus, score_log
from masklog.train import load_checkpoint, save_checkpoint
from masklog.vocab import PAD_ID, TokenSequence, encode

from conftest import SCORE_SEED, TRAIN_SEED, run_cli


def check(num, description, condition):
    print(f"\n[ACCEPTANCE {num:02d}] {'PASS' if condition else 'FAIL'}: {description}")
    assert condition, f"criterion {num} failed: {description}"


# ---------------------------------------------------------------------------
# shared heavy artifacts


@pytest.fixture(scope="module")
def ablation_outputs(pipeline, tmp_path_factory):
    root = tmp_path_factory.mktemp("ablation")
    grid = root / "grid.tsv"
    assert run_cli(
        "ablate-masking", "--checkpoint", pipeline["ckpt"], "--vocab", pipeline["vocab"],
        "--val", pipeline["val"], "--test", pipeline["test"], "--out", grid,
        "--strategies", "token,random0.15,random0.25,random0.5",
        "--percentiles", "70,75,80,85,90,95,100", "--seed", SCORE_SEED,
    ) == 0
    finetune = root / "finetune.json"
    assert run_cli(
        "ablate-finetune", "--checkpoint", pipeline["ckpt"], "--val", pipeline["val"],
        "--test", pipeline["test"], "--vocab", pipeline["vocab"], "--out", finetune,
        "--seed", TRAIN_SEED,
    ) == 0
    heat = root / "heatmap.tsv"
    assert run_cli(
        "heatmap", "--in", pipeline["test"], "--labeled", "--vocab", pipeline["vocab"],
        "--checkpoint", pipeline["ckpt"], "--out", heat,
    ) == 0
    return {"grid": grid, "finetune": finetune, "heatmap": heat}


def grid_rows(path):
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        strategy, percentile, threshold, tp, fp, fn, tn, precision, recall, f1 = line.split("\t")
        rows.append({"strategy": strategy, "percentile": float(percentile), "f1": float(f1)})
    return rows


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_gradient_oracle():
    t0 = time.time()
    cfg = ModelConfig(vocab_size=20, d_model=16, n_heads=1, n_layers=1, d_ff=24, max_len=8)
    params = init_params(cfg, seed=3)
    rng = np.random.default_rng(0)
    batch = []
    for length in (5, 8, 3, 7):
        ids = np.full(8, PAD_ID, dtype=np.int64)
        ids[:length] = rng.integers(4, 20, size=length)
        batch.append(TokenSequence(ids=ids, length=length))
    targets = np.stack([s.ids for s in batch])
    positions = [[0, 2], [1, 4, 7], [2], [0, 3, 6]]
    grads = backward(params, batch, targets, positions)

    # Central differences at step 1e-3 cannot resolve coordinates whose
    # gradient sits below the h^2 truncation floor; those are held to an
    # absolute bound instead (a wrong gradient there would still overshoot it
    # by orders of magnitude).
    step = 1e-3
    abs_guard = 1e-6
    checked = 0
    worst = 0.0
    for name in params.tensors:
        flat = params.tensors[name].reshape(-1)
        flat_grad = grads[name].reshape(-1)
        for idx in rng.integers(0, flat.size, size=max(5, min(8, flat.size))):
            idx = int(idx)
            orig = flat[idx]
            hi, lo = np.float32(orig + step), np.float32(orig - step)
            flat[idx] = hi
            loss_hi = mlm_loss(forward(params, batch), targets, positions)
            flat[idx] = lo
            loss_lo = mlm_loss(forward(params, batch), targets, positions)
            flat[idx] = orig
            fd = (loss_hi - loss_lo) / (float(hi) - float(lo))
            a = float(flat_grad[idx])
            checked += 1
            if abs(a - fd) >= abs_guard:
                worst = max(worst, abs(a - fd) / max(abs(a), abs(fd)))
    elapsed = time.time() - t0
    check(
        1,
        f"analytic vs central differences: {checked} coords over every tensor type, "
        f"max rel err {worst:.2e} < 1e-4, runtime {elapsed:.1f}s < 60s",
        checked >= 100 and worst < 1e-4 and elapsed < 60.0,
    )


def test_criterion_02_softmax_and_loss_identities():
    cfg = ModelConfig(vocab_size=33, d_model=16, n_heads=2, n_layers=1, d_ff=24, max_len=8)
    params = init_params(cfg, seed=1)
    rng = np.random.default_rng(5)
    batch = []
    for length in (4, 8, 6):
        ids = np.full(8, PAD_ID, dtype=np.int64)
        ids[:length] = rng.integers(4, 33, size=length)
        batch.append(TokenSequence(ids=ids, length=length))
    out = forward(params, batch)
    rows_ok = bool(np.all(np.abs(out.probabilities.sum(-1) - 1.0) <= 1e-6))

    params.tensors["out.w"][:] = 0.0
    params.tensors["out.b"][:] = 0.0
    targets = np.stack([s.ids for s in batch])
    loss = mlm_loss(forward(params, batch), targets, [[0, 1], [2], [3, 5]])
    uniform_ok = abs(loss - math.log(cfg.vocab_size)) <= 1e-6
    check(
        2,
        f"softmax rows sum to 1 within 1e-6; constant-logit loss {loss:.8f} "
        f"equals ln({cfg.vocab_size}) within 1e-6",
        rows_ok and uniform_ok,
    )


def test_criterion_03_quantile_oracle():
    def oracle(scores, percentile):
        s = sorted(scores)
        rank = (len(s) - 1) * percentile / 100.0
        k = math.floor(rank)
        t = rank - k
        if k + 1 >= len(s) or t == 0.0:
            return s[k]
        return s[k] + (s[k + 1] - s[k]) * t

    rng = np.random.default_rng(20240601)
    mismatches = 0
    for i in range(1000):
        n = int(rng.integers(1, 400))
        kind = i % 4
        if kind == 0:
            scores = rng.normal(0, 100, n).tolist()
        elif kind == 1:
            scores = rng.integers(0, 4, n).astype(float).tolist()
        elif kind == 2:
            scores = [float(rng.normal())] * n
        else:
            scores = np.round(rng.exponential(5, n), 2).tolist()
        p = float(rng.uniform(0.5, 100.0))
        if select_threshold(scores, p).value != oracle(scores, p):
            mismatches += 1
    check(3, f"select_threshold equals sort-and-interpolate oracle on 1000 sets "
             f"({mismatches} mismatches)", mismatches == 0)


def test_criterion_04_calibration_flagged_fraction(pipeline, pipeline_checkpoint, pipeline_vocab):
    fresh = synthesize(50, 2400, 2, seed=909)
    normal_lines = [l for l, lab in zip(fresh.lines, fresh.labels) if lab == LABEL_NORMAL]
    cleaned, _ = clean_lines(normal_lines, source_id="fresh")
    seqs = [encode(c, pipeline_vocab, 64) for c in cleaned]
    scores = [r.score for r in score_corpus(pipeline_checkpoint, seqs, MaskingStrategy(), seed=321)]
    order = np.random.default_rng(5).permutation(len(scores))
    calibration = [scores[i] for i in order[:1200]]
    held_out = [scores[i] for i in order[1200:2400]]
    threshold = interpolated_quantile(calibration, 90)
    frac = sum(1 for s in held_out if s > threshold) / len(held_out)
    check(
        4,
        f"held-out flagged fraction {frac:.4f} within 0.10 +/- 0.03 "
        f"(calibration n={len(calibration)}, fresh n={len(held_out)})",
        len(calibration) >= 1000 and len(held_out) >= 1000 and 0.07 <= frac <= 0.13,
    )


def test_criterion_05_score_oracle(pipeline_checkpoint, pipeline_vocab, pipeline):
    ckpt = pipeline_checkpoint
    with open(pipeline["val"], "r", encoding="utf-8") as f:
        texts = [line.strip() for line in f][:12]
    seqs = [encode(t, pipeline_vocab, 64) for t in texts]
    token = MaskingStrategy(kind=TOKEN_BY_TOKEN, fraction=1.0)

    worst_oracle = 0.0
    for seq in seqs[:6]:
        report = score_log(ckpt, seq, token)
        log_sum = 0.0
        for plan in plan_token_by_token(seq):
            out = forward(ckpt.params, [plan.masked_sequence])
            p = float(out.probabilities[0, plan.masked_indices[0], int(plan.original_ids[0])])
            log_sum += math.log(max(p, 1e-12))
        brute = -log_sum / seq.length
        worst_oracle = max(worst_oracle, abs(report.score - brute))

    worst_self = 0.0
    reports = [score_log(ckpt, s, token) for s in seqs]
    reports += [score_log(ckpt, s, MaskingStrategy(repeats=3), seed=i) for i, s in enumerate(seqs)]
    for r in reports:
        recomputed = -sum(math.log(max(p, 1e-12)) for _, p in r.token_probs) / len(r.token_probs)
        worst_self = max(worst_self, abs(r.score - recomputed))
    check(
        5,
        f"token-by-token vs brute force max diff {worst_oracle:.2e} < 1e-6; "
        f"self-consistency max diff {worst_self:.2e} < 1e-9",
        worst_oracle < 1e-6 and worst_self < 1e-9,
    )


def test_criterion_06_end_to_end_gate(pipeline):
    doc = pipeline["metrics_doc"]
    check(
        6,
        f"end-to-end synthetic gate: F1 {doc['f1']:.3f} >= 0.80, recall {doc['recall']:.3f} "
        f">= 0.85, pipeline wall time {pipeline['wall_time']:.0f}s < 600s",
        doc["f1"] >= 0.80 and doc["recall"] >= 0.85 and pipeline["wall_time"] < 600.0,
    )


def test_criterion_07_finetune_ablation(ablation_outputs, pipeline_vocab):
    with open(ablation_outputs["finetune"], "r", encoding="utf-8") as f:
        doc = json.load(f)
    gap = doc["trained"]["f1"] - doc["untrained"]["f1"]
    ln_v = math.log(len(pipeline_vocab))
    rel = abs(doc["untrained_mean_normal_score"] - ln_v) / ln_v
    check(
        7,
        f"trained F1 {doc['trained']['f1']:.3f} - untrained F1 {doc['untrained']['f1']:.3f} "
        f"= {gap:.3f} >= 0.3; untrained mean normal score within {rel:.1%} of ln|V| (<= 15%)",
        gap >= 0.3 and rel <= 0.15,
    )


def test_criterion_08_masking_ablation_shape(ablation_outputs):
    rows = grid_rows(ablation_outputs["grid"])
    strategies = {"token", "random0.15", "random0.25", "random0.5"}
    percentiles = {70.0, 75.0, 80.0, 85.0, 90.0, 95.0, 100.0}
    combos = {(r["strategy"], r["percentile"]) for r in rows}
    complete = combos == {(s, p) for s in strategies for p in percentiles}
    best = max(r["f1"] for r in rows)
    best15 = max(r["f1"] for r in rows if r["strategy"] == "random0.15")
    check(
        8,
        f"grid complete ({len(rows)} cells); random-0.15 best F1 {best15:.3f} within 0.05 "
        f"of grid best {best:.3f}",
        complete and len(rows) == 28 and (best - best15) <= 0.05,
    )


def test_fixture_sweep_shape(ablation_outputs):
    """Not a numbered gate: the default strategy's F1 at percentile 90 should
    not fall below its F1 at 70 on the fixture (low percentiles over-flag)."""
    rows = {r["percentile"]: r["f1"] for r in grid_rows(ablation_outputs["grid"])
            if r["strategy"] == "random0.15"}
    assert rows[90.0] >= rows[70.0]


def test_criterion_09_heatmap_contrast(ablation_outputs):
    heat = ablation_outputs["heatmap"]
    with open(str(heat) + ".rows.json", "r", encoding="utf-8") as f:
        sidecar = json.load(f)
    labels = [row["label"] for row in sidecar["rows"]]
    sums = {LABEL_NORMAL: [0.0, 0], LABEL_ANOMALOUS: [0.0, 0]}
    for line, label in zip(heat.read_text(encoding="utf-8").splitlines()[1:], labels):
        for cell in line.split("\t")[2:]:
            if cell != "NA":
                sums[label][0] += float(cell)
                sums[label][1] += 1
    mean_normal = sums[LABEL_NORMAL][0] / sums[LABEL_NORMAL][1]
    mean_anom = sums[LABEL_ANOMALOUS][0] / sums[LABEL_ANOMALOUS][1]
    check(
        9,
        f"token-by-token mean probability: normal {mean_normal:.3f} > anomalous {mean_anom:.3f}",
        mean_normal > mean_anom,
    )


def test_criterion_10_reproducibility(pipeline, ablation_outputs, tmp_path):
    primaries = [
        pipeline["raw"], pipeline["raw_labels"], pipeline["clean"], pipeline["train"],
        pipeline["vocab"], pipeline["ckpt"], pipeline["val_scores"], pipeline["threshold"],
        pipeline["test_scores"], pipeline["verdicts"], pipeline["metrics"],
        ablation_outputs["grid"], ablation_outputs["finetune"], ablation_outputs["heatmap"],
    ]
    manifests = [
        pipeline["raw"], pipeline["clean"], pipeline["train"], pipeline["vocab"],
        pipeline["ckpt"], pipeline["val_scores"], pipeline["threshold"],
        pipeline["test_scores"], pipeline["verdicts"], pipeline["metrics"],
        ablation_outputs["grid"], ablation_outputs["finetune"], ablation_outputs["heatmap"],
    ]
    commands = {load_manifest(manifest_path_for(m))["command"] for m in manifests}
    before = {str(p): file_digest(p) for p in primaries}
    for m in manifests:
        assert run_cli("rerun", "--manifest", manifest_path_for(m)) == 0
    after = {str(p): file_digest(p) for p in primaries}
    byte_identical = before == after

    threaded = tmp_path / "scores_threads4.tsv"
    assert run_cli("score", "--in", pipeline["val"], "--vocab", pipeline["vocab"],
                   "--checkpoint", pipeline["ckpt"], "--out", threaded,
                   "--seed", SCORE_SEED, "--threads", 4) == 0
    threads_ok = file_digest(threaded) == file_digest(pipeline["val_scores"])

    ckpt = load_checkpoint(pipeline["ckpt"])
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(ckpt, resaved)
    roundtrip_ok = file_digest(resaved) == file_digest(pipeline["ckpt"])
    check(
        10,
        f"{len(manifests)} command manifests re-ran byte-identically "
        f"(commands: {', '.join(sorted(commands))}); threads 1 vs 4 identical; "
        f"checkpoint round-trip bit-exact",
        byte_identical and threads_ok and roundtrip_ok and len(commands) >= 10,
    )


def test_criterion_11_leakage_guard(pipeline, tmp_path, capsys):
    from masklog.cli import main

    leaked_test = tmp_path / "leaked_test.tsv"
    with open(pipeline["train"], "r", encoding="utf-8") as f:
        train_first = f.readline().strip()
    leaked_test.write_text(f"{train_first}\tnormal\n", encoding="utf-8")
    verdicts = tmp_path / "verdicts.tsv"
    verdicts.write_text(
        "source_id\tline_no\tscore\tthreshold\tlabel\nleaked_test.tsv\t0\t0.1\t1.0\tnormal\n",
        encoding="utf-8",
    )
    rc = main(["eval", "--verdicts", str(verdicts), "--test", str(leaked_test),
               "--train", str(pipeline["train"]), "--val", str(pipeline["val"]),
               "--out", str(tmp_path / "m.json")])
    err_line = capsys.readouterr().err.strip()
    err = json.loads(err_line) if err_line else {}
    check(
        11,
        f"evaluation with a train/test collision aborts (rc={rc}) and reports the "
        f"colliding text ({err.get('error')})",
        rc != 0 and err.get("error") == "LeakageDetected" and "collide" in err.get("message", ""),
    )


def test_criterion_12_normalizer_golden_examples():
    ok = True
    ok &= normalize(RawLog("2005-06-09-14.53.14.219998 R27 kernel info")).text == "r float kernel info"
    from masklog.normalize import strip_timestamps

    ok &= strip_timestamps("2005-06-09-14.53.14.219998 R27 kernel info") == "R27 kernel info"
    ok &= normalize(RawLog("value 3.2143 observed")).text == "value float observed"
    ok &= normalize(RawLog("read from /var/log/sys.d now")).text == "read from filepath now"
    ok &= normalize(RawLog("connect 10.0.0.1 then 0x00ffee")).text == "connect address then address"
    ok &= normalize(RawLog("2005-06-09-14.53.14.219998 RASKernelInfo 3.2143")).text == "ras kernel info float"
    try:
        normalize(RawLog("2005-06-09-14.53.14.219998"))
        ok = False
    except EmptyAfterCleaning:
        pass
    check(12, "normalizer golden examples (timestamp strip, float/filepath/address, "
              "compound split, empty-after-cleaning) byte-exact", bool(ok))
