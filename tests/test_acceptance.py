"""Acceptance suite: oracle-equivalence, invariant and ordering checks.

Each test prints one line on success so a verbose run reads as a checklist.
Desk-scale corpora stand in for the original large-model setups; the
assertions target orderings and invariants, not absolute magnitudes.
"""

import json
import time

import numpy as np
import pytest
from scipy.stats import pearsonr

from gradselect.corpus import (
    Document,
    DocumentSet,
    TokenBatch,
    build_vocab,
    encode_documents,
    save_jsonl,
)
from gradselect import gradstore
from gradselect.gradstore import (
    GradientStore,
    Projection,
    _last_layer_grad_batch,
    build_store,
    direction,
    last_layer_grad,
    project,
    scan_scores,
    write_store,
)
from gradselect.harness import (
    ExperimentConfig,
    Workspace,
    run_experiment,
    run_pipeline,
)
from gradselect.metrics import EmbeddingSet, ot_distance
from gradselect.model import (
    ModelConfig,
    OptimizerConfig,
    batch_mean_loss,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from gradselect.selector import autolabel as autolabel_pool
from gradselect.selector import select_baseline, select_greedy
from gradselect.toycorpus import (
    make_classification_corpus,
    make_lm_corpus,
    make_lm_pool,
    make_pool_corpus,
)


def report(num, name, elapsed, budget):
    print(f"[ACCEPTANCE] criterion {num} ({name}): PASS ({elapsed:.1f}s / budget {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s runtime budget"


def mean_by(rows, key_field, key_value, metric, method=None):
    vals = [
        r[metric]
        for r in rows
        if r.get(key_field) == key_value and (method is None or r["method"] == method)
    ]
    assert vals, f"no rows for {key_field}={key_value} method={method}"
    return float(np.mean(vals)), float(np.std(vals))


def count_inversions(values, decreasing=False, slack=None):
    """Adjacent inversions against a monotone trend; slack per pair optional."""
    inversions = 0
    for i in range(len(values) - 1):
        a, b = values[i], values[i + 1]
        gap = (a - b) if not decreasing else (b - a)
        if gap > 0:  # wrong direction for the claimed trend
            tolerance = slack[i] if slack is not None else 0.0
            if gap > tolerance:
                return np.inf
            inversions += 1
    return inversions


# ---------------------------------------------------------------------------
# 1. Gradient oracle
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_oracle():
    start = time.time()
    rng = np.random.default_rng(11)
    for pair in range(50):
        task = "classification" if pair % 2 == 0 else "next_token"
        cfg = ModelConfig(
            vocab_size=int(rng.integers(8, 16)),
            embed_dim=int(rng.integers(3, 7)),
            num_classes=int(rng.integers(2, 6)),
            hidden_layer=bool(pair % 4 == 1),
            task=task,
        )
        params = init_params(cfg, int(rng.integers(0, 1000))).astype(np.float64)
        seq_len = int(rng.integers(3, 9))
        ids = rng.integers(0, cfg.vocab_size, (1, seq_len)).astype(np.int64)
        valid = int(rng.integers(2, seq_len + 1))
        lens = np.array([valid])
        if task == "classification":
            y = int(rng.integers(0, cfg.num_classes))
            labels = np.array([y])
        else:
            y, labels = None, None
        from gradselect.corpus import TokenSeq

        g = last_layer_grad(params, TokenSeq(ids[0].astype(np.int32), valid), y)
        head = cfg.head_dim
        flat_w = params.head_w.ravel()
        for idx in range(g.size):
            target, off = (flat_w, idx) if idx < head * cfg.embed_dim else (
                params.head_b,
                idx - head * cfg.embed_dim,
            )
            old = target[off]
            target[off] = old + 1e-3
            up = batch_mean_loss(params, ids, lens, labels)
            target[off] = old - 1e-3
            down = batch_mean_loss(params, ids, lens, labels)
            target[off] = old
            fd = (up - down) / 2e-3
            rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8)
            assert rel < 1e-4, f"pair {pair} ({task}) coordinate {idx}: rel err {rel}"
    report(1, "gradient oracle", time.time() - start, 10)


# ---------------------------------------------------------------------------
# 2. Greedy/dot equals Top-K
# ---------------------------------------------------------------------------


def test_criterion_02_greedy_dot_equals_topk(tmp_path, monkeypatch):
    start = time.time()
    rng = np.random.default_rng(22)
    for t in range(200):
        n = int(rng.integers(10, 501))
        k = int(rng.integers(2, 65))
        p = int(rng.choice([1, 3]))
        m = int(rng.integers(1, n + 1))
        blocks = [rng.standard_normal((n, k)).astype(np.float32) for _ in range(p)]
        dirs = [rng.standard_normal(k) for _ in range(p)]
        # Three read slices per store, so the scans cross slice boundaries.
        monkeypatch.setattr(gradstore, "_READ_BLOCK_ROWS", max(1, n // 3))
        store = write_store(
            tmp_path / f"i{t}.selg", blocks, np.zeros(n), None, Projection(k, k, seed=0)
        )
        greedy = select_greedy(store, dirs, m, rule="dot")
        topk = select_baseline(store, dirs, m, "topk")
        assert set(greedy.indices) == set(topk.indices), f"instance {t}"
    report(2, "greedy/dot = top-k on 200 instances", time.time() - start, 120)


# ---------------------------------------------------------------------------
# 3. JL fidelity at k = 4096, n ~ 2e4
# ---------------------------------------------------------------------------


def test_criterion_03_jl_fidelity(tmp_path):
    start = time.time()
    num_classes, embed_dim = 4, 5000
    n_dim = num_classes * embed_dim + num_classes
    assert abs(n_dim - 2e4) < 2e3
    proj = Projection(n_dim, 4096, seed=33)

    # inner-product preservation on random pairs
    rng = np.random.default_rng(33)
    a = rng.standard_normal((1000, n_dim))
    b = rng.standard_normal((1000, n_dim))
    pa, pb = project(a, proj), project(b, proj)
    exact_ip = (a * b).sum(axis=1)
    approx_ip = (pa * pb).sum(axis=1)
    bound = 0.1 * np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    hit_rate = float((np.abs(approx_ip - exact_ip) <= bound).mean())
    assert hit_rate >= 0.95, f"JL bound hit rate {hit_rate}"

    # Pearson correlation of projected vs exact selection scores on a
    # trained weight diff at the same gradient dimension
    corpus = make_classification_corpus(
        1500, num_classes, seed=42, key_lo=6, key_hi=9, len_lo=8, len_hi=10
    )
    vocab = build_vocab(corpus, 2048)
    cfg = ModelConfig(vocab_size=vocab.size, embed_dim=embed_dim, num_classes=num_classes)
    theta0 = init_params(cfg, 0)
    opt = OptimizerConfig(kind="sgd", learning_rate=0.5, epochs=2, batch_size=32, seed=0)
    theta_f, _ = train(theta0, corpus, opt, vocab, 16)
    dense = make_classification_corpus(
        250, num_classes, seed=43, key_lo=6, key_hi=9, len_lo=8, len_hi=10
    )
    junk = make_pool_corpus(250, num_classes, seed=44, useful_fraction=0.0)
    pool = DocumentSet(
        Document(i, t)
        for i, t in enumerate([d.text for d in dense] + [d.text for d in junk])
    )
    batch = encode_documents(pool, vocab, 16)
    labels = autolabel_pool(batch, theta_f)
    grad_proj = Projection(cfg.last_layer_dim, 4096, seed=34)
    store = build_store([theta0], batch, labels, theta_f, grad_proj, tmp_path / "jl.selg")
    d = direction(theta0, theta_f, grad_proj)
    approx = scan_scores(store, [d])
    diff = np.concatenate(
        [
            (theta_f.head_w - theta0.head_w).astype(np.float64).ravel(),
            (theta_f.head_b - theta0.head_b).astype(np.float64),
        ]
    )
    grads = _last_layer_grad_batch(
        theta0, batch.ids.astype(np.int64), batch.valid_len.astype(np.int64), labels
    )
    exact = grads @ diff
    r, _ = pearsonr(approx, exact)
    assert r > 0.95, f"Pearson r {r}"
    report(3, "JL fidelity", time.time() - start, 60)


# ---------------------------------------------------------------------------
# 4/5. End-to-end orderings
# ---------------------------------------------------------------------------


def _classification_config(tmp_path, seeds=(0, 1, 2), k=512, methods=None, **overrides):
    corpus_path = tmp_path / "task.jsonl"
    pool_path = tmp_path / "pool.jsonl"
    if not corpus_path.exists():
        save_jsonl(
            make_classification_corpus(3400, 4, seed=42, key_lo=3, key_hi=6, len_lo=8, len_hi=12),
            corpus_path,
        )
        save_jsonl(make_pool_corpus(10_000, 4, seed=43, useful_fraction=0.06), pool_path)
    data = {
        "experiment": "pipeline",
        "corpus": str(corpus_path),
        "seed_corpus": str(pool_path),
        "out_dir": str(tmp_path / "run"),
        "seeds": list(seeds),
        "model": {"embed_dim": 32, "num_classes": 4, "task": "classification"},
        "victim_opt": {"kind": "sgd", "learning_rate": 0.5, "epochs": 3, "batch_size": 32, "seed": 0},
        "retrain_opt": {"kind": "adam", "learning_rate": 0.01, "epochs": 100, "batch_size": 32, "seed": 0},
        "selection_size": 500,
        "projection_dim": k,
        "scoring_rule": "cosine_sum",
        "batch_window": 1000,
        "seq_len": 64,
        "vocab_max_size": 2048,
        "fractions": [0.65, 0.05, 0.30],
        "validation_fraction": 0.1,
        "methods": methods or ["select", "select_batch", "random", "topk"],
        "ot_max_points": 256,
    }
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


def test_criterion_04_classification_ordering(tmp_path):
    start = time.time()
    config = _classification_config(tmp_path)
    bundle = run_pipeline(config)
    assert not bundle.provenance["errors"]
    means = {
        m: mean_by(bundle.rows, "method", m, "accuracy")[0]
        for m in ("select", "select_batch", "random", "topk")
    }
    assert means["select"] >= means["select_batch"] >= means["random"], means
    assert means["select"] >= means["random"] + 0.05, means
    assert means["topk"] < means["random"], means
    print(f"  accuracies: {json.dumps({k: round(v, 3) for k, v in means.items()})}")
    report(4, "classification ordering", time.time() - start, 300)


def test_criterion_05_next_token_ordering(tmp_path):
    start = time.time()
    corpus_path = tmp_path / "lm.jsonl"
    pool_path = tmp_path / "lm_pool.jsonl"
    save_jsonl(make_lm_corpus(3400, seed=50), corpus_path)
    save_jsonl(make_lm_pool(10_000, seed=51, useful_fraction=0.25), pool_path)
    config = ExperimentConfig.from_dict(
        {
            "experiment": "pipeline",
            "corpus": str(corpus_path),
            "seed_corpus": str(pool_path),
            "out_dir": str(tmp_path / "run_lm"),
            "seeds": [0, 1, 2],
            "model": {"embed_dim": 16, "task": "next_token"},
            "victim_opt": {"kind": "sgd", "learning_rate": 0.5, "epochs": 30, "batch_size": 32, "seed": 0},
            "retrain_opt": {"kind": "adam", "learning_rate": 0.01, "epochs": 40, "batch_size": 32, "seed": 0},
            "selection_size": 500,
            "projection_dim": 512,
            "seq_len": 32,
            "vocab_max_size": 2048,
            "fractions": [0.65, 0.05, 0.30],
            "validation_fraction": 0.1,
            "methods": ["select", "random", "topk"],
            "ot_max_points": 256,
        }
    )
    bundle = run_pipeline(config)
    assert not bundle.provenance["errors"]
    means = {
        m: mean_by(bundle.rows, "method", m, "perplexity")[0]
        for m in ("select", "random", "topk")
    }
    assert means["select"] < means["random"] < means["topk"], means
    print(f"  perplexities: {json.dumps({k: round(v, 2) for k, v in means.items()})}")
    report(5, "next-token ordering", time.time() - start, 300)


# ---------------------------------------------------------------------------
# 6. Leakage monotonicity
# ---------------------------------------------------------------------------


def test_criterion_06_leakage_monotonicity(tmp_path):
    start = time.time()
    corpus_path = tmp_path / "task.jsonl"
    distractor_path = tmp_path / "distractors.jsonl"
    save_jsonl(
        make_classification_corpus(4000, 4, seed=60, key_lo=3, key_hi=6, len_lo=8, len_hi=12),
        corpus_path,
    )
    save_jsonl(make_pool_corpus(4000, 4, seed=61, useful_fraction=0.02), distractor_path)
    config = ExperimentConfig.from_dict(
        {
            "experiment": "leakage",
            "corpus": str(corpus_path),
            "seed_corpus": str(distractor_path),
            "out_dir": str(tmp_path / "run_leak"),
            "seeds": [0, 1, 2],
            "model": {"embed_dim": 32, "num_classes": 4, "task": "classification"},
            "victim_opt": {"kind": "sgd", "learning_rate": 0.5, "epochs": 3, "batch_size": 32, "seed": 0},
            "retrain_opt": {"kind": "adam", "learning_rate": 0.01, "epochs": 60, "batch_size": 32, "seed": 0},
            "selection_size": 500,
            "projection_dim": 512,
            "seq_len": 64,
            "vocab_max_size": 2048,
            "fractions": [0.6, 0.15, 0.25],
            "validation_fraction": 0.1,
            "ot_max_points": 256,
            "params": {"leak_fractions": [0.1, 0.5, 0.9], "leak_pool_size": 2000},
        }
    )
    bundle = run_experiment(config)
    assert not bundle.provenance["errors"]
    fractions = [0.1, 0.5, 0.9]
    acc = [mean_by(bundle.rows, "leak_fraction", f, "accuracy") for f in fractions]
    ot = [mean_by(bundle.rows, "leak_fraction", f, "ot_distance") for f in fractions]
    acc_means = [a[0] for a in acc]
    acc_slack = [max(acc[i][1], acc[i + 1][1]) for i in range(len(acc) - 1)]
    ot_means = [o[0] for o in ot]
    ot_slack = [max(ot[i][1], ot[i + 1][1]) for i in range(len(ot) - 1)]
    assert count_inversions(acc_means, decreasing=False, slack=acc_slack) <= 1, acc_means
    assert count_inversions(ot_means, decreasing=True, slack=ot_slack) <= 1, ot_means
    print(f"  accuracy by leak fraction: {[round(a, 3) for a in acc_means]}")
    print(f"  OT distance by leak fraction: {[round(o, 3) for o in ot_means]}")
    report(6, "leakage monotonicity", time.time() - start, 300)


# ---------------------------------------------------------------------------
# 7. Metric ablation
# ---------------------------------------------------------------------------


def test_criterion_07_metric_ablation(tmp_path):
    start = time.time()
    config = _classification_config(
        tmp_path,
        seeds=(0,),
        experiment="metric_ablation",
        selection_size=200,
        out_dir=str(tmp_path / "run_ablation"),
        params={"replace_steps": [round(0.1 * i, 1) for i in range(11)], "trials": 5},
    )
    bundle = run_experiment(config)
    steps = [round(0.1 * i, 1) for i in range(11)]
    final_rows = [r for r in bundle.rows if r["replace_fraction"] == 1.0]
    assert len(final_rows) == 5
    assert all(r["vocab_containment"] == 1.0 for r in final_rows)
    ot_means = [mean_by(bundle.rows, "replace_fraction", s, "ot_distance")[0] for s in steps]
    assert count_inversions(ot_means, decreasing=True) <= 1, ot_means
    containments = [
        mean_by(bundle.rows, "replace_fraction", s, "vocab_containment")[0] for s in steps
    ]
    assert count_inversions(containments, decreasing=False) <= 1, containments
    print(f"  OT by replacement step: {[round(o, 3) for o in ot_means]}")
    report(7, "metric ablation", time.time() - start, 120)


# ---------------------------------------------------------------------------
# 8. Sinkhorn vs exact OT
# ---------------------------------------------------------------------------


def test_criterion_08_sinkhorn_vs_exact():
    start = time.time()
    rng = np.random.default_rng(88)
    for t in range(20):
        a = rng.standard_normal((8, 6))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = rng.standard_normal((8, 6))
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        exact = ot_distance(EmbeddingSet(a), EmbeddingSet(b), mode="exact").distance
        sk = ot_distance(EmbeddingSet(a), EmbeddingSet(b), mode="sinkhorn", epsilon=0.01).distance
        rel = abs(sk - exact) / exact
        assert rel < 0.05, f"instance {t}: rel gap {rel}"
    report(8, "sinkhorn vs exact OT", time.time() - start, 10)


# ---------------------------------------------------------------------------
# 9. Determinism and file formats
# ---------------------------------------------------------------------------


def test_criterion_09_determinism_and_formats(tmp_path):
    start = time.time()
    corpus_path = tmp_path / "c.jsonl"
    save_jsonl(make_classification_corpus(500, 4, seed=90), corpus_path)

    def run_once(name):
        config = ExperimentConfig.from_dict(
            {
                "experiment": "pipeline",
                "corpus": str(corpus_path),
                "out_dir": str(tmp_path / name),
                "seeds": [0],
                "model": {"embed_dim": 16, "num_classes": 4},
                "victim_opt": {"kind": "sgd", "learning_rate": 0.5, "epochs": 2, "batch_size": 32, "seed": 0},
                "retrain_opt": {"kind": "adam", "learning_rate": 0.01, "epochs": 3, "batch_size": 32, "seed": 0},
                "selection_size": 25,
                "projection_dim": 64,
                "vocab_max_size": 512,
                "seq_len": 32,
                "methods": ["select", "random"],
            }
        )
        run_pipeline(config)
        cache = Workspace(config.out_dir).cache_dir
        return {
            "ckpts": sorted(p.read_bytes() for p in cache.glob("*.ckpt")),
            "stores": sorted(p.read_bytes() for p in cache.glob("*.selg")),
            "selections": sorted(
                json.loads(p.read_text())["indices"].__repr__()
                for p in cache.glob("sel-*.json")
            ),
        }

    a, b = run_once("d1"), run_once("d2")
    assert a["ckpts"] == b["ckpts"], "checkpoints differ across identical runs"
    assert a["stores"] == b["stores"], "stores differ across identical runs"
    assert a["selections"] == b["selections"], "selections differ across identical runs"

    # round-trips
    cfg = ModelConfig(vocab_size=19, embed_dim=6, num_classes=3, hidden_layer=True)
    params = init_params(cfg, 9)
    ckpt_path = tmp_path / "rt.ckpt"
    save_checkpoint(params, ckpt_path)
    reloaded = load_checkpoint(ckpt_path)
    for (_, x), (_, y) in zip(params.blocks().items(), reloaded.blocks().items()):
        assert np.array_equal(x, y)

    store_path = next(Workspace(tmp_path / "d1").cache_dir.glob("*.selg"))
    original = store_path.read_bytes()
    store = GradientStore(store_path)
    assert store.block(0).shape == (store.num_examples, store.k)

    # corrupted magic
    bad_ckpt = tmp_path / "bad.ckpt"
    data = bytearray(ckpt_path.read_bytes())
    data[:4] = b"JUNK"
    bad_ckpt.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="SELC"):
        load_checkpoint(bad_ckpt)
    bad_store = tmp_path / "bad.selg"
    data = bytearray(original)
    data[:4] = b"JUNK"
    bad_store.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="SELG"):
        GradientStore(bad_store)

    # truncation
    short_ckpt = tmp_path / "short.ckpt"
    short_ckpt.write_bytes(ckpt_path.read_bytes()[:-20])
    with pytest.raises(ValueError, match="unexpected end of checkpoint"):
        load_checkpoint(short_ckpt)
    short_store = tmp_path / "short.selg"
    short_store.write_bytes(original[:-20])
    with pytest.raises(ValueError, match="unexpected end of store"):
        GradientStore(short_store)

    report(9, "determinism and formats", time.time() - start, 120)


# ---------------------------------------------------------------------------
# 10. Projection-dimension ablation
# ---------------------------------------------------------------------------


def test_criterion_10_projection_dim(tmp_path):
    start = time.time()
    config = _classification_config(
        tmp_path,
        seeds=(0, 1),
        experiment="projection_dim",
        methods=["select", "random"],
        out_dir=str(tmp_path / "run_kdim"),
        params={"k_list": [512, 4096]},
    )
    bundle = run_experiment(config)
    assert not bundle.provenance["errors"]
    for k in (512, 4096):
        select_rows = [
            r["accuracy"] for r in bundle.rows if r["k"] == k and r["method"] == "select"
        ]
        random_rows = [
            r["accuracy"] for r in bundle.rows if r["k"] == k and r["method"] == "random"
        ]
        assert np.mean(select_rows) > np.mean(random_rows), (
            k,
            np.mean(select_rows),
            np.mean(random_rows),
        )
        print(
            f"  k={k}: select={np.mean(select_rows):.3f} random={np.mean(random_rows):.3f}"
        )
    report(10, "projection-dimension ablation", time.time() - start, 300)
