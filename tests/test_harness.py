import json
import math
import multiprocessing
import os
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gradselect import gradstore, harness, metrics, model
from gradselect.cli import main as cli_main
from gradselect.corpus import Document, DocumentSet, save_jsonl
from gradselect.gradstore import GradientStore
from gradselect.model import OptimizerConfig
from gradselect.harness import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    ReportBundle,
    Workspace,
    aggregate_rows,
    carve_validation,
    emit_reports,
    experiment_cells,
    run_experiment,
    run_pipeline,
)
from gradselect.toycorpus import make_classification_corpus, make_pool_corpus

SVG_NS = "http://www.w3.org/2000/svg"


def write_corpus(path, n=400, seed=1, classes=4):
    save_jsonl(make_classification_corpus(n, classes, seed=seed), path)


def base_config(tmp_path, **overrides):
    corpus = tmp_path / "corpus.jsonl"
    if not corpus.exists():
        write_corpus(corpus)
    data = {
        "experiment": "pipeline",
        "corpus": str(corpus),
        "out_dir": str(tmp_path / "run"),
        "seeds": [0, 1],
        "model": {"embed_dim": 16, "num_classes": 4, "task": "classification"},
        "victim_opt": {"kind": "sgd", "learning_rate": 0.5, "epochs": 2, "batch_size": 32, "seed": 0},
        "retrain_opt": {"kind": "adam", "learning_rate": 0.01, "epochs": 4, "batch_size": 32, "seed": 0},
        "selection_size": 20,
        "projection_dim": 32,
        "vocab_max_size": 512,
        "seq_len": 32,
    }
    data.update(overrides)
    config = ExperimentConfig.from_dict(data)
    # Every config the tests build survives the dict round trip, hash included.
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again == config and again.config_hash() == config.config_hash()
    return config


class TestConfig:
    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="missing"):
            ExperimentConfig.from_dict(
                {
                    "experiment": "pipeline",
                    "corpus": str(tmp_path / "nope.jsonl"),
                    "seeds": [0],
                    "selection_size": 5,
                }
            )

    def test_unknown_experiment_kind(self, tmp_path):
        write_corpus(tmp_path / "c.jsonl")
        with pytest.raises(ValueError, match="experiment"):
            ExperimentConfig.from_dict(
                {
                    "experiment": "volcano",
                    "corpus": str(tmp_path / "c.jsonl"),
                    "seeds": [0],
                    "selection_size": 5,
                }
            )

    def test_empty_seeds_rejected(self, tmp_path):
        write_corpus(tmp_path / "c.jsonl")
        with pytest.raises(ValueError, match="seeds"):
            ExperimentConfig.from_dict(
                {
                    "experiment": "pipeline",
                    "corpus": str(tmp_path / "c.jsonl"),
                    "seeds": [],
                    "selection_size": 5,
                }
            )

    def test_json_round_trip(self, tmp_path):
        config = base_config(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        loaded = ExperimentConfig.from_json(path)
        assert loaded == config
        assert loaded.config_hash() == config.config_hash()

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"projection_dimm": 512}, "projection_dimm"),
            ({"chunk_rows": 1024}, "chunk_rows"),
            ({"model": {"embed_dimm": 8}}, "embed_dimm"),
            ({"victim_opt": {"kind": "sgd", "lr": 0.05}}, "lr"),
            ({"retrain_opt": {"kind": "adam", "betas": [0.9, 0.99]}}, "betas"),
            ({"params": {"m_lst": [5]}}, "m_lst"),
        ],
    )
    def test_unknown_key_named(self, tmp_path, overrides, key):
        with pytest.raises(ValueError, match=rf"unknown .*config key.*\b{key}\b"):
            base_config(tmp_path, **overrides)

    def test_unknown_optimizer_key_named(self, tmp_path):
        with pytest.raises(ValueError, match="lr"):
            OptimizerConfig.from_dict({"kind": "sgd", "lr": 0.05})
        config = base_config(
            tmp_path, experiment="optimizer", params={"victim_optimizers": [{"kind": "sgd", "lr": 0.05}]}
        )
        with pytest.raises(ValueError, match="lr"):
            experiment_cells(config)

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_cell_configs_round_trip(self, tmp_path, kind):
        pool = tmp_path / "pool.jsonl"
        save_jsonl(make_pool_corpus(50, 4, seed=3), pool)
        params = {
            "m_list": [5, 10],
            "seed_corpora": {"p": str(pool)},
            "k_list": [16, 32],
            "victim_optimizers": [{"kind": "sgd", "learning_rate": 0.5}, {"kind": "adamw"}],
            "retrain_optimizers": [{"kind": "adam", "epochs": 2}],
        }
        for cell in experiment_cells(base_config(tmp_path, experiment=kind, params=params)):
            again = ExperimentConfig.from_dict(cell.config.to_dict())
            assert again == cell.config
            assert again.config_hash() == cell.config.config_hash()

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="bogus"):
            base_config(tmp_path, methods=["select", "bogus"])

    def test_unknown_scoring_rule_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="scoring_rule"):
            base_config(tmp_path, scoring_rule="cosine")

    def test_default_methods_by_task(self, tmp_path):
        config = base_config(tmp_path)
        assert "topk_balanced" in config.method_list()
        lm = base_config(tmp_path, model={"embed_dim": 8, "task": "next_token"})
        assert "topk_balanced" not in lm.method_list()


def cache_files(cache: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(cache.iterdir())}


def halve(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def drop_meta(path: Path) -> None:
    """Rewrite a checkpoint in the older format, whose header held no meta."""
    header, offset = model.checkpoint_header(path)
    del header["meta"]
    tensors = path.read_bytes()[offset:]
    with open(path, "wb") as fh:
        header_bytes = json.dumps(header, sort_keys=True).encode()
        model.write_header(fh, model.CHECKPOINT_MAGIC, model.CHECKPOINT_VERSION, header_bytes)
        fh.write(tensors)


# case -> (the cache files it damages, the kind the rebuild logs, the damage)
CACHE_DEFECTS = {
    "store": ("store-*.selg", "store", halve),
    "sel": ("sel-*.json", "sel", halve),
    "theta0": ("victim-*.theta0.ckpt", "victim", halve),
    "thetaf": ("victim-*.thetaf.ckpt", "victim", halve),
    "retrain": ("retrain-*.ckpt", "retrain", halve),
    "retrain_without_meta": ("retrain-*.ckpt", "retrain", drop_meta),
    "theta0_without_meta": ("victim-*.theta0.ckpt", "victim", drop_meta),
    "thetaf_without_meta": ("victim-*.thetaf.ckpt", "victim", drop_meta),
}

KILLED = 77


def run_killed_at_rename(config: ExperimentConfig, n: int, after_rename: bool) -> None:
    """Run ``config``'s pipeline and exit at once just before or after the n-th cache rename."""
    real = os.replace
    renames = []

    def replace_then_exit(src, dst):
        renames.append(dst)
        if len(renames) == n and not after_rename:
            os._exit(KILLED)
        real(src, dst)
        if len(renames) == n:
            os._exit(KILLED)

    os.replace = replace_then_exit
    run_pipeline(config)


class TestPipeline:
    def test_rows_methods_times_seeds(self, tmp_path):
        config = base_config(tmp_path, methods=["select", "random", "pmin"])
        bundle = run_pipeline(config)
        assert len(bundle.rows) == 3 * 2
        assert not bundle.provenance["errors"]
        got = {(r["method"], r["seed"]) for r in bundle.rows}
        assert got == {(m, s) for m in ("select", "random", "pmin") for s in (0, 1)}

    def test_rerun_identical_except_timestamp(self, tmp_path):
        config = base_config(tmp_path, methods=["select", "random"], seeds=[0])
        a = run_pipeline(config)
        b = run_pipeline(config)
        strip = lambda bundle: {
            "rows": bundle.rows,
            "aggregates": bundle.aggregates,
            "prov": {k: v for k, v in bundle.provenance.items() if k != "generated_at"},
        }
        assert json.dumps(strip(a), sort_keys=True) == json.dumps(strip(b), sort_keys=True)

    def test_aggregates_are_seed_means(self, tmp_path):
        config = base_config(tmp_path, methods=["select", "random"])
        bundle = run_pipeline(config)
        for agg in bundle.aggregates:
            method = dict(agg)["method"]
            members = [r for r in bundle.rows if r["method"] == method]
            assert agg["num_seeds"] == len(members)
            want = float(np.mean([r["accuracy"] for r in members]))
            assert abs(agg["accuracy"] - want) < 1e-9

    def test_cache_reuses_artifacts(self, tmp_path):
        config = base_config(tmp_path, methods=["select"], seeds=[0])
        run_pipeline(config)
        cache = Workspace(config.out_dir).cache_dir
        stamps = {p: p.stat().st_mtime_ns for p in cache.iterdir()}
        run_pipeline(config)
        assert {p: p.stat().st_mtime_ns for p in cache.iterdir()} == stamps

    def test_stage_failure_recorded_not_fatal(self, tmp_path):
        # selection_size larger than the pool: seed fails, bundle still built
        config = base_config(tmp_path, selection_size=10_000, seeds=[0])
        bundle = run_pipeline(config)
        assert bundle.rows == []
        assert any("pool" in e for e in bundle.provenance["errors"])

    def test_expert_method_supported(self, tmp_path):
        config = base_config(tmp_path, methods=["expert"], seeds=[0])
        bundle = run_pipeline(config)
        assert bundle.rows[0]["vocab_containment"] == 1.0

    def test_emit_reports_files(self, tmp_path):
        config = base_config(tmp_path, methods=["select"], seeds=[0])
        bundle = run_pipeline(config)
        emit_reports(config, bundle)
        out = tmp_path / "run"
        assert (out / "report.json").exists()
        assert (out / "report.csv").exists()
        loaded = ReportBundle.from_json(out / "report.json")
        assert loaded.rows == bundle.rows

    @pytest.mark.parametrize("case", CACHE_DEFECTS)
    def test_unusable_cache_file_is_rebuilt(self, tmp_path, caplog, case):
        pattern, kind, damage = CACHE_DEFECTS[case]
        config = base_config(tmp_path, methods=["select", "random"], seeds=[0])
        first = run_pipeline(config)
        cache = Workspace(config.out_dir).cache_dir
        intact = cache_files(cache)
        damaged = list(cache.glob(pattern))
        assert damaged
        for path in damaged:
            damage(path)
        with caplog.at_level("WARNING", logger="gradselect.harness"):
            second = run_pipeline(config)
        assert f"rebuilding unusable cached {kind}" in caplog.text
        assert not second.provenance["errors"]
        assert second.rows == first.rows
        assert cache_files(cache) == intact
        caplog.clear()
        with caplog.at_level("WARNING", logger="gradselect.harness"):
            third = run_pipeline(config)
        assert "rebuilding" not in caplog.text
        assert not third.provenance["errors"]
        assert third.rows == first.rows

    @pytest.mark.parametrize(
        "damage, reason", [(halve, "unexpected end"), (drop_meta, "missing header key 'meta'")]
    )
    def test_shared_retrain_checkpoint_is_rebuilt_once(self, tmp_path, caplog, damage, reason):
        # select and select_batch pick the same documents here, so they share one model.
        config = base_config(tmp_path, methods=["select", "select_batch"], seeds=[0])
        first = run_pipeline(config)
        cache = Workspace(config.out_dir).cache_dir
        intact = cache_files(cache)
        (shared,) = cache.glob("retrain-*.ckpt")
        damage(shared)
        with caplog.at_level("WARNING", logger="gradselect.harness"):
            second = run_pipeline(config)
        rebuilds = [r.getMessage() for r in caplog.records if "rebuilding" in r.getMessage()]
        assert len(rebuilds) == 1
        assert rebuilds[0].startswith("rebuilding unusable cached retrain: ")
        assert reason in rebuilds[0]
        assert second.rows == first.rows
        assert cache_files(cache) == intact

    @pytest.mark.parametrize("after_rename", [False, True], ids=["before_rename", "after_rename"])
    def test_killed_cache_write_is_repaired(self, tmp_path, after_rename):
        methods = ["select", "random"]
        clean = base_config(tmp_path, methods=methods, seeds=[0], out_dir=str(tmp_path / "clean"))
        clean_rows = run_pipeline(clean).rows
        # One cell writes each of its cache files once.
        want = cache_files(Workspace(clean.out_dir).cache_dir)
        for n in range(1, len(want) + 1):
            config = replace(clean, out_dir=str(tmp_path / f"killed_{n}"))
            child = multiprocessing.get_context("fork").Process(
                target=run_killed_at_rename, args=(config, n, after_rename)
            )
            child.start()
            child.join(timeout=120)
            assert child.exitcode == KILLED, n
            again = run_pipeline(config)
            assert not again.provenance["errors"], n
            assert again.rows == clean_rows, n
            files = cache_files(Workspace(config.out_dir).cache_dir)
            orphans = [name for name in files if name.endswith(".tmp")]
            assert len(orphans) == (0 if after_rename else 1), n
            assert {k: v for k, v in files.items() if k not in orphans} == want, n

    @pytest.mark.parametrize("num_checkpoints", [1, 2])
    def test_cached_store_of_other_checkpoints_is_rebuilt(self, tmp_path, caplog, num_checkpoints):
        config = base_config(
            tmp_path, methods=["select", "random"], seeds=[0], num_checkpoints=num_checkpoints
        )
        first = run_pipeline(config)
        cache = Workspace(config.out_dir).cache_dir
        (store,) = cache.glob("store-*.selg")
        intact = store.read_bytes()
        # Same pool, n, k and P, but another victim. At P=2 the second
        # synthetic checkpoint (halfway to the final model) has another
        # fingerprint; at P=1 only the final model differs.
        other = base_config(
            tmp_path,
            methods=["select"],
            seeds=[0],
            num_checkpoints=num_checkpoints,
            out_dir=str(tmp_path / "other"),
            victim_opt={**config.victim_opt.to_dict(), "learning_rate": 0.05},
        )
        run_pipeline(other)
        (stale,) = Workspace(other.out_dir).cache_dir.glob("store-*.selg")
        assert stale.read_bytes() != intact
        store.write_bytes(stale.read_bytes())
        for sel in cache.glob("sel-*.json"):
            sel.unlink()
        with caplog.at_level("WARNING", logger="gradselect.harness"):
            second = run_pipeline(config)
        assert "other checkpoints" in caplog.text
        assert not second.provenance["errors"]
        assert second.rows == first.rows
        assert store.read_bytes() == intact

    def test_wide_sketch_keeps_requested_k(self, tmp_path):
        # D = 4*16 + 4 = 68 < k = 128: rows are stored 68 wide, k stays 128
        config = base_config(tmp_path, methods=["select", "random"], seeds=[0], projection_dim=128)
        bundle = run_pipeline(config)
        assert not bundle.provenance["errors"]
        assert [r["k"] for r in bundle.rows] == [128, 128]
        cache = Workspace(config.out_dir).cache_dir
        (store,) = cache.glob("store-*.selg")
        opened = GradientStore(store)
        assert (opened.k, opened.projection.output_dim) == (68, 128)
        sels = [json.loads(p.read_text()) for p in cache.glob("sel-*.json")]
        assert sorted(sel["method"] for sel in sels) == ["random", "select"]
        assert all(sel["k"] == 128 for sel in sels)

    def test_k_wide_cached_store_is_rebuilt(self, tmp_path, caplog, monkeypatch):
        config = base_config(tmp_path, methods=["select", "random"], seeds=[0], projection_dim=128)
        first = run_pipeline(config)
        cache = Workspace(config.out_dir).cache_dir
        (store,) = cache.glob("store-*.selg")
        intact = store.read_bytes()

        # The store an earlier version wrote under the same key: k-wide
        # sketch rows A^T g, with the right fingerprints.
        def k_wide_sketch(vec, proj):
            arr = np.asarray(vec, dtype=np.float64)
            return arr @ proj.sign_block(0, proj.input_dim) / np.sqrt(proj.output_dim)

        with monkeypatch.context() as patch:
            patch.setattr(gradstore, "project", k_wide_sketch)
            patch.setattr(gradstore.Projection, "width", property(lambda p: p.output_dim))
            other = base_config(
                tmp_path, methods=["select"], seeds=[0], projection_dim=128,
                out_dir=str(tmp_path / "other"),
            )
            assert not run_pipeline(other).provenance["errors"]
        (stale,) = Workspace(other.out_dir).cache_dir.glob("store-*.selg")
        assert stale.name == store.name
        assert GradientStore(stale).k == 128
        store.write_bytes(stale.read_bytes())
        for sel in cache.glob("sel-*.json"):
            sel.unlink()
        with caplog.at_level("WARNING", logger="gradselect.harness"):
            second = run_pipeline(config)
        assert "width 128 is not 68" in caplog.text
        assert not second.provenance["errors"]
        assert second.rows == first.rows
        assert store.read_bytes() == intact

    @pytest.mark.parametrize(
        "defect,message",
        [("no_labels", "no pseudolabels"), ("short", "rows, pool")],
    )
    def test_cached_store_without_the_pools_labels_is_rebuilt(
        self, tmp_path, caplog, defect, message
    ):
        config = base_config(tmp_path, methods=["select", "random"], seeds=[0])
        first = run_pipeline(config)
        (store,) = Workspace(config.out_dir).cache_dir.glob("store-*.selg")
        intact = store.read_bytes()
        # Same header fields as the cached store, so only the check on the
        # labels (or on the row count) can reject it.
        cached = GradientStore(store)
        rows = slice(None) if defect == "no_labels" else slice(0, cached.num_examples - 1)
        labels = None if defect == "no_labels" else cached.pseudolabels[rows]
        gradstore.write_store(
            store,
            [cached.block(j)[rows] for j in range(cached.num_checkpoints)],
            cached.final_losses[rows],
            labels,
            cached.projection,
            cached.fingerprints,
            cached.header["final_fingerprint"],
        )
        with caplog.at_level("WARNING", logger="gradselect.harness"):
            second = run_pipeline(config)
        assert "rebuilding unusable cached store" in caplog.text
        assert message in caplog.text
        assert not second.provenance["errors"]
        assert second.rows == first.rows
        assert store.read_bytes() == intact

    @pytest.mark.parametrize("task", ["classification", "next_token"])
    def test_warm_run_reads_labels_from_the_store(self, tmp_path, monkeypatch, task):
        config = base_config(
            tmp_path, methods=["select", "random"], seeds=[0],
            model={"embed_dim": 8, "num_classes": 4, "task": task},
        )
        first = run_pipeline(config)
        assert not first.provenance["errors"]

        def refuse(*args, **kwargs):
            raise AssertionError("the pool was encoded or autolabeled on a cache hit")

        monkeypatch.setattr(harness, "autolabel", refuse)
        monkeypatch.setattr(harness, "encode_documents", refuse)
        second = run_pipeline(config)
        assert not second.provenance["errors"]
        assert second.rows == first.rows

    @pytest.mark.parametrize("task", ["classification", "next_token"])
    def test_warm_run_trains_nothing(self, tmp_path, monkeypatch, task):
        config = base_config(
            tmp_path, methods=["select", "random", "expert"], seeds=[0],
            model={"embed_dim": 8, "num_classes": 4, "task": task},
        )
        first = run_pipeline(config)
        assert not first.provenance["errors"]

        def refuse(*args, **kwargs):
            raise AssertionError("a model was trained on a warm run")

        monkeypatch.setattr(metrics, "train", refuse)
        monkeypatch.setattr(harness, "train", refuse)
        second = run_pipeline(config)
        assert not second.provenance["errors"]
        assert second.rows == first.rows

    @pytest.mark.parametrize("kind", ["pipeline", "scaling"])
    def test_parallel_matches_serial(self, tmp_path, kind):
        overrides = dict(
            experiment=kind, methods=["select", "random"], seeds=[0, 1], params={"m_list": [5, 10]}
        )
        config = base_config(tmp_path, **overrides)
        serial = run_experiment(config, parallel=1)
        other = base_config(tmp_path, out_dir=str(tmp_path / "run_par"), **overrides)
        par = run_experiment(other, parallel=2)
        assert not serial.provenance["errors"]
        assert serial.rows == par.rows
        assert (
            serial.provenance["checkpoint_checksums"] == par.provenance["checkpoint_checksums"]
        )


def count_retrains(monkeypatch) -> list:
    """Record one entry per model that the harness's ``retrain_and_eval`` calls train."""
    calls = []
    real = harness.retrain_and_eval

    def counting(*args, **kwargs):
        calls.extend([args[1]] * len(args[0].models()))
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "retrain_and_eval", counting)
    return calls


class TestRetrainCache:
    """The retrained model is cached under the victim, the selection and the retrain optimizer."""

    def test_changed_retrain_optimizer_retrains_every_method(self, tmp_path, monkeypatch):
        methods = ["select", "random", "expert"]
        config = base_config(tmp_path, methods=methods, seeds=[0])
        calls = count_retrains(monkeypatch)
        assert not run_pipeline(config).provenance["errors"]
        assert len(calls) == len(methods)
        assert not run_pipeline(config).provenance["errors"]
        assert len(calls) == len(methods)
        retrain_opt = {**config.retrain_opt.to_dict(), "epochs": config.retrain_opt.epochs + 1}
        other = base_config(tmp_path, methods=methods, seeds=[0], retrain_opt=retrain_opt)
        assert not run_pipeline(other).provenance["errors"]
        assert len(calls) == 2 * len(methods)
        cache = Workspace(config.out_dir).cache_dir
        assert len(list(cache.glob("retrain-*.ckpt"))) == 2 * len(methods)

    def test_equal_selections_share_one_retrain(self, tmp_path, monkeypatch):
        # The pool holds 80 documents, under the default batch_window of 1000,
        # so select_batch runs select's single window.
        methods = ["select", "select_batch"]
        config = base_config(tmp_path, methods=methods, seeds=[0])
        calls = count_retrains(monkeypatch)
        bundle = run_pipeline(config)
        assert not bundle.provenance["errors"]
        cache = Workspace(config.out_dir).cache_dir
        sels = [json.loads(p.read_text()) for p in cache.glob("sel-*.json")]
        assert sorted(sel["method"] for sel in sels) == methods
        assert sels[0]["indices"] == sels[1]["indices"]
        assert len(calls) == 1
        for method, row in zip(methods, bundle.rows):
            fresh = base_config(
                tmp_path, methods=[method], seeds=[0], out_dir=str(tmp_path / f"fresh_{method}")
            )
            assert run_pipeline(fresh).rows == [row]

    def test_failed_checkpoint_write_leaves_no_retrain(self, tmp_path, monkeypatch):
        methods = ["select", "random"]
        config = base_config(tmp_path, methods=methods, seeds=[0])
        clean = run_pipeline(
            base_config(tmp_path, methods=methods, seeds=[0], out_dir=str(tmp_path / "clean"))
        )
        real = model.atomic_write

        @contextmanager
        def failing(path):
            with real(path) as fh:
                if Path(path).name.startswith("retrain-") and Path(path).suffix == ".ckpt":
                    fh.write(b"partial")
                    raise OSError("disk full")
                yield fh

        with monkeypatch.context() as patch:
            patch.setattr(model, "atomic_write", failing)
            broken = run_pipeline(config)
        assert broken.rows == []
        assert any("disk full" in error for error in broken.provenance["errors"])
        cache = Workspace(config.out_dir).cache_dir
        assert not list(cache.glob("retrain-*.ckpt"))
        assert not list(cache.glob("*.tmp"))
        calls = count_retrains(monkeypatch)
        again = run_pipeline(config)
        assert not again.provenance["errors"]
        assert again.rows == clean.rows
        assert len(calls) == len(methods)


def count_models_per_call(monkeypatch) -> list:
    """Record how many models each ``retrain_and_eval`` call the harness makes trains."""
    sizes = []
    real = harness.retrain_and_eval

    def counting(*args, **kwargs):
        sizes.append(len(args[0].models()))
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "retrain_and_eval", counting)
    return sizes


def fail_retrain_writes(patch, after: int) -> None:
    """Make every ``retrain-*.ckpt`` write after the first ``after`` fail mid-file."""
    real = model.atomic_write
    seen = []

    @contextmanager
    def failing(path):
        with real(path) as fh:
            if Path(path).name.startswith("retrain-") and Path(path).suffix == ".ckpt":
                seen.append(path)
                if len(seen) > after:
                    fh.write(b"partial")
                    raise OSError("disk full")
            yield fh

    patch.setattr(model, "atomic_write", failing)


class TestLockstepRetrain:
    """A cell selects with every method first, then trains its missing models together."""

    def test_added_method_trains_only_its_model(self, tmp_path, monkeypatch):
        config = base_config(tmp_path, methods=["select", "random"], seeds=[0])
        sizes = count_models_per_call(monkeypatch)
        assert not run_pipeline(config).provenance["errors"]
        assert sizes == [2]
        wider = base_config(tmp_path, methods=["select", "random", "topk"], seeds=[0])
        bundle = run_pipeline(wider)
        assert not bundle.provenance["errors"]
        assert sizes == [2, 1]
        fresh = run_pipeline(
            base_config(
                tmp_path, methods=["select", "random", "topk"], seeds=[0],
                out_dir=str(tmp_path / "fresh"),
            )
        )
        assert sizes == [2, 1, 3]
        assert bundle.rows == fresh.rows

    def test_lockstep_rows_equal_solo_rows(self, tmp_path, monkeypatch):
        methods = ["select", "random", "topk", "expert"]
        config = base_config(tmp_path, methods=methods, seeds=[0])
        sizes = count_models_per_call(monkeypatch)
        bundle = run_pipeline(config)
        assert not bundle.provenance["errors"]
        # select, random and topk share M; the expert trains on the whole training set.
        assert sorted(sizes) == [1, 3]
        for method, row in zip(methods, bundle.rows):
            solo = base_config(
                tmp_path, methods=[method], seeds=[0], out_dir=str(tmp_path / f"solo_{method}")
            )
            assert run_pipeline(solo).rows == [row]

    def test_next_token_trains_one_model_per_call(self, tmp_path, monkeypatch):
        config = base_config(
            tmp_path, methods=["select", "random", "topk"], seeds=[0],
            model={"embed_dim": 8, "task": "next_token"},
        )
        sizes = count_models_per_call(monkeypatch)
        assert not run_pipeline(config).provenance["errors"]
        assert sizes == [1, 1, 1]

    def test_failed_checkpoint_write_leaves_no_meta(self, tmp_path, monkeypatch):
        config = base_config(tmp_path, methods=["select", "random"], seeds=[0])
        with monkeypatch.context() as patch:
            fail_retrain_writes(patch, after=0)
            broken = run_pipeline(config)
        assert any("disk full" in error for error in broken.provenance["errors"])
        cache = Workspace(config.out_dir).cache_dir
        assert not list(cache.glob("retrain-*"))
        # The victim's checkpoints keep their metas, in their headers.
        victims = list(cache.glob("victim-*.ckpt"))
        assert len(victims) == 2
        assert all(model.checkpoint_header(p)[0]["meta"]["optimizer"] == "sgd" for p in victims)
        assert not list(cache.glob("*.meta.json"))

    def test_write_failing_at_second_model_keeps_the_first(self, tmp_path, monkeypatch):
        methods = ["select", "random", "topk"]
        config = base_config(tmp_path, methods=methods, seeds=[0])
        clean = run_pipeline(
            base_config(tmp_path, methods=methods, seeds=[0], out_dir=str(tmp_path / "clean"))
        )
        with monkeypatch.context() as patch:
            fail_retrain_writes(patch, after=1)
            broken = run_pipeline(config)
        assert broken.rows == []
        assert any("disk full" in error for error in broken.provenance["errors"])
        cache = Workspace(config.out_dir).cache_dir
        (kept,) = cache.glob("retrain-*.ckpt")
        meta = model.checkpoint_header(kept)[0]["meta"]
        assert set(meta) == {"accuracy", "mean_loss", "perplexity"}
        assert not list(cache.glob("*.meta.json"))
        assert not list(cache.glob("*.tmp"))
        sizes = count_models_per_call(monkeypatch)
        again = run_pipeline(config)
        assert not again.provenance["errors"]
        assert sizes == [len(methods) - 1]
        assert again.rows == clean.rows


class TestDeterminismAcrossFreshDirs:
    def test_bit_identical_artifacts(self, tmp_path):
        stores, ckpts, sels = [], [], []
        for name in ("a", "b"):
            config = base_config(
                tmp_path, methods=["select"], seeds=[0], out_dir=str(tmp_path / name)
            )
            run_pipeline(config)
            cache = Workspace(config.out_dir).cache_dir
            stores.append(b"".join(sorted(p.read_bytes() for p in cache.glob("*.selg"))))
            ckpts.append(b"".join(sorted(p.read_bytes() for p in cache.glob("*.ckpt"))))
            sels.append(
                "".join(sorted(p.read_text() for p in cache.glob("sel-*.json")))
            )
        assert stores[0] == stores[1]
        assert ckpts[0] == ckpts[1]
        assert sels[0] == sels[1]


class TestExperiments:
    def test_scaling_contract(self, tmp_path):
        config = base_config(
            tmp_path,
            experiment="scaling",
            methods=["select", "random"],
            seeds=[0],
            params={"m_list": [5, 10, 20]},
        )
        bundle = run_experiment(config)
        assert len(bundle.rows) == 2 * 3
        assert sorted({r["M"] for r in bundle.rows}) == [5, 10, 20]

    def test_selection_failure_stays_in_its_cell(self, tmp_path):
        # The seed split holds 80 of the 400 documents: M=5000 cannot be met.
        config = base_config(
            tmp_path,
            experiment="scaling",
            methods=["select", "expert"],
            seeds=[0],
            params={"m_list": [5, 5000]},
        )
        bundle = run_experiment(config)
        assert {(r["method"], r["M"]) for r in bundle.rows} == {("select", 5), ("expert", 5)}
        (error,) = bundle.provenance["errors"]
        assert "M=5000" in error and "pool size 80" in error

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_every_kind_runs_its_whole_grid(self, tmp_path, kind):
        pools = {}
        for name, seed in (("pa", 3), ("pb", 4)):
            pools[name] = str(tmp_path / f"{name}.jsonl")
            save_jsonl(make_pool_corpus(120, 4, seed=seed), pools[name])
        seeds = [0] if kind == "metric_ablation" else [0, 1]
        config = base_config(
            tmp_path,
            experiment=kind,
            seeds=seeds,
            selection_size=10,
            methods=None if kind == "pipeline" else ["select", "random"],
            params={
                "m_list": [5, 10],
                "leak_fractions": [0.1, 0.5],
                "leak_pool_size": 60,
                "seed_corpora": pools,
                "k_list": [16, 32],
                "victim_optimizers": [{"kind": "sgd"}, {"kind": "adam", "learning_rate": 0.01}],
                "retrain_optimizers": [{"kind": "adam", "learning_rate": 0.01}],
                "replace_steps": [0.0, 1.0],
                "trials": 1,
            },
        )
        bundle = run_experiment(config)
        assert not bundle.provenance["errors"]
        cells = experiment_cells(config)

        def order(row):
            (index,) = [
                i for i, c in enumerate(cells) if all(row[k] == v for k, v in c.fields.items())
            ]
            return index, cells[index].methods.index(row["method"]), row["seed"]

        keys = [order(r) for r in bundle.rows]
        assert keys == sorted(keys)
        if kind != "metric_ablation":
            assert len(set(keys)) == len(keys) == sum(len(c.methods) for c in cells) * len(seeds)
        checksums = bundle.provenance["checkpoint_checksums"]
        assert set(checksums) == {c.label(s) for c in cells for s in seeds}
        assert len(checksums) == len(cells) * len(seeds)
        for entry in checksums.values():
            assert set(entry) == {"theta0", "theta_f"}

    def test_leakage_series_and_counts(self, tmp_path):
        pool = tmp_path / "distractors.jsonl"
        save_jsonl(make_pool_corpus(300, 4, seed=7, useful_fraction=0.05), pool)
        config = base_config(
            tmp_path,
            experiment="leakage",
            seed_corpus=str(pool),
            seeds=[0],
            selection_size=15,
            params={"leak_fractions": [0.1, 0.5, 0.9], "leak_pool_size": 100},
        )
        bundle = run_experiment(config)
        assert [r["leak_fraction"] for r in bundle.rows] == [0.1, 0.5, 0.9]
        for row in bundle.rows:
            assert 0 <= row["leaked_selected"] <= 15
        # Each cell selects from its own pool, so none reuses another's selection.
        assert len(list(Workspace(config.out_dir).cache_dir.glob("sel-*.json"))) == 3

    def test_crossseed_matrix(self, tmp_path, monkeypatch):
        a, b = tmp_path / "task_a.jsonl", tmp_path / "task_b.jsonl"
        write_corpus(a, seed=1)
        write_corpus(b, seed=2)
        pool_a = tmp_path / "pool_a.jsonl"
        pool_b = tmp_path / "pool_b.jsonl"
        save_jsonl(make_pool_corpus(200, 4, seed=3), pool_a)
        save_jsonl(make_pool_corpus(200, 4, seed=4), pool_b)
        config = base_config(
            tmp_path,
            experiment="crossseed",
            seeds=[0],
            selection_size=10,
            params={
                "task_corpora": {"a": str(a), "b": str(b)},
                "seed_corpora": {"pa": str(pool_a), "pb": str(pool_b)},
            },
        )
        picked = {}
        run_selection = harness.run_selection

        def recording(cfg, *args):
            result = run_selection(cfg, *args)
            picked[cfg.out_dir, cfg.corpus, cfg.seed_corpus] = result.indices
            return result

        monkeypatch.setattr(harness, "run_selection", recording)
        bundle = run_experiment(config)
        assert {(r["task"], r["seed_corpus"]) for r in bundle.rows} == {
            ("a", "pa"), ("a", "pb"), ("b", "pa"), ("b", "pb")
        }
        # Two cells share a victim and a pool size: each still selects from its own pool.
        assert len(list(Workspace(config.out_dir).cache_dir.glob("sel-*.json"))) == 4
        alone = base_config(
            tmp_path,
            corpus=str(a),
            seed_corpus=str(pool_b),
            out_dir=str(tmp_path / "alone"),
            seeds=[0],
            selection_size=10,
            methods=["select"],
        )
        assert not run_pipeline(alone).provenance["errors"]
        cell = (str(a), str(pool_b))
        assert picked[(config.out_dir, *cell)] == picked[(alone.out_dir, *cell)]

    def test_projection_dim_grid(self, tmp_path):
        config = base_config(
            tmp_path,
            experiment="projection_dim",
            seeds=[0],
            params={"k_list": [16, 64]},
        )
        bundle = run_experiment(config)
        assert {(r["method"], r["k"]) for r in bundle.rows} == {
            ("select", 16), ("select", 64), ("random", 16), ("random", 64)
        }

    def test_optimizer_grid(self, tmp_path):
        config = base_config(
            tmp_path,
            experiment="optimizer",
            seeds=[0],
            params={
                "victim_optimizers": [{"kind": "sgd", "learning_rate": 0.5}, {"kind": "adam", "learning_rate": 0.01}],
                "retrain_optimizers": [{"kind": "adam", "learning_rate": 0.01}],
            },
        )
        bundle = run_experiment(config)
        assert len(bundle.rows) == 2 * 1 * 2  # victims x retrains x methods
        assert {r["victim_optimizer"] for r in bundle.rows} == {"sgd", "adam"}

    def test_optimizer_settings_of_one_kind_stay_apart(self, tmp_path):
        config = base_config(
            tmp_path,
            experiment="optimizer",
            seeds=[0],
            methods=["select"],
            params={
                "victim_optimizers": [
                    {"kind": "sgd", "learning_rate": 0.5},
                    {"kind": "sgd", "learning_rate": 0.05},
                ],
                "retrain_optimizers": [{"kind": "adam"}],
            },
        )
        bundle = run_experiment(config)
        assert not bundle.provenance["errors"]
        assert [r["victim_learning_rate"] for r in bundle.rows] == [0.5, 0.05]
        assert [a["victim_learning_rate"] for a in bundle.aggregates] == [0.5, 0.05]
        assert all(a["num_seeds"] == 1 for a in bundle.aggregates)
        assert sorted(bundle.provenance["checkpoint_checksums"]) == [
            "victim_optimizer=sgd/victim_learning_rate=0.05/retrain_optimizer=adam/seed=0",
            "victim_optimizer=sgd/victim_learning_rate=0.5/retrain_optimizer=adam/seed=0",
        ]

    def test_kind_only_optimizer_overrides_keep_their_fields(self, tmp_path):
        config = base_config(
            tmp_path,
            experiment="optimizer",
            params={"victim_optimizers": [{"kind": "sgd"}], "retrain_optimizers": [{"kind": "adam"}]},
        )
        (cell,) = experiment_cells(config)
        assert cell.fields == {"victim_optimizer": "sgd", "retrain_optimizer": "adam"}

    def test_expert_is_scored_once_per_seed(self, tmp_path, monkeypatch):
        config = base_config(
            tmp_path,
            experiment="scaling",
            methods=["expert"],
            seeds=[0],
            params={"m_list": [5, 10, 20]},
        )
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return retrain_and_eval(*args, **kwargs)

        retrain_and_eval = harness.retrain_and_eval
        monkeypatch.setattr(harness, "retrain_and_eval", counting)
        single = run_experiment(
            base_config(tmp_path, methods=["expert"], seeds=[0], selection_size=5)
        ).rows[0]
        bundle = run_experiment(config)
        assert len(calls) == 1
        assert [r["M"] for r in bundle.rows] == [5, 10, 20]
        for row in bundle.rows:
            assert {**row, "experiment": "pipeline", "M": single["M"]} == single

    def test_metric_ablation_saturates(self, tmp_path):
        config = base_config(
            tmp_path,
            experiment="metric_ablation",
            seeds=[0],
            selection_size=15,
            params={"replace_steps": [0.0, 0.5, 1.0], "trials": 2},
        )
        bundle = run_experiment(config)
        assert len(bundle.rows) == 3 * 2
        final = [r for r in bundle.rows if r["replace_fraction"] == 1.0]
        assert all(r["vocab_containment"] == 1.0 for r in final)

    def test_figures_emitted(self, tmp_path):
        config = base_config(
            tmp_path,
            experiment="scaling",
            methods=["select"],
            seeds=[0],
            params={"m_list": [5, 10]},
        )
        bundle = run_experiment(config)
        emit_reports(config, bundle)
        fig_dir = tmp_path / "run" / "figures"
        assert (fig_dir / "scaling.csv").exists()
        assert (fig_dir / "scaling_accuracy.svg").exists()
        root = ET.parse(fig_dir / "scaling_accuracy.svg").getroot()
        assert root.tag == f"{{{SVG_NS}}}svg"
        polylines = root.findall(f"{{{SVG_NS}}}polyline")
        assert len(polylines) == len(config.method_list())
        assert len(polylines[0].get("points").split()) == len(config.params["m_list"])


class TestFigureSvg:
    """The SVG writer on hand-made aggregates: no experiment run needed."""

    def emit(self, tmp_path, experiment, aggregates):
        config = base_config(tmp_path, experiment=experiment)
        emit_reports(config, ReportBundle(rows=[], aggregates=aggregates, provenance={}))
        return tmp_path / "run" / "figures"

    def polylines(self, path):
        root = ET.parse(path).getroot()
        return [el.get("points") for el in root.iter(f"{{{SVG_NS}}}polyline")], root

    def test_zero_span_single_point(self, tmp_path):
        fig_dir = self.emit(
            tmp_path,
            "leakage",
            [{"method": "select", "leak_fraction": 0.5, "accuracy": 0.7, "ot_distance": 0.0}],
        )
        for name in ("leakage_accuracy.svg", "leakage_ot_distance.svg"):
            lines, _ = self.polylines(fig_dir / name)
            assert len(lines) == 1
            (points,) = lines
            x, y = (float(v) for v in points.split(","))
            assert math.isfinite(x) and math.isfinite(y)

    def test_non_finite_dropped(self, tmp_path):
        aggs = [
            {"method": "select", "k": k, "accuracy": 0.5, "perplexity": ppl}
            for k, ppl in ((16, 3.0), (32, float("nan")), (64, float("inf")), (128, 5.0))
        ]
        fig_dir = self.emit(tmp_path, "projection_dim", aggs)
        text = (fig_dir / "projection_dim_perplexity.svg").read_text()
        assert "nan" not in text.lower() and "inf" not in text.lower()
        lines, _ = self.polylines(fig_dir / "projection_dim_perplexity.svg")
        (points,) = lines
        assert len(points.split()) == 2

    def test_names_escaped_and_legend_per_method(self, tmp_path):
        aggs = [
            {"method": name, "M": m, "accuracy": 0.1 * m}
            for name in ("a<b&c", "random")
            for m in (5, 10)
        ]
        fig_dir = self.emit(tmp_path, "scaling", aggs)
        lines, root = self.polylines(fig_dir / "scaling_accuracy.svg")
        assert len(lines) == 2
        texts = [el.text for el in root.iter(f"{{{SVG_NS}}}text")]
        assert "a<b&c" in texts and "random" in texts
        assert "M" in texts and "accuracy" in texts

    def test_points_sorted_by_x(self, tmp_path):
        aggs = [{"method": "select", "M": m, "accuracy": 0.5 + 0.01 * m} for m in (20, 5, 10)]
        fig_dir = self.emit(tmp_path, "scaling", aggs)
        lines, _ = self.polylines(fig_dir / "scaling_accuracy.svg")
        (points,) = lines
        xs = [float(p.split(",")[0]) for p in points.split()]
        assert xs == sorted(xs) and len(set(xs)) == 3

    def test_byte_identical_rerun(self, tmp_path):
        aggs = [
            {"method": method, "M": m, "accuracy": 0.3 + 0.01 * m, "perplexity": 9.0 - m * 0.1}
            for method in ("select", "random")
            for m in (5, 10, 20)
        ]
        fig_dir = self.emit(tmp_path, "scaling", aggs)
        first = {p.name: p.read_bytes() for p in fig_dir.glob("*.svg")}
        fig_dir = self.emit(tmp_path, "scaling", list(reversed(aggs)))
        second = {p.name: p.read_bytes() for p in fig_dir.glob("*.svg")}
        assert set(first) == {"scaling_accuracy.svg", "scaling_perplexity.svg"}
        assert first == second


class TestCarveValidation:
    def test_sizes_and_disjoint(self):
        docs = make_classification_corpus(100, 4, seed=0)
        rest, val = carve_validation(docs, 0.1, 3)
        assert len(val) == 10 and len(rest) == 90
        assert not (set(d.id for d in val) & set(d.id for d in rest))

    def test_deterministic(self):
        docs = make_classification_corpus(50, 4, seed=0)
        a = carve_validation(docs, 0.2, 5)
        b = carve_validation(docs, 0.2, 5)
        assert [d.id for d in a[1]] == [d.id for d in b[1]]


class TestAggregateRows:
    def test_mean_and_grouping(self):
        rows = [
            {"method": "x", "seed": 0, "accuracy": 0.5, "mean_loss": 1.0},
            {"method": "x", "seed": 1, "accuracy": 0.7, "mean_loss": 2.0},
            {"method": "y", "seed": 0, "accuracy": 0.1, "mean_loss": 3.0},
        ]
        aggs = aggregate_rows(rows)
        assert len(aggs) == 2
        assert abs(aggs[0]["accuracy"] - 0.6) < 1e-12
        assert aggs[0]["num_seeds"] == 2


def test_docs_digest_is_pinned():
    # Every cache key holds this digest; a change would leave existing caches unread.
    docs = DocumentSet(
        [
            Document(0, "h\u00e9llo w\u00f6rld \u2014 \u00fcn\u00efcode \u2713", None),
            Document(3, "plain text", 2),
            Document(7, "\u65e5\u672c\u8a9e \u30c6\u30ad\u30b9\u30c8", 0),
            Document(9, "x", None),
        ]
    )
    assert harness._docs_digest(docs) == "115eefd1a5b81085"
    assert harness._docs_digest(DocumentSet([])) == "e3b0c44298fc1c14"


def test_reference_side_scored_once_per_cell(tmp_path, monkeypatch):
    config = base_config(tmp_path, seeds=[0], methods=["select", "random", "topk"])
    embedded, tokenized = [], []
    real_embed, real_tokens = harness.embed, harness.token_set
    monkeypatch.setattr(harness, "embed", lambda docs, *a: embedded.append(docs) or real_embed(docs, *a))
    monkeypatch.setattr(harness, "token_set", lambda docs: tokenized.append(docs) or real_tokens(docs))
    bundle = run_pipeline(config)
    assert not bundle.provenance["errors"] and len(bundle.rows) == 3
    # One subsample per method, one reference subsample (equal sizes draw it alike).
    assert len(embedded) == 4
    assert len(tokenized) == 1


class TestCLI:
    def _config_file(self, tmp_path, **overrides):
        overrides.setdefault("methods", ["select", "random"])
        config = base_config(tmp_path, seeds=[0], **overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        return path, config

    def test_expert_in_every_selection_stage(self, tmp_path, capsys):
        path, config = self._config_file(tmp_path, methods=["select", "expert"])
        for stage in ("select", "retrain", "metrics"):
            assert cli_main([stage, "--config", str(path), "--method", "all"]) == 0
        assert "expert: no selection" in capsys.readouterr().out
        out = tmp_path / "run"
        assert not (out / "selections" / "expert.json").exists()
        assert (out / "retrained" / "expert.ckpt").exists()
        report = json.loads((out / "reports" / "expert.json").read_text())
        fresh = replace(config, out_dir=str(tmp_path / "experiment"))
        (row,) = [r for r in run_experiment(fresh).rows if r["method"] == "expert"]
        for key in ("accuracy", "mean_loss", "perplexity", "vocab_containment"):
            assert report[key] == row[key], key
        assert report["ot"]["distance"] == row["ot_distance"]

    def test_stages_match_the_runner(self, tmp_path):
        methods = ["select", "random", "expert"]
        path, config = self._config_file(tmp_path, methods=methods)
        for stage in ("select", "metrics"):
            assert cli_main([stage, "--config", str(path), "--method", "all"]) == 0
        fresh = replace(config, out_dir=str(tmp_path / "experiment"))
        rows = {r["method"]: r for r in run_experiment(fresh).rows}
        out = tmp_path / "run"
        for method in methods:
            report = json.loads((out / "reports" / f"{method}.json").read_text())
            for key in ("accuracy", "mean_loss", "perplexity", "vocab_containment"):
                assert report[key] == rows[method][key], (method, key)
            assert report["ot"]["distance"] == rows[method]["ot_distance"], method
        cached = {}
        for file in Workspace(fresh.out_dir).cache_dir.glob("sel-*.json"):
            data = json.loads(file.read_text())
            cached[data["method"]] = data["indices"]
        assert sorted(cached) == ["random", "select"]
        for method, indices in cached.items():
            written = json.loads((out / "selections" / f"{method}.json").read_text())
            assert written["indices"] == indices, method

    def test_gen_corpus(self, tmp_path):
        out = tmp_path / "g.jsonl"
        rc = cli_main(["gen-corpus", "--kind", "classification", "--out", str(out), "--n", "50"])
        assert rc == 0 and out.exists()
        from gradselect.corpus import load_jsonl

        assert len(load_jsonl(out)) == 50

    def test_stage_chain(self, tmp_path):
        path, config = self._config_file(tmp_path)
        for argv in (
            ["train-victim", "--config", str(path)],
            ["autolabel", "--config", str(path)],
            ["build-store", "--config", str(path)],
            ["select", "--config", str(path), "--method", "select"],
            ["retrain", "--config", str(path), "--method", "select"],
            ["metrics", "--config", str(path), "--method", "select"],
        ):
            assert cli_main(argv) == 0
        out = tmp_path / "run"
        assert (out / "vocab.json").exists()
        assert (out / "checkpoints" / "thetaf.ckpt").exists()
        assert (out / "autolabeled.jsonl").exists()
        assert (out / "store.selg").exists()
        assert (out / "selections" / "select.json").exists()
        assert (out / "retrained" / "select.ckpt").exists()
        report = json.loads((out / "reports" / "select.json").read_text())
        assert "vocab_containment" in report and "ot" in report

    def test_retrain_then_metrics_train_once(self, tmp_path, monkeypatch):
        path, config = self._config_file(tmp_path)
        assert cli_main(["select", "--config", str(path), "--method", "select"]) == 0
        calls = count_retrains(monkeypatch)
        for stage in ("retrain", "metrics"):
            assert cli_main([stage, "--config", str(path), "--method", "select"]) == 0
        assert len(calls) == 1
        out = tmp_path / "run"
        report = json.loads((out / "reports" / "select.json").read_text())
        evaluated = json.loads((out / "reports" / "select_eval.json").read_text())
        assert {key: report[key] for key in evaluated} == evaluated
        (cached,) = Workspace(config.out_dir).cache_dir.glob("retrain-*.ckpt")
        assert (out / "retrained" / "select.ckpt").read_bytes() == cached.read_bytes()

    def test_retrain_all_methods_trains_in_lockstep(self, tmp_path, monkeypatch):
        path, config = self._config_file(tmp_path)
        sizes = count_models_per_call(monkeypatch)
        assert cli_main(["retrain", "--config", str(path), "--method", "all"]) == 0
        assert sizes == [len(config.methods)]
        out, solo = tmp_path / "run", tmp_path / "solo"
        for method in config.methods:
            argv = ["retrain", "--config", str(path), "--method", method, "--out", str(solo)]
            assert cli_main(argv) == 0
        assert sizes == [len(config.methods)] + [1] * len(config.methods)
        for method in config.methods:
            for name in (f"retrained/{method}.ckpt", f"reports/{method}_eval.json"):
                assert (out / name).read_bytes() == (solo / name).read_bytes()

    def test_wide_sketch_select_reports_requested_k(self, tmp_path, capsys):
        path, config = self._config_file(tmp_path, projection_dim=128)
        assert cli_main(["build-store", "--config", str(path)]) == 0
        assert cli_main(["select", "--config", str(path), "--method", "select"]) == 0
        assert "k=128 (stored width 68)" in capsys.readouterr().out
        out = tmp_path / "run"
        assert GradientStore(out / "store.selg").k == 68
        assert json.loads((out / "selections" / "select.json").read_text())["k"] == 128

    def test_experiment_command(self, tmp_path):
        path, config = self._config_file(tmp_path)
        rc = cli_main(["experiment", "pipeline", "--config", str(path), "--out", str(tmp_path / "exp")])
        assert rc == 0
        assert (tmp_path / "exp" / "report.json").exists()

    def test_seed_override(self, tmp_path):
        path, config = self._config_file(tmp_path)
        rc = cli_main(
            ["experiment", "pipeline", "--config", str(path), "--out", str(tmp_path / "e2"), "--seed", "5"]
        )
        assert rc == 0
        bundle = json.loads((tmp_path / "e2" / "report.json").read_text())
        assert {r["seed"] for r in bundle["rows"]} == {5}
