"""Command-line entry points.

Stage commands (train-victim, autolabel, build-store, select, retrain,
metrics) share one config and output directory and may be run in sequence;
cached artifacts make each stage reuse the previous one's work. The
experiment command runs a whole grid and emits report.json / report.csv /
figures.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness, toycorpus
from .corpus import save_jsonl
from .harness import ExperimentConfig, Workspace
from .metrics import MetricsReport
from .model import evaluate, save_checkpoint, train
from .selector import write_selection

GEN_KINDS = ("classification", "pool", "lm", "lm_pool")


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json(args.config)
    if args.out:
        config = replace(config, out_dir=args.out)
    if args.seed is not None:
        config = replace(config, seeds=(args.seed, *config.seeds[1:]))
    return config


def _prepare(config: ExperimentConfig):
    workspace = Workspace(config.out_dir)
    ctx = harness.prepare_run(config, config.seeds[0], workspace)
    return workspace, ctx


def cmd_gen_corpus(args) -> int:
    if args.kind == "classification":
        docs = toycorpus.make_classification_corpus(
            args.n,
            args.classes,
            args.seed,
            topic_offset=args.topic_offset,
            key_lo=args.key_lo,
            key_hi=args.key_hi,
        )
    elif args.kind == "pool":
        docs = toycorpus.make_pool_corpus(
            args.n,
            args.classes,
            args.seed,
            useful_fraction=args.useful_fraction,
            topic_offset=args.topic_offset,
        )
    elif args.kind == "lm":
        docs = toycorpus.make_lm_corpus(args.n, args.seed, topic_offset=args.topic_offset)
    else:
        docs = toycorpus.make_lm_pool(
            args.n,
            args.seed,
            useful_fraction=args.useful_fraction,
            topic_offset=args.topic_offset,
        )
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_jsonl(docs, args.out)
    print(f"wrote {len(docs)} documents to {args.out}")
    return 0


def cmd_train_victim(args) -> int:
    config = _load_config(args)
    workspace, ctx = _prepare(config)
    out = Path(config.out_dir)
    (out / "splits").mkdir(parents=True, exist_ok=True)
    (out / "checkpoints").mkdir(exist_ok=True)
    ctx.vocab.to_json(out / "vocab.json")
    save_jsonl(ctx.train_docs, out / "splits" / "train.jsonl")
    save_jsonl(ctx.validation_docs, out / "splits" / "validation.jsonl")
    save_jsonl(ctx.test_docs, out / "splits" / "test.jsonl")
    save_jsonl(ctx.seed_split, out / "splits" / "seed_split.jsonl")
    meta = {
        "optimizer": config.victim_opt.kind,
        "seed": config.victim_opt.seed,
        "epochs": config.victim_opt.epochs,
    }
    save_checkpoint(ctx.theta0, out / "checkpoints" / "theta0.ckpt", meta)
    save_checkpoint(ctx.theta_f, out / "checkpoints" / "thetaf.ckpt", meta)
    metrics = evaluate(ctx.theta_f, ctx.test_docs, ctx.vocab, config.seq_len)
    print(f"victim trained: {json.dumps(metrics.to_dict())}")
    return 0


def cmd_autolabel(args) -> int:
    config = _load_config(args)
    workspace, ctx = _prepare(config)
    pool = harness.build_candidate_pool(config, ctx)
    from .corpus import encode_documents
    from .selector import autolabel

    batch = encode_documents(pool, ctx.vocab, config.seq_len)
    labels = autolabel(batch, ctx.theta_f)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if labels is None:
        save_jsonl(pool, out / "autolabeled.jsonl")
        print(f"next-token task: pool of {len(pool)} passes through unlabeled")
    else:
        save_jsonl(pool.with_labels(labels), out / "autolabeled.jsonl")
        print(f"autolabeled {len(pool)} documents -> {out / 'autolabeled.jsonl'}")
    return 0


def cmd_build_store(args) -> int:
    config = _load_config(args)
    workspace, ctx = _prepare(config)
    pool = harness.build_candidate_pool(config, ctx)
    artifacts = harness.gradient_stage(config, ctx, pool, workspace)
    target = Path(config.out_dir) / "store.selg"
    shutil.copyfile(artifacts.store.path, target)
    print(
        f"store: {artifacts.store.num_examples} examples x k={artifacts.store.k} "
        f"x P={artifacts.store.num_checkpoints} -> {target}"
    )
    return 0


def _methods_arg(config: ExperimentConfig, method: str | None) -> tuple[str, ...]:
    if method in (None, "all"):
        return config.method_list()
    return (method,)


def cmd_select(args) -> int:
    config = _load_config(args)
    workspace, ctx = _prepare(config)
    pool = harness.build_candidate_pool(config, ctx)
    artifacts = harness.gradient_stage(config, ctx, pool, workspace)
    out = Path(config.out_dir) / "selections"
    out.mkdir(parents=True, exist_ok=True)
    for method in _methods_arg(config, args.method):
        result = harness.run_selection(config, ctx, artifacts, method, workspace)
        write_selection(
            result,
            out / f"{method}.json",
            config.num_checkpoints,
            artifacts.store.k,
            [ctx.run_seed],
        )
        docs = harness.selected_documents(pool, result, artifacts.pseudolabels)
        save_jsonl(docs, out / f"{method}_docs.jsonl")
        print(f"{method}: {len(result.indices)} documents selected")
    return 0


def cmd_retrain(args) -> int:
    config = _load_config(args)
    workspace, ctx = _prepare(config)
    pool = harness.build_candidate_pool(config, ctx)
    artifacts = harness.gradient_stage(config, ctx, pool, workspace)
    out = Path(config.out_dir)
    (out / "retrained").mkdir(parents=True, exist_ok=True)
    (out / "reports").mkdir(exist_ok=True)
    for method in _methods_arg(config, args.method):
        result = harness.run_selection(config, ctx, artifacts, method, workspace)
        docs = harness.selected_documents(pool, result, artifacts.pseudolabels)
        final, _ = train(
            ctx.theta0,
            docs,
            config.retrain_opt,
            ctx.vocab,
            config.seq_len,
            ctx.validation_docs,
        )
        save_checkpoint(final, out / "retrained" / f"{method}.ckpt")
        metrics = evaluate(final, ctx.test_docs, ctx.vocab, config.seq_len)
        (out / "reports" / f"{method}_eval.json").write_text(
            json.dumps(metrics.to_dict(), sort_keys=True)
        )
        print(f"{method}: {json.dumps(metrics.to_dict())}")
    return 0


def cmd_metrics(args) -> int:
    config = _load_config(args)
    workspace, ctx = _prepare(config)
    pool = harness.build_candidate_pool(config, ctx)
    artifacts = harness.gradient_stage(config, ctx, pool, workspace)
    out = Path(config.out_dir) / "reports"
    out.mkdir(parents=True, exist_ok=True)
    for method in _methods_arg(config, args.method):
        result = harness.run_selection(config, ctx, artifacts, method, workspace)
        docs = harness.selected_documents(pool, result, artifacts.pseudolabels)
        report = harness.score_selection(config, ctx, docs, ctx.train_docs)
        (out / f"{method}.json").write_text(json.dumps(report.to_dict(), sort_keys=True))
        print(f"{method}: {json.dumps(report.to_dict())}")
    return 0


def cmd_experiment(args) -> int:
    config = _load_config(args)
    if args.kind:
        config = replace(config, experiment=args.kind)
    bundle = harness.run_experiment(config, parallel=args.parallel)
    harness.emit_reports(config, bundle)
    out = Path(config.out_dir)
    print(f"{len(bundle.rows)} rows -> {out / 'report.json'}")
    if bundle.provenance.get("errors"):
        for error in bundle.provenance["errors"]:
            print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradselect",
        description="Approximate finetuning data from two model checkpoints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-corpus", help="write a synthetic JSONL corpus")
    gen.add_argument("--kind", choices=GEN_KINDS, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--n", type=int, default=1000)
    gen.add_argument("--classes", type=int, default=4)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--useful-fraction", type=float, default=0.3)
    gen.add_argument("--topic-offset", type=int, default=0)
    gen.add_argument("--key-lo", type=int, default=3)
    gen.add_argument("--key-hi", type=int, default=6)
    gen.set_defaults(fn=cmd_gen_corpus)

    def add_common(p, with_method=False):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="override config out_dir")
        p.add_argument("--seed", type=int, default=None, help="override first seed")
        if with_method:
            p.add_argument("--method", default="all")

    for name, fn, with_method in (
        ("train-victim", cmd_train_victim, False),
        ("autolabel", cmd_autolabel, False),
        ("build-store", cmd_build_store, False),
        ("select", cmd_select, True),
        ("retrain", cmd_retrain, True),
        ("metrics", cmd_metrics, True),
    ):
        p = sub.add_parser(name)
        add_common(p, with_method)
        p.set_defaults(fn=fn)

    exp = sub.add_parser("experiment", help="run a full experiment grid")
    exp.add_argument("kind", nargs="?", default=None, choices=(None, *harness.EXPERIMENT_KINDS))
    add_common(exp)
    exp.add_argument("--parallel", type=int, default=1, help="seed jobs run at once")
    exp.set_defaults(fn=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
