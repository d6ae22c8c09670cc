"""Command-line entry points.

The stage commands (train-victim, autolabel, build-store, select, retrain,
metrics) are the steps of one chain on the config's first seed: prepare_run
(split, vocabulary, victim), build_candidate_pool, autolabel, gradient_stage
(store), select_methods, then retraining or scoring the selections. The chain
autolabels the pool only to build the store; later commands read the
pseudolabels from its aux block. One function, ``cmd_stage``, runs the chain
up to the named stage and writes that stage's artifacts under the config's
out_dir. Run in sequence, each command re-runs the prefix before it, which the
content-addressed cache turns into reads of the victim, store, selections and
retrained models that earlier commands wrote: ``train-victim`` and ``retrain``
copy the cached checkpoints out, one file per model with its meta in the
header, and ``metrics`` reads its metrics instead of training again.

The selection stages share ``harness.select_methods`` with the experiment
runner, so a method is selected, retrained and scored as a runner cell does
it: ``expert`` selects nothing (``select`` writes no file for it), and
``retrain`` and ``metrics`` train and score it on the training set. The
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

from . import harness, toycorpus
from .corpus import save_jsonl
from .harness import ExperimentConfig, Workspace
from .model import evaluate
from .selector import write_selection

GEN_KINDS = ("classification", "pool", "lm", "lm_pool")
# The stage commands, in chain order.
STAGE_COMMANDS = ("train-victim", "autolabel", "build-store", "select", "retrain", "metrics")


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json(args.config)
    if args.out:
        config = replace(config, out_dir=args.out)
    if args.seed is not None:
        config = replace(config, seeds=(args.seed, *config.seeds[1:]))
    return config


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


def _methods_arg(config: ExperimentConfig, method: str | None) -> tuple[str, ...]:
    if method in (None, "all"):
        return config.method_list()
    return (method,)


def cmd_stage(args) -> int:
    """Run the chain up to the stage ``args.command`` names and write that stage's artifacts."""
    config = _load_config(args)
    stage = args.command
    out = Path(config.out_dir)
    workspace = Workspace(config.out_dir)
    ctx = harness.prepare_run(config, config.seeds[0], workspace)
    if stage == "train-victim":
        (out / "splits").mkdir(exist_ok=True)
        (out / "checkpoints").mkdir(exist_ok=True)
        ctx.vocab.to_json(out / "vocab.json")
        save_jsonl(ctx.train_docs, out / "splits" / "train.jsonl")
        save_jsonl(ctx.validation_docs, out / "splits" / "validation.jsonl")
        save_jsonl(ctx.test_docs, out / "splits" / "test.jsonl")
        save_jsonl(ctx.seed_split, out / "splits" / "seed_split.jsonl")
        for name in ("theta0", "thetaf"):
            cached = workspace.victim_checkpoint(ctx.victim_key, name)
            shutil.copyfile(cached, out / "checkpoints" / f"{name}.ckpt")
        metrics = evaluate(ctx.theta_f, ctx.test_docs, ctx.vocab, config.seq_len)
        print(f"victim trained: {json.dumps(metrics.to_dict())}")
        return 0
    pool = harness.build_candidate_pool(config, ctx)
    if stage == "autolabel":
        _, labels = harness.autolabel_pool(config, ctx, pool)
        if labels is None:
            save_jsonl(pool, out / "autolabeled.jsonl")
            print(f"next-token task: pool of {len(pool)} passes through unlabeled")
        else:
            save_jsonl(pool.with_labels(labels), out / "autolabeled.jsonl")
            print(f"autolabeled {len(pool)} documents -> {out / 'autolabeled.jsonl'}")
        return 0
    artifacts = harness.gradient_stage(config, ctx, pool, workspace)
    store = artifacts.store
    if stage == "build-store":
        shutil.copyfile(store.path, out / "store.selg")
        print(
            f"store: {store.num_examples} examples x k={config.projection_dim} "
            f"(stored width {store.k}) x P={store.num_checkpoints} -> {out / 'store.selg'}"
        )
        return 0
    subdirs = {"select": ["selections"], "retrain": ["retrained", "reports"], "metrics": ["reports"]}
    for sub in subdirs[stage]:
        (out / sub).mkdir(exist_ok=True)
    methods = _methods_arg(config, args.method)
    chosen = harness.select_methods(config, ctx, pool, artifacts, methods, workspace)
    if stage == "select":
        for method, docs, result in chosen:
            if result is None:
                print(f"{method}: no selection (retrain and metrics use the training set)")
                continue
            path = out / "selections" / f"{method}.json"
            write_selection(
                result, path, config.num_checkpoints, config.projection_dim, [ctx.run_seed]
            )
            save_jsonl(docs, out / "selections" / f"{method}_docs.jsonl")
            print(f"{method}: {len(result.indices)} documents selected")
        return 0
    # Every method selects first, so the retrains run in lockstep.
    retrained = harness.retrain_selections(config, ctx, [docs for _, docs, _ in chosen], workspace)
    reference = harness.Reference(ctx.train_docs) if stage == "metrics" else None
    for (method, docs, _), (cached, metrics) in zip(chosen, retrained):
        if stage == "retrain":
            shutil.copyfile(cached, out / "retrained" / f"{method}.ckpt")
            report = json.dumps(metrics.to_dict(), sort_keys=True)
            (out / "reports" / f"{method}_eval.json").write_text(report)
        else:
            scored = harness.score_selection(config, ctx, docs, reference, metrics)
            report = json.dumps(scored.to_dict(), sort_keys=True)
            (out / "reports" / f"{method}.json").write_text(report)
        print(f"{method}: {report}")
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

    for name in STAGE_COMMANDS:
        p = sub.add_parser(name)
        add_common(p, with_method=name in ("select", "retrain", "metrics"))
        p.set_defaults(fn=cmd_stage)

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
