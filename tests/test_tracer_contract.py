"""The benchmark tracer's view of a cell's retraining stays true under lockstep.

``perfbench.tracer`` counts a ``metrics.train`` span as ``len(args[1]) * epochs``
examples, so ``retrain_and_eval`` must hand every stacked model's documents to
``train`` as its second positional argument.
"""

from gradselect.harness import Workspace, run_pipeline
from perfbench import workloads
from perfbench.tracer import Tracer


def test_retrain_spans_count_every_model(tmp_path):
    workloads._write_corpora("cls", 0, workloads.TINY, tmp_path)
    config = workloads._config("cls", 0, workloads.TINY, tmp_path)
    tracer = Tracer("contract")
    with tracer:
        bundle = run_pipeline(config)
    assert not bundle.provenance["errors"]
    spans = [s for s in tracer.spans if s.name == "model.train" and s.site == "metrics.train"]
    models = len(list(Workspace(config.out_dir).cache_dir.glob("retrain-*.ckpt")))
    assert models >= 2
    # The cell's selections all have M documents, so they train in one call.
    assert len(spans) == 1
    examples = sum(s.attrs["examples"] for s in spans)
    assert examples == models * config.selection_size * config.retrain_opt.epochs
