"""Training-data approximation from weight diffs via gradient-aligned selection.

Given the initial and final checkpoints of a finetuned model, the toolkit
autolabels a public seed corpus with the final model, sketches per-example
last-layer gradients, greedily selects documents whose summed gradient steps
point along the weight diff, and measures how well the selection stands in
for the hidden training data.
"""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    Document,
    DocumentSet,
    SeedPool,
    TokenBatch,
    Vocab,
    build_vocab,
    encode_documents,
    load_jsonl,
    mix_leakage,
    save_jsonl,
    split,
)
from .gradstore import (  # noqa: F401
    GradientStore,
    Projection,
    build_store,
    direction,
    project,
    scan_scores,
)
from .harness import ExperimentConfig, ReportBundle, run_experiment, run_pipeline  # noqa: F401
from .metrics import (  # noqa: F401
    EmbeddingSet,
    MetricsReport,
    OTResult,
    embed,
    ot_distance,
    retrain_and_eval,
    vocab_containment,
)
from .model import (  # noqa: F401
    EvalMetrics,
    ModelConfig,
    ModelParams,
    OptimizerConfig,
    evaluate,
    init_params,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
    train,
)
from .selector import (  # noqa: F401
    SelectionResult,
    autolabel,
    select_baseline,
    select_batch,
    select_greedy,
    synth_checkpoints,
)
