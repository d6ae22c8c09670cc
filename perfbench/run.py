"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cls_pipeline --seed 0 --seconds 5 --trace 0

Run from the root of a checkout. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``). Every
metric is also printed by name with its unit above it. The full record, with
the machine description, goes to ``.bench_out/`` and, for a traced run, the
spans too. The exit code is 1 when an output check failed and 2 when the
checkout has no gradselect sources to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "cell_s": "s",
    "rerun_s": "s",
    "peak_rss_mb": "MB",
    "select_objective": "score",
}

PER_LAYER = {
    "harness.cell_s": "s",
    "harness.prepare_run_s": "s",
    "harness.gradient_stage_s": "s",
    "harness.run_selection_s": "s",
    "harness.score_selection_s": "s",
    "harness.self_s": "s",
    "harness.cache_misses": "count",
    "harness.cache_bytes": "bytes",
    "corpus.load_jsonl_s": "s",
    "corpus.encode_documents_s": "s",
    "corpus.encode_calls": "count",
    "corpus.build_vocab_s": "s",
    "corpus.self_s": "s",
    "model.victim_train_s": "s",
    "model.victim_examples_per_s": "1/s",
    "model.retrain_s": "s",
    "model.retrain_examples_per_s": "1/s",
    "model.evaluate_s": "s",
    "model.self_s": "s",
    "gradstore.build_store_s": "s",
    "gradstore.build_rows_per_s": "1/s",
    "gradstore.store_bytes": "bytes",
    "gradstore.open_s": "s",
    "gradstore.direction_s": "s",
    "gradstore.self_s": "s",
    "selector.autolabel_s": "s",
    "selector.select_greedy_s": "s",
    "selector.select_greedy_step_ms": "ms",
    "selector.select_batch_s": "s",
    "selector.select_batch_step_ms": "ms",
    "selector.select_baseline_s": "s",
    "selector.scan_GBps": "GB/s",
    "selector.scan_bw_frac": "fraction",
    "selector.self_s": "s",
    "metrics.retrain_and_eval_self_s": "s",
    "metrics.embed_s": "s",
    "metrics.ot_distance_s": "s",
    "metrics.vocab_containment_s": "s",
    "metrics.self_s": "s",
    "tracing_overhead_s": "s",
    "machine.triad_GBps": "GB/s",
}

LAYERS = ("harness", "corpus", "model", "gradstore", "selector", "metrics")

# Calls that must not happen on a filled cache.
CACHED_WORK = (
    "gradstore.build_store",
    "selector.select_greedy",
    "selector.select_batch",
    "selector.select_baseline",
)

# Layer self times must add up to the traced cell time within this many
# seconds; the spans nest strictly, so only float rounding separates them.
SELF_TIME_TOL_S = 1e-3


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(outcome) -> dict[str, float]:
    return {
        "setup_s": _median(outcome.setup_s),
        "cell_s": outcome.cell_s,
        "rerun_s": _median(outcome.rerun_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "select_objective": outcome.quality.get("select_objective", 0.0),
    }


def per_layer(outcome, triad_gbps: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the traced cold job and traced reruns.

    Times are summed over the spans of the cold job. ``gradstore.open_s`` is
    the median over traced reruns, where the store is opened, not built,
    and ``harness.cache_misses`` counts cached work redone in traced reruns.
    Returns the metrics and any broken self-time identity.
    """
    tracer = outcome.tracer
    cell = tracer.descendants(outcome.cell_root)
    selfs = tracer.self_times()

    def total(name: str, site: str | None = None) -> float:
        return sum(s.duration for s in cell if s.name == name and site in (None, s.site))

    def attr(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in cell if s.name == name)

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in cell:
        layer = s.name.split(".")[0]
        # The root is the benchmark's call into harness, so its self time
        # (microseconds) belongs to harness.
        layer_self[layer if layer in layer_self else "harness"] += selfs[s.id]
    rerun = [tracer.descendants(r) for r in outcome.rerun_roots]
    open_s = [sum(s.duration for s in spans if s.name == "gradstore.open") for spans in rerun]
    misses = sum(
        1
        for spans in rerun
        for s in spans
        if s.name in CACHED_WORK or (s.name == "model.train" and s.site == "harness.train")
    )
    victim_s = total("model.train", "harness.train")
    retrain_s = total("model.train", "metrics.train")
    build_s = total("gradstore.build_store")
    greedy_s = total("selector.select_greedy")
    batch_s = total("selector.select_batch")
    scan_gbps = rate(attr("selector.select_greedy", "scan_bytes") / 1e9, greedy_s)
    cell_s = tracer.spans[outcome.cell_root].duration
    metrics = {
        "harness.cell_s": cell_s,
        "harness.prepare_run_s": total("harness.prepare_run"),
        "harness.gradient_stage_s": total("harness.gradient_stage"),
        "harness.run_selection_s": total("harness.run_selection"),
        "harness.score_selection_s": total("harness.score_selection"),
        "harness.self_s": layer_self["harness"],
        "harness.cache_misses": misses,
        "harness.cache_bytes": outcome.cache_bytes,
        "corpus.load_jsonl_s": total("corpus.load_jsonl"),
        "corpus.encode_documents_s": total("corpus.encode_documents"),
        "corpus.encode_calls": sum(1 for s in cell if s.name == "corpus.encode_documents"),
        "corpus.build_vocab_s": total("corpus.build_vocab"),
        "corpus.self_s": layer_self["corpus"],
        "model.victim_train_s": victim_s,
        "model.victim_examples_per_s": rate(
            sum(s.attrs.get("examples", 0) for s in cell if s.site == "harness.train"), victim_s
        ),
        "model.retrain_s": retrain_s,
        "model.retrain_examples_per_s": rate(
            sum(s.attrs.get("examples", 0) for s in cell if s.site == "metrics.train"), retrain_s
        ),
        "model.evaluate_s": total("model.evaluate"),
        "model.self_s": layer_self["model"],
        "gradstore.build_store_s": build_s,
        "gradstore.build_rows_per_s": rate(attr("gradstore.build_store", "rows"), build_s),
        "gradstore.store_bytes": attr("gradstore.build_store", "bytes"),
        "gradstore.open_s": _median(open_s),
        "gradstore.direction_s": total("gradstore.direction"),
        "gradstore.self_s": layer_self["gradstore"],
        "selector.autolabel_s": total("selector.autolabel"),
        "selector.select_greedy_s": greedy_s,
        "selector.select_greedy_step_ms": rate(1e3 * greedy_s, attr("selector.select_greedy", "steps")),
        "selector.select_batch_s": batch_s,
        "selector.select_batch_step_ms": rate(1e3 * batch_s, attr("selector.select_batch", "steps")),
        "selector.select_baseline_s": total("selector.select_baseline"),
        "selector.scan_GBps": scan_gbps,
        "selector.scan_bw_frac": rate(scan_gbps, triad_gbps),
        "selector.self_s": layer_self["selector"],
        "metrics.retrain_and_eval_self_s": sum(
            selfs[s.id] for s in cell if s.name == "metrics.retrain_and_eval"
        ),
        "metrics.embed_s": total("metrics.embed"),
        "metrics.ot_distance_s": total("metrics.ot_distance"),
        "metrics.vocab_containment_s": total("metrics.vocab_containment"),
        "metrics.self_s": layer_self["metrics"],
        "tracing_overhead_s": _median(outcome.traced_rerun_s)
        - _median(outcome.rerun_s),
        "machine.triad_GBps": triad_gbps,
    }
    broken = []
    gap = abs(sum(layer_self.values()) - cell_s)
    if gap > SELF_TIME_TOL_S:
        broken.append(f"layer self times miss the traced cell time by {gap:.6f} s")
    return metrics, broken


def _cap_blas_threads() -> None:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        wanted = min(int(current), cores) if current.isdigit() and int(current) > 0 else cores
        os.environ[var] = str(wanted)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0, help="length of the warm phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gradselect" / "__init__.py").is_file():
        print(f"no gradselect sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import machine, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    load_before = os.getloadavg()[0]
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        outcome = workloads.execute(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir
        )
        # Measured after the timed work so the triad's arrays cannot disturb it.
        host = machine.record(ROOT)
        if args.trace:
            values, broken = per_layer(outcome, host["triad_GBps"])
            units = PER_LAYER
        else:
            values, broken = end_to_end(outcome), []
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    host["loadavg_1m_before"] = load_before
    host["loadavg_1m_after"] = os.getloadavg()[0]

    failures = outcome.failures + broken
    result = {
        "correct": not failures,
        # A traced run also checks the self-time identity once.
        "attempted": outcome.attempted + args.trace,
        "failed": outcome.failed + len(broken),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "result": result,
        "error_rate": result["failed"] / result["attempted"],
        "failures": failures,
        "quality": outcome.quality,
        "samples": {"setup_s": outcome.setup_s, "rerun_s": outcome.rerun_s, "traced_rerun_s": outcome.traced_rerun_s},
        "machine": host,
    }
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if outcome.tracer is not None:
        outcome.tracer.write(OUT_DIR / f"spans-{stem}.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'error_rate':34s} {record['error_rate']:14.6g} fraction ({result['failed']}/{result['attempted']})")
    for name, value in sorted(outcome.quality.items()):
        print(f"  {name:34s} {value:14.6g}")
    print(
        f"  machine: sha {host['git_sha']}  nproc {host['nproc']}  python {host['python']}"
        f"  numpy {host['numpy']}  scipy {host['scipy']}  {host['blas']} x{host['blas_threads']}"
        f"  load {load_before:.2f}->{host['loadavg_1m_after']:.2f}"
        f"  triad {host['triad_GBps']:.2f} GB/s on 3 x {host['triad_array_bytes'] >> 20} MiB"
        f" (LLC {host['llc_bytes'] >> 20} MiB, {host['llc_source']})"
    )
    for failure in failures:
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
