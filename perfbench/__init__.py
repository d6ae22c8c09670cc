"""Benchmark for gradselect: three batch workloads, end-to-end and per-layer metrics."""
