"""The repository's benchmark: workloads, layer tracing and the runner (run.py)."""
