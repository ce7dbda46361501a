"""The repository benchmark's library: workloads, harness, tracing, probes, oracle."""
