#!/usr/bin/env python3
"""Cost of composite attestation: messages, latency, and fleet throughput.

Two quick experiments on one machine. Numbers vary with hardware; the
relationships (3 vs 6 messages, composite cheaper than the two-flow sum)
do not.
"""

from ccxtrust import harness

# ---------------------------------------------------------------------------
# composite vs the two-token baseline: messages and wall-clock latency
# ---------------------------------------------------------------------------

result = harness.run_comparison_experiment(5, runs=200)
print(f"composite vs two-token over {result.runs} runs "
      f"({result.elapsed_seconds:.2f}s):")
print("   composite messages  :", dict(result.composite_counts))
print("   independent messages:", dict(result.independent_counts))
print(f"   composite mean      : {result.composite_mean * 1e3:7.3f} ms")
print(f"   tee-only mean       : {result.tee_only_mean * 1e3:7.3f} ms")
print(f"   tpm-only mean       : {result.tpm_only_mean * 1e3:7.3f} ms")
print(f"   composite cheaper than the sum in "
      f"{result.fraction_composite_cheaper:.0%} of bootstrap resamples")

# ---------------------------------------------------------------------------
# a small fleet under a thread pool
# ---------------------------------------------------------------------------

bench = harness.run_bench(5, nodes=50, concurrency=8)
print()
print("fleet bench:")
print(bench.table())
