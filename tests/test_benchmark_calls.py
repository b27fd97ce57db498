"""The benchmark's 600 calls in tier-1: every call passes its oracle.

The calls are those of ``perfbench/workloads.py`` (the three workloads at
seeds 1-5, anchors included), run through ``memspec.cli.main`` in this
process and judged by ``perfbench/oracles.judge``, as the benchmark runner
does, by the ``benchmark_run`` fixture of ``conftest.py``.  The same run
counts the passes of each mode-root solve.
"""

import numpy as np


def test_benchmark_calls_pass_their_oracles(benchmark_run):
    verdicts, _, _ = benchmark_run
    assert len(verdicts) == 600
    failed = {call: v for call, v in verdicts.items() if v[0] is not None}
    assert not failed


def test_mode_roots_take_few_passes_on_benchmark_calls(benchmark_run):
    # eigs, enclosure and validate each solve mode roots, and discretize for
    # its containment; most gap roots stop after their first cubic step
    # that is at most 1e-6 of the offset
    _, passes, _ = benchmark_run
    assert len(passes) >= 300
    assert 0 < max(passes) <= 8
    assert np.mean(passes) <= 2.5
