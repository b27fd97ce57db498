"""The benchmark's 600 calls in tier-1: every call passes its oracle.

The calls are those of ``perfbench/workloads.py`` (the three workloads at
seeds 1-5, anchors included), run through ``memspec.cli.main`` in this
process and judged by ``perfbench/oracles.judge``, as the benchmark runner
does.  The perfbench modules are imported without writing bytecode, so
nothing is written under ``perfbench/``.  The same run counts the passes of
each mode-root solve.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from memspec import enclosure, scalar
from memspec.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench():
    """The modules ``workloads`` and ``oracles``, imported from perfbench/
    with no bytecode written."""
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(PERFBENCH))
    try:
        import oracles
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = written
    return workloads, oracles


@pytest.fixture(scope="module")
def benchmark_run(tmp_path_factory):
    """{call: (failure kind, problems)} of the 600 calls, and the passes of
    every mode-root solve they make."""
    workloads, oracles = _perfbench()
    solve, step = scalar.mode_spectra, scalar._gap_step
    passes = []

    def counted_solve(*args):
        passes.append(0)
        return solve(*args)

    def counted_step(*args):
        passes[-1] += 1
        return step(*args)

    path = tmp_path_factory.mktemp("calls") / "call.json"
    verdicts = {}
    with pytest.MonkeyPatch.context() as patch:
        for module in (scalar, enclosure):
            patch.setattr(module, "mode_spectra", counted_solve)
        patch.setattr(scalar, "_gap_step", counted_step)
        for name, workload in workloads.WORKLOADS.items():
            for seed in range(1, 6):
                calls = workload.calls(np.random.default_rng(seed), "full")
                for i, call in enumerate(calls):
                    path.write_text(json.dumps(call.config), encoding="utf-8")
                    argv = call.argv(str(path))
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        code = main(argv)
                    verdicts[f"{name}/{seed}/{i}/{call.subcommand}"] = \
                        oracles.judge(call.subcommand, call.config, argv,
                                      code, out.getvalue(), None)
    return verdicts, passes


def test_benchmark_calls_pass_their_oracles(benchmark_run):
    verdicts, _ = benchmark_run
    assert len(verdicts) == 600
    failed = {call: v for call, v in verdicts.items() if v[0] is not None}
    assert not failed


def test_mode_roots_take_few_passes_on_benchmark_calls(benchmark_run):
    # eigs, enclosure and validate each solve mode roots
    _, passes = benchmark_run
    assert len(passes) >= 300
    assert 0 < max(passes) <= 8
