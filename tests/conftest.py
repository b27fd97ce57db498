"""Shared fixtures: the kernels and damping bounds used across the suite,
and one run of the benchmark's 600 calls."""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from memspec import DampingBound, ExponentialKernel, enclosure, scalar
from memspec.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def k_one():
    """One-term kernel with unit amplitude and unit decay rate."""
    return ExponentialKernel((1.0,), (1.0,))


@pytest.fixture
def k_wave():
    """One-term kernel used by the constant-damping worked example."""
    return ExponentialKernel((0.9,), (0.5,))


@pytest.fixture
def k_two():
    """Two-term kernel used by the two-interval essential spectrum example."""
    return ExponentialKernel((1.0, 0.2), (1.0, 1.5))


@pytest.fixture
def d_graded():
    return DampingBound(0.5, 0.75)


@pytest.fixture
def d_half():
    return DampingBound(0.5, 0.5)


def _perfbench():
    """The modules ``workloads`` and ``oracles``, imported from perfbench/
    with no bytecode written, so nothing is written under ``perfbench/``."""
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(PERFBENCH))
    try:
        import oracles
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = written
    return workloads, oracles


@pytest.fixture(scope="session")
def benchmark_run(tmp_path_factory):
    """{call: (failure kind, problems)} of the benchmark's 600 calls (the
    three workloads of ``perfbench/workloads.py`` at seeds 1-5), run through
    ``memspec.cli.main`` and judged by ``perfbench/oracles.judge``; the
    passes of every mode-root solve they make; and each solve's kernel and
    roots."""
    workloads, oracles = _perfbench()
    solve, step = scalar.mode_spectra, scalar._gap_step
    passes, solves = [], []

    def counted_solve(k, *args):
        passes.append(0)
        result = solve(k, *args)
        solves.append((k, result[0]))
        return result

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
    return verdicts, passes, solves
