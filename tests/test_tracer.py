"""The benchmark's tracer against the package.

``perfbench/tracing.py`` wraps the functions its ``LAYERS`` name and imports
every module they sit in, with no guard, so a module removed or renamed
before the tracer follows fails here rather than in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from memspec import ExponentialKernel, ModeCoefficients, cli, scalar

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    k, m = ExponentialKernel((1.0,), (1.0,)), ModeCoefficients(2.0, 0.5)
    polynomial, eigs = scalar.cleared_mode_polynomial, cli.cmd_eigs
    tracer = tracing.Tracer()
    try:
        # a layer wrapped before a failed import is restored as well
        tracer.install()
        assert cli.cmd_eigs is not eigs
        row = scalar.cleared_mode_polynomial(k, m)
    finally:
        tracer.uninstall()
    assert np.array_equal(row, polynomial(k, m))
    assert [span[0] for span in tracer.spans] == [
        "scalar.cleared_mode_polynomial"]
    assert scalar.cleared_mode_polynomial is polynomial
    assert cli.cmd_eigs is eigs
