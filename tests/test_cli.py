"""Command-line interface: output formats, exit codes, and determinism."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from memspec import (
    BoxDomain,
    DampingBound,
    ExponentialKernel,
    ModePencil,
    boundary_cloud,
    discretize_1d,
    enclosure,
    enumerate_modes,
    min_stiffness,
    mode_alpha,
    one_pole_region,
    scalar,
)
from memspec.enclosure import synthetic_alpha_grid
from memspec.pencil import stiffness_eigenvalues
from memspec.cli import CSV_HEADER, main
from memspec.config import parse_config

GRADED = {
    "coefficient_a": 1.0,
    "kernel": {"a": [1.0], "b": [1.0]},
    "damping": {"kind": "range", "b_min": 0.5, "b_max": 0.75},
    "domain": {"kind": "box", "lengths": [1.0, 1.0]},
}

CONSTANT = {
    "coefficient_a": 2.0,
    "kernel": {"a": [0.9], "b": [0.5]},
    "damping": {"kind": "constant", "value": 0.5},
    "domain": {"kind": "box", "lengths": [1.0, 4.0]},
}

TWO_TERM = {
    "coefficient_a": 1.0,
    "kernel": {"a": [1.0, 0.2], "b": [1.0, 1.5]},
    "damping": {"kind": "range", "b_min": 0.5, "b_max": 0.75},
    "domain": {"kind": "box", "lengths": [1.0, 1.0]},
}

FD = {
    "coefficient_a": 1.0,
    "kernel": {"a": [0.9], "b": [0.5]},
    "damping": {"kind": "profile_1d", "samples": [0.3, 0.5, 0.4]},
    "domain": {"kind": "interval_fd", "grid_points": 12},
}


FD_TWO_TERM = {
    "coefficient_a": 1.0,
    "kernel": {"a": [1.0, 0.2], "b": [1.0, 1.5]},
    "damping": {"kind": "profile_1d", "samples": [0.5, 0.75]},
    "domain": {"kind": "interval_fd", "length": 1.0, "grid_points": 100},
}


@pytest.fixture
def config(tmp_path):
    def write(doc):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        return str(path)
    return write


SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}


def run_process(argv, cwd):
    """Run the CLI in a fresh interpreter, as a console user would; a call
    that hangs fails the test after two minutes."""
    return subprocess.run(
        [sys.executable, "-m", "memspec.cli", *argv], cwd=cwd,
        capture_output=True, text=True, env=ENV, timeout=120,
    )


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_essential_json(config, capsys):
    code, out = run(capsys, ["essential", "--config", config(GRADED)])
    assert code == 0
    doc = json.loads(out)
    (lo, hi), = doc["intervals"]
    assert lo == pytest.approx(-0.5, abs=1e-12)
    assert hi == pytest.approx(-0.25, abs=1e-12)


def test_eigs_csv(config, capsys):
    code, out = run(capsys, ["eigs", "--config", config(CONSTANT),
                             "--alpha-cap", "200"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) > 1
    for line in lines[1:]:
        re_s, im_s, source, branch, residual, jordan = line.split(",")
        assert source.startswith("m=")
        assert branch in ("real", "complex-pair")
        assert float(residual) < 1e-6
        if branch == "real":
            assert jordan == "true"
            assert float(im_s) == 0.0
        else:
            assert jordan == ""
        # 12 significant digit round trip
        assert re_s == f"{float(re_s):.12g}"


def test_eigs_json(config, capsys):
    code, out = run(capsys, ["eigs", "--config", config(CONSTANT),
                             "--alpha-cap", "200", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"]["eigenvalues"] == len(doc["eigenvalues"])
    assert any(r["jordan_ok"] is True for r in doc["eigenvalues"])


def test_eigs_needs_constant_box(config, capsys):
    code, _ = run(capsys, ["eigs", "--config", config(GRADED)])
    assert code == 2
    code, _ = run(capsys, ["eigs", "--config", config(FD)])
    assert code == 2


def test_enclosure_json(config, capsys):
    code, out = run(capsys, ["enclosure", "--config", config(GRADED)])
    assert code == 0
    doc = json.loads(out)
    region = one_pole_region(ExponentialKernel((1.0,), (1.0,)),
                             DampingBound(0.5, 0.75), 2.0 * np.pi ** 2)
    assert doc["c0"] == pytest.approx(region.c0, abs=1e-12)
    assert doc["c1"] == pytest.approx(region.c1, abs=1e-12)
    assert doc["d0"] == pytest.approx(region.one_pole.d0, abs=1e-12)
    assert doc["d1"] == pytest.approx(region.one_pole.d1, abs=1e-12)
    assert doc["hat_d"] == pytest.approx(region.one_pole.hat_d, abs=1e-12)
    assert doc["counts"]["cloud"] > 0


def test_enclosure_csv_cloud(config, capsys):
    code, out = run(capsys, ["enclosure", "--config", config(CONSTANT),
                             "--alpha-cap", "100", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "re,im,alpha,beta"
    for line in lines[1:]:
        re_s, im_s, alpha_s, beta_s = line.split(",")
        assert float(beta_s) == pytest.approx(0.5 * float(alpha_s), rel=1e-9)


def test_enclosure_json_counts_the_cloud_unsolved(config, capsys):
    # counts.cloud is the solver's root count over the cloud grid, N + 2
    # per damped mode and 2 per undamped one, which is the size of the
    # cloud that boundary_cloud solves
    kernels = [([0.9], [0.5]), ([1.0, 0.2], [1.0, 1.5]),
               ([0.3, 0.2, 0.1], [0.5, 2.0, 9.0])]
    dampings = [{"kind": "constant", "value": 0.5},
                {"kind": "constant", "value": 0.0},
                {"kind": "range", "b_min": 0.0, "b_max": 0.5},
                {"kind": "range", "b_min": 0.2, "b_max": 0.6}]
    box = BoxDomain((1.0, 1.3))
    for (a, b), damping in itertools.product(kernels, dampings):
        doc = {"coefficient_a": 1.5, "kernel": {"a": a, "b": b},
               "damping": damping,
               "domain": {"kind": "box", "lengths": list(box.lengths)}}
        spec = parse_config(config(doc))
        for cap in (None, 300.0):
            flags = [] if cap is None else ["--alpha-cap", str(cap)]
            code, out = run(capsys, ["enclosure", "--config", config(doc),
                                     "--beta-samples", "4", *flags])
            assert code == 0
            alphas = (synthetic_alpha_grid(min_stiffness(1.5, box))
                      if cap is None else
                      mode_alpha(1.5, box, enumerate_modes(1.5, box, cap)))
            cloud = boundary_cloud(spec.kernel, spec.damping.bounds(),
                                   alphas, 4)
            assert json.loads(out)["counts"]["cloud"] == len(cloud)


def test_enclosure_json_solves_no_cloud(config, capsys, monkeypatch):
    # the JSON document reads only [c0, c1] and the strips: one mode solve
    calls = []
    solve = scalar.mode_spectra

    def counted(*args):
        calls.append(1)
        return solve(*args)

    def refused(*args):
        raise AssertionError("the cloud was solved")

    for module in (scalar, enclosure):
        monkeypatch.setattr(module, "mode_spectra", counted)
    monkeypatch.setattr(enclosure, "boundary_cloud", refused)
    for doc in (GRADED, TWO_TERM, CONSTANT):
        calls.clear()
        code, _ = run(capsys, ["enclosure", "--config", config(doc)])
        assert code == 0
        assert len(calls) == 1


def test_enclosure_csv_solves_only_the_cloud(config, capsys, monkeypatch):
    # the CSV table prints the cloud alone: one mode solve, and no branch
    # zero, [c0, c1] or strip behind it, on stdout or on stderr
    argv = ["enclosure", "--format", "csv", "--config"]
    docs = (GRADED, TWO_TERM, CONSTANT)
    want = [run(capsys, argv + [config(doc)]) for doc in docs]
    calls = []
    solve = scalar.mode_spectra

    def counted(*args):
        calls.append(1)
        return solve(*args)

    def refused(*args):
        raise AssertionError("the CSV cloud solved more than the cloud")

    for module in (scalar, enclosure):
        monkeypatch.setattr(module, "mode_spectra", counted)
        monkeypatch.setattr(module, "fredholm_factor_zeros", refused)
    for name in ("enclosure_interval", "one_pole_region"):
        monkeypatch.setattr(enclosure, name, refused)
    for doc, (code, out) in zip(docs, want):
        calls.clear()
        assert code == 0
        assert run(capsys, argv + [config(doc)]) == (0, out)
        assert len(calls) == 1


def test_discretize_csv(config, capsys):
    code, out = run(capsys, ["discretize", "--config", config(FD)])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    tail = [line for line in lines if line.startswith("#")]
    assert any(line.startswith("# inside=") for line in tail)
    assert "# outside=0" in tail


def test_discretize_two_term_all_inside(config, capsys):
    # every FD eigenvalue solves a mode symbol whose Rayleigh quotients
    # satisfy alpha >= w_min and b_min <= beta / alpha <= b_max, so the
    # exact membership test passes all of them, with no slack as well; a
    # profile that vanishes on part of the interval makes A_b singular.  A
    # one-term kernel on a long interval has a small w_min, where the
    # strips of 'enclosure' do not exist; containment does not need them
    undamped_part = json.loads(_with(FD_TWO_TERM, domain__grid_points=60,
                                     damping__samples=[0.0, 0.0, 0.0, 0.6]))
    one_term_long = json.loads(_with(FD_TWO_TERM, kernel__a=[1.0],
                                     kernel__b=[1.0], domain__length=5.0,
                                     domain__grid_points=60))
    for doc, flags in ((FD_TWO_TERM, []), (FD_TWO_TERM, ["--tolerance", "0"]),
                       (undamped_part, []), (one_term_long, [])):
        code, out = run(capsys, ["discretize", "--config", config(doc),
                                 *flags])
        assert code == 0
        tail = [line for line in out.splitlines() if line.startswith("#")]
        assert tail[1:] == ["# outside=0", "# max_violation=0"]
        assert int(tail[0].split("=")[1]) > 50


UNDAMPED_BOX = {
    "coefficient_a": 1.3,
    "kernel": {"a": [0.3, 0.2, 0.1], "b": [0.5, 2.0, 9.0]},
    "damping": {"kind": "constant", "value": 0.0},
    "domain": {"kind": "box", "lengths": [1.0, 1.7, 0.6]},
}

UNDAMPED_GRID = {
    "coefficient_a": 1.0,
    "kernel": {"a": [1.0, 0.2], "b": [1.0, 1.5]},
    "damping": {"kind": "profile_1d", "samples": [0.0, 0.0]},
    "domain": {"kind": "interval_fd", "length": 1.0, "grid_points": 200},
}


@pytest.mark.parametrize("command, doc, imag_cap, bound", [
    ("eigs", UNDAMPED_BOX, "60", scalar.RESIDUAL_TOL),
    ("discretize", UNDAMPED_GRID, "1e9",
     1e-6 * discretize_1d(1.0, np.zeros(200), 200)[0].norm_inf()),
])
def test_undamped_rows_are_imaginary(config, capsys, command, doc, imag_cap,
                                     bound):
    # at beta = 0 every eigenvalue is +-i sqrt(alpha) of a mode or of the
    # stencil, so every printed real part is 0, not polish noise
    code, out = run(capsys, [command, "--config", config(doc),
                             "--imag-cap", imag_cap])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]
            if not line.startswith("#")]
    assert len(rows) > 300
    assert {row[0] for row in rows} == {"0"}
    assert max(float(row[4]) for row in rows) <= bound


def test_discretize_needs_fd_domain(config, capsys):
    code, _ = run(capsys, ["discretize", "--config", config(GRADED)])
    assert code == 2


def test_validate_passes(config, capsys):
    code, out = run(capsys, ["validate", "--config", config(GRADED)])
    assert code == 0
    assert "PASS conjugate_symmetry" in out
    assert "PASS essential_in_interval" in out
    assert "FAIL" not in out


# a box side of 1e10 gives w_min = pi^2 / 1e20, whose mode roots include
# complex pairs with |Im| near 2e-10, below the snap floor REAL_SNAP
TINY_W_MIN = {**GRADED, "domain": {"kind": "box", "lengths": [1e10]}}


def test_validate_keeps_tiny_complex_pairs(config, capsys):
    code, out = run(capsys, ["validate", "--config", config(TINY_W_MIN)])
    assert code == 0
    assert "FAIL" not in out
    assert "PASS char_poly_identity" in out


def test_enclosure_refuses_tiny_w_min_strips(config, capsys):
    # the pairs solve; the closed-form strips then have no height
    code = main(["enclosure", "--config", config(TINY_W_MIN)])
    err = capsys.readouterr().err
    assert code == 2
    assert "strip height radicand" in err


def test_enclosure_csv_builds_no_strips(config, capsys):
    # on a 10 x 10 box the one-term strips have no height; the cloud reads
    # neither them nor [c0, c1], so CSV prints it, and JSON, which prints
    # hat_d, refuses
    path = config({**GRADED, "domain": {"kind": "box",
                                        "lengths": [10.0, 10.0]}})
    code, out = run(capsys, ["enclosure", "--config", path, "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "re,im,alpha,beta" and len(lines) > 1
    assert all(len(line.split(",")) == 4 for line in lines[1:])
    code = main(["enclosure", "--config", path])
    assert code == 2
    assert "strip height radicand" in capsys.readouterr().err


@pytest.mark.parametrize("side", [1e24, 1e60, 1e150])
def test_tiny_w_min_boxes_solve(config, capsys, side):
    # box sides whose w_min is below LAPACK's absolute accuracy: validate
    # passes every check; enclosure solves the two-term cloud, and refuses
    # the one-term strips as on TINY_W_MIN
    box = {"kind": "box", "lengths": [side]}
    code, out = run(capsys, ["validate", "--config",
                             config({**GRADED, "domain": box})])
    assert code == 0
    assert "FAIL" not in out and out.count("PASS") == 7
    code, _ = run(capsys, ["enclosure", "--config",
                           config({**TWO_TERM, "domain": box})])
    assert code == 0
    code = main(["enclosure", "--config", config({**GRADED, "domain": box})])
    assert code == 2
    assert "strip height radicand" in capsys.readouterr().err


def test_validate_solves_modes_once(config, capsys, monkeypatch):
    # the validation modes and the w_min modes of [c0, c1] in one solve
    calls = []
    solve = scalar.mode_spectra

    def counted(*args):
        calls.append(1)
        return solve(*args)

    for module in (scalar, enclosure):
        monkeypatch.setattr(module, "mode_spectra", counted)
    for doc in (TWO_TERM, CONSTANT):
        calls.clear()
        code, _ = run(capsys, ["validate", "--config", config(doc)])
        assert code == 0
        assert len(calls) == 1


def test_validate_two_term_kernel(config, capsys):
    # the paper's two-term example; det P(-b_j) is small here because the
    # rates 1 and 1.5 are close, which the exact identity allows for
    code, out = run(capsys, ["validate", "--config", config(TWO_TERM)])
    assert code == 0
    assert "PASS pole_exclusion" in out
    assert "PASS branch_monotonicity" in out


def test_validate_char_poly_near_a_root(config, capsys, monkeypatch):
    # a draw lands so near a root that |p(lam)| falls far below the
    # rounding of p itself; the identity holds on the scale
    # sum_k |c_k| |lam|^k at which p(lam) is evaluated
    doc = {"coefficient_a": 100.0,
           "kernel": {"a": [0.1] * 8, "b": [0.25 * j for j in range(1, 9)]},
           "damping": {"kind": "range", "b_min": 0.3125, "b_max": 0.625},
           "domain": {"kind": "box", "lengths": [0.2]}}
    draws, residual = [], ModePencil.equivalence_residual

    def recorded(self, lam):
        draws.append((self.alpha, self.beta, lam))
        return residual(self, lam)

    monkeypatch.setattr(ModePencil, "equivalence_residual", recorded)
    code, out = run(capsys, ["validate", "--config", config(doc)])
    assert code == 0, out
    assert "PASS char_poly_identity" in out
    # the premise: the closest of the 40 seeded draws has |p(lam)| / scale
    # 1.8e-6; another stream of draws could pass with no draw near a root
    (alpha, beta, lam), = draws
    coeffs = scalar.cleared_mode_polynomial(
        ExponentialKernel(doc["kernel"]["a"], doc["kernel"]["b"]),
        scalar.ModeCoefficients(alpha, beta)).T[::-1]
    assert np.min(np.abs(np.polyval(coeffs, lam))
                  / np.polyval(np.abs(coeffs), np.abs(lam))) < 1e-5


@pytest.mark.parametrize("method, entry, failing", [
    ("block_function", (0, 1), {"equivalence_residuals", "pole_exclusion"}),
    ("system_operator", (1, 0), {"char_poly_identity"}),
    ("linearization", (0, 1), {"equivalence_residuals"}),
])
def test_validate_reports_spoiled_identity(config, capsys, monkeypatch,
                                           method, entry, failing):
    # one realization entry off by 1e-6 relative breaks the identities that
    # read it (the padded block function holds the block function)
    original = getattr(ModePencil, method)

    def spoiled(self, *args):
        big = original(self, *args)
        big[(...,) + entry] *= 1.0 + 1e-6
        return big

    monkeypatch.setattr(ModePencil, method, spoiled)
    code, out = run(capsys, ["validate", "--config", config(TWO_TERM)])
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert {line.split()[1].rstrip(":") for line in fails} == failing
    assert all("worst discrepancy / bound" in line for line in fails)


def test_sweep_validation(config, capsys):
    # --sweep sets only the density of validate's monotonicity scan
    code, out = run(capsys, ["validate", "--config", config(GRADED),
                             "--sweep", "2"])
    assert code == 0
    assert "PASS branch_monotonicity" in out
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", config(GRADED), "--sweep", "1"])
    assert exc.value.code == 2
    assert "--sweep" in capsys.readouterr().err


def _with(doc, **fields):
    """Copy of ``doc`` with top-level and dotted fields replaced."""
    doc = json.loads(json.dumps(doc))
    for dotted, value in fields.items():
        node = doc
        *parents, leaf = dotted.split("__")
        for key in parents:
            node = node[key]
        node[leaf] = value
    return json.dumps(doc)


BAD_INPUTS = {
    "sweep-1": (["validate", "--sweep", "1"], json.dumps(GRADED), 2,
                "--sweep"),
    "beta-samples-0": (["enclosure", "--format", "csv", "--beta-samples",
                        "0"], json.dumps(GRADED), 2, "--beta-samples"),
    "imag-cap-negative": (["eigs", "--imag-cap", "-1"],
                          json.dumps(CONSTANT), 2, "--imag-cap"),
    "imag-cap-nan": (["eigs", "--imag-cap", "nan"], json.dumps(CONSTANT), 2,
                     "--imag-cap"),
    "alpha-cap-inf": (["eigs", "--alpha-cap", "inf"], json.dumps(CONSTANT),
                      2, "--alpha-cap"),
    "alpha-cap-below-ground": (["eigs", "--alpha-cap", "1"],
                               json.dumps(CONSTANT), 2, "--alpha-cap"),
    # box-mode enumerations of 2.4e7, 5.5e11 and 1.5e10 index tuples are
    # refused before any tuple is walked
    "imag-cap-huge": (["eigs", "--imag-cap", "1e4"], json.dumps(CONSTANT),
                      2, "--imag-cap"),
    "alpha-cap-huge": (["enclosure", "--alpha-cap", "1.2e8"],
                       json.dumps(CONSTANT), 2, "--alpha-cap"),
    "lengths-huge-eigs": (["eigs"], _with(CONSTANT, coefficient_a=1.0,
                                          domain__lengths=[1e4, 1e4, 1.0]),
                          2, "domain.lengths"),
    "lengths-huge-validate": (["validate"],
                              _with(GRADED, domain__lengths=[1e4, 1e4, 1.0]),
                              2, "domain.lengths"),
    "sweep-huge": (["validate", "--sweep", "10001"], json.dumps(GRADED), 2,
                   "--sweep"),
    "coefficient-bool": (["essential"], _with(GRADED, coefficient_a=True), 2,
                         "coefficient_a"),
    "kernel-string": (["essential"], _with(GRADED, kernel__a=["1.0"]), 2,
                      "kernel.a"),
    "side-overflow": (["enclosure"],
                      json.dumps(GRADED).replace("[1.0, 1.0]", "[1e309, 1]"),
                      2, "domain.lengths"),
    "profile-b-min-text": (["discretize"],
                           _with(FD, damping__b_min="low"), 2,
                           "damping.b_min"),
    "validate-undamped": (["validate"], _with(CONSTANT, damping__value=0.0),
                          0, ""),
    # each subcommand takes only the formats it can write
    "format-discretize-json": (["discretize", "--format", "json"],
                               json.dumps(FD), 2, "--format"),
    "format-essential-csv": (["essential", "--format", "csv"],
                             json.dumps(GRADED), 2, "--format"),
    "format-validate": (["validate", "--format", "json"], json.dumps(GRADED),
                        2, "--format"),
    "output-directory": (["essential", "--output", "."], json.dumps(GRADED),
                         2, "--output"),
    # stiffness scales a (pi / l)^2 and a / h^2 beyond 1e150 can overflow
    # the mode solves, and a zero one has underflowed
    "stiffness-fd-validate": (["validate"], _with(
        GRADED, domain={"kind": "interval_fd", "length": 1e-200,
                        "grid_points": 3}), 2, "domain.length"),
    "stiffness-fd-discretize": (["discretize"], _with(
        GRADED, damping={"kind": "profile_1d", "samples": [0.5, 0.75]},
        domain={"kind": "interval_fd", "length": 1e-160,
                "grid_points": 10}), 2, "domain.length"),
    "stiffness-box-enclosure": (["enclosure"],
                                _with(GRADED, domain__lengths=[1e-200]), 2,
                                "domain.lengths"),
    "stiffness-box-eigs": (["eigs"], _with(GRADED, domain__lengths=[1e-200]),
                           2, "domain.lengths"),
    "stiffness-box-validate": (["validate"],
                               _with(GRADED, domain__lengths=[1e-200]), 2,
                               "domain.lengths"),
    "stiffness-box-finite-enclosure": (["enclosure"], _with(
        GRADED, domain__lengths=[3e-154]), 2, "domain.lengths"),
    "stiffness-box-overflow-eigs": (["eigs"], _with(
        CONSTANT, domain__lengths=[1e-120]), 2, "domain.lengths"),
    "stiffness-box-underflow": (["validate"],
                                _with(GRADED, domain__lengths=[1e200]), 2,
                                "domain.lengths"),
    "grid-points-overflow": (["validate"],
                             _with(FD, domain__grid_points=10 ** 400), 2,
                             "domain.grid_points"),
    # clouds above enclosure.MAX_CLOUD_MODES modes are refused before any
    # mode is built (64 x 1e5 and 764 x 1e3 here)
    "beta-samples-huge": (["enclosure", "--beta-samples", "100000"],
                          json.dumps(GRADED), 2, "--beta-samples"),
    "cloud-alpha-cap-huge": (["enclosure", "--alpha-cap", "1e4",
                              "--beta-samples", "1000"],
                             json.dumps(GRADED), 2,
                             "--beta-samples or --alpha-cap"),
    "output-missing-parent": (["eigs", "--output", "none/out.csv"],
                              json.dumps(CONSTANT), 2, "--output"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_refused(case, tmp_path):
    argv, text, want_code, field = BAD_INPUTS[case]
    (tmp_path / "problem.json").write_text(text)
    proc = run_process([*argv, "--config", "problem.json"], tmp_path)
    assert proc.returncode == want_code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    assert field in proc.stderr


@pytest.mark.parametrize("command", ["essential", "eigs", "enclosure",
                                     "discretize", "validate"])
def test_huge_kernel_rate_refused(command, tmp_path):
    # rate 1e103 overflowed the mode solve's residual scale, 2 b^3, with a
    # RuntimeWarning before the exit 1; every subcommand now refuses it
    doc = _with(CONSTANT, coefficient_a=1.0, kernel__a=[1e-3],
                kernel__b=[1e103], domain__lengths=[1.0, 1.0])
    (tmp_path / "problem.json").write_text(doc)
    proc = run_process([command, "--config", "problem.json"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "kernel.b" in proc.stderr
    assert "Warning" not in proc.stderr


def test_essential_merges_intervals_at_a_pole(config, capsys):
    # the two branch intervals lie 2.0e-11 apart across the pole -1, so the
    # JSON holds one interval (test_enclosure pins both sides of the gap)
    doc = _with(TWO_TERM, kernel__a=[1e-8, 0.5], kernel__b=[1.0, 1.001],
                damping__b_min=0.0, damping__b_max=1.7, domain__lengths=[1.0])
    code, out = run(capsys, ["essential", "--config",
                             config(json.loads(doc))])
    assert code == 0
    assert json.loads(out) == {
        "intervals": [[-1.000999994995, -0.1501499829799966]]}


@pytest.mark.parametrize("doc, inside", [
    (FD_TWO_TERM, 232),
    (json.loads(_with(FD_TWO_TERM, kernel__a=[1.0], kernel__b=[1.0],
                      domain__grid_points=600)), 630),
], ids=["two-term-n100", "one-term-n600"])
def test_discretize_anchors_all_inside(config, capsys, doc, inside):
    # the benchmark's two FD anchors: every printed eigenvalue is inside
    code, out = run(capsys, ["discretize", "--config", config(doc)])
    assert code == 0
    assert out.splitlines()[-3:] == [f"# inside={inside}", "# outside=0",
                                     "# max_violation=0"]


# a mode root that rounds onto its pole -1e8 (the ids below keep the name
# of the absolute pole guard that once refused the eigs calls)
ON_POLE = _with(CONSTANT, coefficient_a=1.0, kernel__a=[1e-3],
                kernel__b=[1e8], domain__lengths=[1.0, 1.0])
# a mode root 5.4e-13 from the pole -36
TINY_DAMPING = _with(CONSTANT, coefficient_a=1.0, kernel__a=[1.0],
                     kernel__b=[36.0], damping__value=1e-12,
                     domain__lengths=[1.0, 1.0])


# Kernels that exit 1 today: each strict xfail must lose its marker in the
# change that mends it; rate 1e15 is the passing control of the rate gap.
def _rate_gap(rate):
    return _with(TWO_TERM, kernel__a=[0.1, 0.1], kernel__b=[1.0, rate],
                 damping__b_min=0.4, damping__b_max=0.5)


_RATE_GAP_EXIT = pytest.mark.xfail(strict=True, raises=AssertionError,
                                   reason=(
    "eigvals on the realization errs by about eps * b_N, so the O(1) mode "
    "roots fail the residual guarantee"))


@pytest.mark.parametrize("command, text", [
    pytest.param("eigs", ON_POLE, id="eigs-pole-guard"),
    pytest.param("validate", ON_POLE, id="validate-pole-guard"),
    pytest.param("eigs", TINY_DAMPING, id="eigs-tiny-damping"),
    pytest.param("validate", TINY_DAMPING, id="validate-tiny-damping"),
    pytest.param("enclosure", _rate_gap(1e20), marks=_RATE_GAP_EXIT,
                 id="enclosure-rate-1e20"),
    pytest.param("validate", _rate_gap(1e20), marks=_RATE_GAP_EXIT,
                 id="validate-rate-1e20"),
    pytest.param("enclosure", _rate_gap(1e15), id="enclosure-rate-1e15"),
    pytest.param("validate", _rate_gap(1e15), id="validate-rate-1e15"),
])
def test_wide_rate_kernels_solve(config, capsys, command, text):
    code, _ = run(capsys, [command, "--config", config(json.loads(text))])
    assert code == 0


@pytest.mark.parametrize("text", [json.dumps(CONSTANT), ON_POLE,
                                  TINY_DAMPING],
                         ids=["readme-box", "on-pole", "tiny-damping"])
def test_eigs_residuals_meet_the_solver_bound(config, capsys, text):
    # the printed residual is the ratio |g| / scale that mode_spectra
    # bounds, read at the printed root, so every row meets RESIDUAL_TOL,
    # also a root that rounds onto its pole
    code, out = run(capsys, ["eigs", "--config", config(json.loads(text)),
                             "--format", "json"])
    assert code == 0
    rows = json.loads(out)["eigenvalues"]
    assert rows and all(row["residual"] <= scalar.RESIDUAL_TOL for row in rows)
    if text == ON_POLE:
        assert any(row["re"] == -1e8 for row in rows)


def _edge_configs():
    """Eight valid configs at the edges of the input set, the kernels,
    lengths and profiles seeded: damping 1e-12 next to a pole, a margin of
    1e-6, rates over six decades, a profile with a zero sample, 1-D and 3-D
    boxes and two 3-point grids."""
    rng = np.random.default_rng(30)

    def kernel(rates):
        amps = rng.uniform(0.2, 1.0, len(rates))
        return {"a": amps.tolist(), "b": list(rates)}, amps.sum()

    def doc(kern, damping, domain):
        return {"coefficient_a": float(rng.uniform(0.5, 2.0)),
                "kernel": kern, "damping": damping, "domain": domain}

    box = {"kind": "box", "lengths": [1.0, 1.0]}
    one = {"a": [1.0], "b": [1.0]}
    wide, wide_sum = kernel(np.array([1e-3, 1.0, 1e3]) * rng.uniform(1, 2))
    two, two_sum = kernel(np.sort(rng.uniform(0.5, 5.0, 2)))
    return {
        "tiny-damping": json.loads(TINY_DAMPING),
        "margin-1e-6": {"coefficient_a": 1.0, "kernel": one, "domain": box,
                        "damping": {"kind": "constant", "value": 0.999999}},
        "six-decades": doc(wide, {"kind": "range", "b_min": 0.1 / wide_sum,
                                  "b_max": 0.9 / wide_sum}, box),
        "zero-sample": doc(two, {"kind": "profile_1d", "samples": [
            0.0, *rng.uniform(0.1, 0.9, 2) / two_sum]},
            {"kind": "interval_fd", "grid_points": 40}),
        "box-1d": doc(two, {"kind": "constant", "value": 0.5 / two_sum},
                      {"kind": "box", "lengths": [rng.uniform(0.5, 2.0)]}),
        "box-3d": doc(two, {"kind": "constant", "value": 0.7 / two_sum},
                      {"kind": "box",
                       "lengths": rng.uniform(0.8, 1.5, 3).tolist()}),
        "grid-3": doc(two, {"kind": "constant", "value": 0.6 / two_sum},
                      {"kind": "interval_fd", "grid_points": 3}),
        "grid-3-profile": doc(wide, {"kind": "profile_1d", "samples": (
            rng.uniform(0.0, 0.99, 3) / wide_sum).tolist()},
            {"kind": "interval_fd", "grid_points": 3}),
    }


@pytest.mark.parametrize("name", sorted(_edge_configs()))
def test_edge_configs_exit_cleanly(config, capsys, name):
    # every subcommand returns 0, 1 or 2, names its failure on an `error:`
    # or a FAIL line, and none stops at a pole guard
    path = config(_edge_configs()[name])
    for command in ("essential", "eigs", "enclosure", "discretize",
                    "validate"):
        code = main([command, "--config", path])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), command
        if code:
            assert "error: " in err or "\nFAIL " in "\n" + out, command
        assert "pole guard" not in out + err, command


@pytest.mark.parametrize("argv, doc, count", [
    (["essential"], GRADED, 1), (["eigs"], CONSTANT, 0),
    (["enclosure"], TWO_TERM, 1), (["discretize"], FD, 1),
    (["validate"], TWO_TERM, 1), (["validate", "--sweep", "2"], GRADED, 1),
    (["validate"], CONSTANT, 1),
], ids=["essential", "eigs", "enclosure", "discretize", "validate",
        "validate-sweep-2", "validate-constant"])
def test_one_branch_zero_bisection(config, capsys, monkeypatch, argv, doc,
                                   count):
    # validate's scan bisects once; its first and last rows give the
    # essential intervals and the branch zero of c1
    calls = []
    bisect = scalar.fredholm_factor_zeros

    def counted(*args):
        calls.append(1)
        return bisect(*args)

    for module in (scalar, enclosure):
        monkeypatch.setattr(module, "fredholm_factor_zeros", counted)
    code, _ = run(capsys, [*argv, "--config", config(doc)])
    assert code == 0
    assert len(calls) == count


def test_csv_tables_match_json_and_cloud(config, capsys):
    # each CSV table is formatted in one call; its rows read as the JSON
    # values and the cloud array at 12 significant digits
    path = config(CONSTANT)
    _, text = run(capsys, ["eigs", "--config", path, "--alpha-cap", "200"])
    _, doc = run(capsys, ["eigs", "--config", path, "--alpha-cap", "200",
                          "--format", "json"])
    want = [CSV_HEADER] + [
        f"{r['re']:.12g},{r['im']:.12g},{r['source']},{r['branch']},"
        f"{r['residual']:.12g},"
        + {None: "", True: "true", False: "false"}[r["jordan_ok"]]
        for r in json.loads(doc)["eigenvalues"]]
    assert text.splitlines() == want
    spec = parse_config(config(TWO_TERM))
    _, text = run(capsys, ["enclosure", "--config", config(TWO_TERM),
                           "--format", "csv"])
    cloud = boundary_cloud(spec.kernel, spec.damping.bounds(),
                           synthetic_alpha_grid(2.0 * np.pi ** 2))
    assert text.splitlines() == ["re,im,alpha,beta"] + [
        ",".join(f"{v:.12g}" for v in row) for row in cloud.tolist()]


def test_validate_large_fd_grid(config, capsys):
    # the stiffness values come from the stencil's closed-form spectrum;
    # the dense 10^6-square stencils would need several TiB
    doc = json.loads(_with(FD, domain__grid_points=10 ** 6))
    code, out = run(capsys, ["validate", "--config", config(doc)])
    assert code == 0
    assert "FAIL" not in out
    assert "PASS branch_monotonicity" in out


def test_stiffness_closed_form_matches_stencil(config):
    spec = parse_config(config(json.loads(_with(
        FD, coefficient_a=1.7, domain__length=2.5, domain__grid_points=40))))
    mat_a, _ = discretize_1d(1.7, np.full(40, 0.3), 40, 2.5)
    got = stiffness_eigenvalues(spec.coefficient_a, spec.domain.grid_points,
                                spec.domain.length, np.arange(1, 41))
    assert np.allclose(got, np.linalg.eigvalsh(mat_a.toarray()), rtol=1e-12)


def test_cli_import_leaves_out_scipy():
    # numpy is the only runtime dependency; importing scipy would add about
    # half to the console script's start-up time
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, memspec.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_out_numpy_polynomial():
    # the polynomial root oracle lives with the tests; the CLI evaluates the
    # cleared polynomial by np.polyval
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, memspec.cli; print(sorted("
         "m for m in sys.modules if m.startswith('numpy.polynomial')))"],
        capture_output=True, text=True, env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_validate_constant_includes_jordan(config, capsys):
    code, out = run(capsys, ["validate", "--config", config(CONSTANT)])
    assert code == 0
    assert "PASS jordan_condition" in out


# the 1000x time-rescaled twin of a config that passes: rates x 1e3,
# coefficient_a x 1e6, so every eigenvalue is 1e3 times its twin's and the
# Jordan value 1e-3 times
RESCALED = {
    "coefficient_a": 1e6,
    "kernel": {"a": [0.28331206255651664, 0.3546448831628861,
                     0.501898859273735, 0.5027154932997995],
               "b": [184.2284189520337, 328.9562708315091,
                     5677.599229629375, 7072.797884096843]},
    "damping": {"kind": "constant", "value": 0.4173707706802023},
    "domain": {"kind": "box", "lengths": [1.0, 1.3]},
}


def test_jordan_verdict_survives_a_change_of_time_unit(config, capsys):
    twin = json.loads(_with(RESCALED, coefficient_a=1.0, kernel__b=[
        b / 1e3 for b in RESCALED["kernel"]["b"]]))
    for doc, cap in ((twin, "50"), (RESCALED, "5e4")):
        code, out = run(capsys, ["validate", "--config", config(doc)])
        assert code == 0, out
        assert "PASS jordan_condition" in out
        code, out = run(capsys, ["eigs", "--config", config(doc),
                                 "--imag-cap", cap])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        real = [row for row in rows if row[3] == "real"]
        assert len(real) > 100
        assert all(row[5] == "true" for row in real)


def test_jordan_verdict_at_a_margin_of_1e_6(config, capsys):
    # README's kernel at constant damping 0.999999: each mode has a real
    # root near -1e-6, where f' is about beta; the paper's form over the
    # size of its terms, (2/|lam|)(b |Khat| + 1) + b |Khat'|, read 2.5e-7
    doc = json.loads(_with(GRADED, damping={"kind": "constant",
                                            "value": 0.999999}))
    code, out = run(capsys, ["validate", "--config", config(doc)])
    assert code == 0
    assert "PASS jordan_condition" in out
    code, out = run(capsys, ["eigs", "--config", config(doc),
                             "--alpha-cap", "50"])
    real = [row.split(",") for row in out.splitlines()[1:]
            if ",real," in row]
    assert code == 0
    assert [row[5] for row in real] == ["true"] * 3
    # at 40 digits, |f'| / (2 |lam| + beta |Khat'|) at the printed roots
    with mpmath.workdps(40):
        for re_s, _, source, *_ in real:
            lam = mpmath.mpf(re_s)
            beta = mpmath.mpf(0.999999) * mpmath.pi ** 2 * sum(
                int(m) ** 2 for m in source[2:].split("-"))
            d_khat = -1 / (lam + 1) ** 2
            assert abs(2 * lam - beta * d_khat) >= 0.99 * (
                2 * abs(lam) + beta * abs(d_khat))


def test_validate_names_the_smallest_jordan_ratio(config, capsys,
                                                  monkeypatch):
    monkeypatch.setattr(scalar, "jordan_ratio",
                        lambda k, bhat, lam0: np.full(np.shape(lam0), 2e-4))
    code, out = run(capsys, ["validate", "--config", config(CONSTANT)])
    assert code == 1
    assert "FAIL jordan_condition: smallest |value| / size of its terms " \
           "0.0002" in out


@pytest.mark.parametrize("gap", [0.5, 1e-3, 1e-5, 1e-9])
def test_validate_spoiled_pole_exclusion_at_close_rates(config, capsys,
                                                        monkeypatch, gap):
    # a coupling entry off by 1e-6 relative fails the pole identity at any
    # rate gap; a bound on LU's rounding, which grows like 1 / gap, let it
    # pass at gaps of 1e-5 and below
    original = ModePencil.block_function

    def spoiled(self, *args):
        big = original(self, *args)
        big[..., 0, 1] *= 1.0 + 1e-6
        return big

    monkeypatch.setattr(ModePencil, "block_function", spoiled)
    doc = json.loads(_with(TWO_TERM, kernel__a=[0.5, 0.5],
                           kernel__b=[1.0, 1.0 + gap]))
    code, out = run(capsys, ["validate", "--config", config(doc)])
    assert code == 1
    assert "FAIL pole_exclusion: worst discrepancy / bound" in out


def test_validate_pole_exclusion_on_close_rates(config, capsys):
    # det P(-b_j) of the arrowhead P(-b_j) is taken from its entries, so it
    # is rounded on the scale of its size even at a rate gap of 1e-9
    doc = json.loads(_with(TWO_TERM, kernel__a=[0.5, 0.5],
                           kernel__b=[1.0, 1.0 + 1e-9]))
    code, out = run(capsys, ["validate", "--config", config(doc)])
    assert code == 0, out
    assert "PASS pole_exclusion" in out
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        base = 10.0 ** rng.uniform(-2.0, 2.0)
        rates = base * (1.0 + np.sort(rng.uniform(0.0, 1e-4, n)))
        amps = 10.0 ** rng.uniform(-3.0, 0.0, n)
        b_max = rng.uniform(0.2, 0.9) / amps.sum()
        doc = {"coefficient_a": float(rng.uniform(0.5, 2.0)),
               "kernel": {"a": amps.tolist(), "b": rates.tolist()},
               "damping": {"kind": "range", "b_min": 0.5 * b_max,
                           "b_max": b_max},
               "domain": {"kind": "box", "lengths": [1.0, 1.0]}}
        code, out = run(capsys, ["validate", "--config", config(doc),
                                 "--sweep", "5"])
        assert "PASS pole_exclusion" in out, doc


def test_config_errors_exit_two(config, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["essential", "--config", str(bad)]) == 2
    capsys.readouterr()
    assert main(["essential", "--config", str(tmp_path / "none.json")]) == 2
    capsys.readouterr()
    doc = dict(GRADED)
    doc["damping"] = {"kind": "constant", "value": 1.5}
    assert main(["essential", "--config", config(doc)]) == 2


def test_deterministic_output(config, capsys):
    path = config(CONSTANT)
    _, first = run(capsys, ["eigs", "--config", path, "--alpha-cap", "300"])
    _, second = run(capsys, ["eigs", "--config", path, "--alpha-cap", "300"])
    assert first == second


def test_parser_defaults_do_not_leak(config, capsys):
    # one parser serves every call of a process
    path = config(CONSTANT)
    _, first = run(capsys, ["eigs", "--config", path, "--format", "json"])
    _, second = run(capsys, ["eigs", "--config", path])
    assert "eigenvalues" in json.loads(first)
    assert second.startswith(CSV_HEADER + "\n")


def test_validate_output_file(config, capsys, tmp_path):
    # the check lines go to the file alone; an unwritable path exits 2
    path = config(TWO_TERM)
    _, lines = run(capsys, ["validate", "--config", path])
    target = tmp_path / "v.txt"
    code, out = run(capsys, ["validate", "--config", path,
                             "--output", str(target)])
    assert (code, out) == (0, "")
    assert target.read_text() == lines
    assert lines.count("PASS") == 7
    assert main(["validate", "--config", path,
                 "--output", str(tmp_path / "none" / "v.txt")]) == 2
    assert "--output" in capsys.readouterr().err


#: Common flags that each subcommand accepts without reading them: one flag
#: set serves every subcommand, so a script can pass the same flags to each.
IGNORED_FLAGS = {
    "essential": (GRADED, ["--alpha-cap", "30", "--imag-cap", "3",
                           "--sweep", "5", "--beta-samples", "4",
                           "--tolerance", "0.5"]),
    "eigs": (CONSTANT, ["--sweep", "5", "--beta-samples", "4",
                        "--tolerance", "0.5"]),
    "enclosure": (GRADED, ["--imag-cap", "3", "--sweep", "5",
                           "--tolerance", "0.5"]),
    "discretize": (FD, ["--alpha-cap", "30", "--sweep", "5",
                        "--beta-samples", "4"]),
    "validate": (TWO_TERM, ["--alpha-cap", "30", "--imag-cap", "3",
                            "--beta-samples", "4", "--tolerance", "0.5"]),
}


@pytest.mark.parametrize("command", sorted(IGNORED_FLAGS))
def test_ignored_flags_leave_output_unchanged(config, capsys, command):
    doc, flags = IGNORED_FLAGS[command]
    argv = [command, "--config", config(doc)]
    plain = main(argv), capsys.readouterr()
    flagged = main(argv + flags), capsys.readouterr()
    assert plain == flagged


def test_output_file(config, capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out = run(capsys, ["essential", "--config", config(GRADED),
                             "--output", str(target)])
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert "intervals" in doc
