"""Command-line interface: output formats, exit codes, and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from memspec import (
    DampingBound,
    ExponentialKernel,
    ModePencil,
    boundary_cloud,
    discretize_1d,
    enclosure,
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


def test_validate_char_poly_near_a_root(config, capsys):
    # a draw lands so near a root that |p(lam)| falls far below the
    # rounding of p itself; the identity holds on the scale
    # sum_k |c_k| |lam|^k at which p(lam) is evaluated
    doc = {"coefficient_a": 100.0,
           "kernel": {"a": [0.1] * 8, "b": [0.25 * j for j in range(1, 9)]},
           "damping": {"kind": "range", "b_min": 0.3125, "b_max": 0.625},
           "domain": {"kind": "box", "lengths": [0.2]}}
    code, out = run(capsys, ["validate", "--config", config(doc)])
    assert code == 0, out
    assert "PASS char_poly_identity" in out


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
    assert np.allclose(got, np.linalg.eigvalsh(mat_a), rtol=1e-12)


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


def test_validate_constant_includes_jordan(config, capsys):
    code, out = run(capsys, ["validate", "--config", config(CONSTANT)])
    assert code == 0
    assert "PASS jordan_condition" in out


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


def test_output_file(config, capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out = run(capsys, ["essential", "--config", config(GRADED),
                             "--output", str(target)])
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert "intervals" in doc
