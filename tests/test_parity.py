"""The cell report of ``tests/parity.py diff`` on hand-made result files."""

import json

import parity

HEADER = "re,im,source,branch,residual,jordan_ok\n"
OLD = {
    "modal/1/0/eigs": [0, HEADER + "-0.5,0,m=1,real,0,true\n"
                       "-0.1,-9.148627167,m=1,complex-pair,1e-17,\n"
                       "-0.1,9.148627167,m=1,complex-pair,1e-17,\n",
                       "3 eigenvalues with |Im| <= 50\n"],
    "modal/1/1/enclosure": [0, '{"c0": -0.5064127372207348, "c1": -0.25, '
                            '"counts": {"cloud": 3}}\n', "3 cloud points\n"],
    "branch/1/2/validate": [0, "PASS a\nPASS b\n", ""],
    "fd/1/3/discretize": [0, HEADER + "-1.5,0,fd,real,1e-13,\n# inside=1\n",
                          "1 fd eigenvalue\n"],
}


def _diff(tmp_path, capsys, new):
    paths = tmp_path / "old.json", tmp_path / "new.json"
    for path, results in zip(paths, (OLD, new)):
        path.write_text(json.dumps(results), encoding="utf-8")
    code = parity.diff(*map(str, paths))
    return code, capsys.readouterr().out


def test_identical_results_report_no_cell(tmp_path, capsys):
    assert _diff(tmp_path, capsys, OLD) == (0, (
        "discretize: 0 of 1 calls differ\n"
        "eigs: 0 of 1 calls differ\n"
        "enclosure: 0 of 1 calls differ\n"
        "validate: 0 of 1 calls differ\n"))


def test_changed_cells_are_counted_per_column(tmp_path, capsys):
    new = json.loads(json.dumps(OLD))
    eigs = new["modal/1/0/eigs"]
    eigs[1] = eigs[1].replace("9.148627167,", "9.14862716701,").replace(
        "m=1,real,0,", "m=1,real,2e-16,")
    new["modal/1/1/enclosure"][1] = new["modal/1/1/enclosure"][1].replace(
        "7348", "7349")
    new["branch/1/2/validate"] = [1, "PASS a\nFAIL b: worst 2\n", ""]
    new["fd/1/3/discretize"][1] = HEADER + "-1.5,0,fd,real,1e-13,\n"
    assert _diff(tmp_path, capsys, new) == (1, (
        "discretize: 1 of 1 calls differ\n"
        "  fd/1/3/discretize\n"
        "  #: 1 cells changed, text\n"
        "eigs: 1 of 1 calls differ\n"
        "  modal/1/0/eigs\n"
        "  im: 2 cells changed, largest relative move 1.1e-12, "
        "largest new |cell| 9.1\n"
        "  residual: 1 cells changed, largest relative move inf, "
        "largest new |cell| 2e-16\n"
        "    modal/1/0/eigs row 2 im: -9.148627167 -> -9.14862716701\n"
        "    modal/1/0/eigs row 3 im: 9.148627167 -> 9.14862716701\n"
        "enclosure: 1 of 1 calls differ\n"
        "  modal/1/1/enclosure\n"
        "  c0: 1 cells changed, largest relative move 2.2e-16, "
        "largest new |cell| 0.51\n"
        "validate: 1 of 1 calls differ\n"
        "  branch/1/2/validate\n"
        "  exit: 1 cells changed, largest relative move inf, "
        "largest new |cell| 1\n"
        "  line: 1 cells changed, text\n"))
