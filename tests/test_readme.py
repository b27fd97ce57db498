"""README.md as the user contract: its configs parse, every ``$ memspec``
line of its console block exits 0, its library sketch runs, and each output
it quotes is what the program prints.

Run as a script, ``python tests/test_readme.py DIR`` writes README's configs
into DIR and prints its CLI lines, one shell command each, for a run through
the installed console script.
"""

import contextlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from memspec.cli import main
from memspec.config import parse_config

TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def _block(language: str) -> str:
    return re.search(rf"^```{language}\n(.*?)^```", TEXT,
                     re.M | re.S).group(1)


#: name -> text of each ```json block whose line above names it `name.json`
CONFIGS = dict(re.findall(r"^`([\w-]+\.json)`[^\n]*\n```json\n(.*?)^```",
                          TEXT, re.M | re.S))


def _session() -> list:
    """(command line, quoted output lines) of each ``$`` line of the console
    block."""
    commands = []
    for line in _block("console").splitlines():
        if line.startswith("$ "):
            commands.append((line[2:], []))
        else:
            commands[-1][1].append(line)
    return commands


SESSION = _session()


def _write_configs(directory: Path) -> None:
    for name, text in CONFIGS.items():
        (directory / name).write_text(text, encoding="utf-8")


def _run(command: str, capsys) -> tuple:
    argv = shlex.split(command)
    assert argv[0] == "memspec"
    code = main(argv[1:])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def readme_dir(tmp_path, monkeypatch):
    _write_configs(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_configs_parse(readme_dir):
    # the three anchors, each a valid problem; every one the CLI block uses
    # is shown
    assert sorted(CONFIGS) == ["box.json", "fd.json", "problem.json"]
    for name in CONFIGS:
        parse_config(name)
    used = {arg for command, _ in SESSION for arg in shlex.split(command)
            if arg.endswith(".json")}
    assert used == set(CONFIGS)


def test_session_covers_every_subcommand():
    assert {shlex.split(command)[1] for command, _ in SESSION} == {
        "essential", "eigs", "enclosure", "discretize", "validate"}


@pytest.mark.parametrize("command, quoted", SESSION,
                         ids=[command for command, _ in SESSION])
def test_cli_line(readme_dir, capsys, command, quoted):
    code, out, err = _run(command, capsys)
    assert code == 0, err
    printed = out.splitlines() + err.splitlines()
    assert quoted
    for line in quoted:
        assert line in printed, line


def test_library_sketch():
    # each print's trailing comment is its output
    code = _block("python")
    want = [line.split("# ", 1)[1] for line in code.splitlines()
            if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == want


def test_exported_names_resolve_in_order():
    # the names whose docstrings the library section points to: each one
    # resolves, and __all__ is sorted without repeats
    import memspec
    assert memspec.__all__ == sorted(set(memspec.__all__))
    for name in memspec.__all__:
        assert hasattr(memspec, name), name


def test_enclosure_formats_agree(readme_dir, capsys):
    # on the README anchor, JSON counts the cloud that CSV solves, row for
    # row; the CSV info line names no interval, since CSV solves only the
    # cloud
    command = "memspec enclosure --config problem.json"
    code, out, _ = _run(command, capsys)
    assert code == 0
    cloud = json.loads(out)["counts"]["cloud"]
    code, out, err = _run(command + " --format csv", capsys)
    assert code == 0
    assert cloud == 2112 == len(out.splitlines()) - 1
    assert "interval" not in err


if __name__ == "__main__":
    _write_configs(Path(sys.argv[1]))
    for command, _ in SESSION:
        print(command)
