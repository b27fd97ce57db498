"""Byte parity of the CLI on the benchmark's 600 calls.

    python tests/parity.py run OUT.json [SRC]
    python tests/parity.py diff OLD.json NEW.json

``run`` draws the call lists of ``perfbench/workloads.py`` (its three
workloads at seeds 1-5, anchors included), runs each call through
``memspec.cli.main`` in this process with one BLAS thread, imported from
SRC (default: this tree's ``src``), and writes {call: [exit, stdout,
stderr]} as JSON.  ``diff`` prints, per subcommand, the calls whose three
values differ, then a cell report: for each CSV column, JSON key (its path
of dict keys) or other stdout line, and for the exit code and stderr, the
count of changed cells, their largest relative move and largest new
magnitude; and every changed ``re`` or ``im`` cell with its call, place and
both texts.  It exits 1 if any call differs.  Nothing is written under
``perfbench/``.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(out, src=os.path.join(ROOT, "src")):
    import numpy as np
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    sys.path[:0] = [os.path.abspath(src), os.path.join(ROOT, "perfbench")]
    from memspec.cli import main
    from workloads import WORKLOADS
    warnings.simplefilter("always")  # every warning lands in its call's stderr
    results, out = {}, os.path.abspath(out)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the config path reads call.json in every message
        for name, workload in WORKLOADS.items():
            for seed in range(1, 6):
                calls = workload.calls(np.random.default_rng(seed), "full")
                for i, call in enumerate(calls):
                    with open("call.json", "w", encoding="utf-8") as handle:
                        json.dump(call.config, handle)
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), \
                            contextlib.redirect_stderr(stderr):
                        code = main(call.argv("call.json"))
                    results[f"{name}/{seed}/{i}/{call.subcommand}"] = [
                        code, stdout.getvalue(), stderr.getvalue()]
        os.chdir(ROOT)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle)
    print(f"{len(results)} calls written to {out}")


def _leaves(node, column="", place=""):
    """(column, place) and text of each JSON leaf: the column is the path of
    dict keys, the place the list indices on the way."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{column}.{key}".lstrip("."), place)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, column, f"{place}[{i}]")
    else:
        yield (column, place), str(node)


def cells(result):
    """{(column, place): text} of one call's [exit, stdout, stderr]: the
    exit code, stderr, and stdout's JSON leaves, or its CSV cells under the
    header's names with the ``#`` lines whole, or its lines."""
    code, out, err = result
    found = {("exit", ""): str(code), ("stderr", ""): err}
    lines = out.splitlines()
    if out.startswith("{"):
        found.update(_leaves(json.loads(out, parse_float=str)))
    elif lines and "," in lines[0]:
        header = lines[0].split(",")
        for i, line in enumerate(lines[1:], 1):
            if line.startswith("#"):
                found["#", f"line {i}"] = line
            else:
                found.update(((name, f"row {i}"), text) for name, text
                             in zip(header, line.split(",")))
    else:
        found.update((("line", f"line {i}"), line)
                     for i, line in enumerate(lines, 1))
    return found


def _move(old, new):
    """|new - old| / |old| of two numeric texts, None if either is not one
    (or is missing)."""
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return None
    return abs(b - a) / abs(a) if a else (0.0 if b == a else math.inf)


def diff(old, new):
    with open(old, encoding="utf-8") as a, open(new, encoding="utf-8") as b:
        old, new = json.load(a), json.load(b)
    differ = 0
    for sub in sorted({key.rsplit("/", 1)[1] for key in old.keys() | new}):
        keys = sorted(k for k in old.keys() | new if k.endswith("/" + sub))
        moved = [k for k in keys if old.get(k) != new.get(k)]
        differ += len(moved)
        print(f"{sub}: {len(moved)} of {len(keys)} calls differ",
              *moved[:5], sep="\n  ")
        report, listed = {}, []
        for key in moved:
            before, after = (cells(side[key]) if key in side else {}
                             for side in (old, new))
            for cell in sorted(before.keys() | after.keys()):
                texts = before.get(cell), after.get(cell)
                if texts[0] != texts[1]:
                    report.setdefault(cell[0], []).append(texts)
                    if cell[0] in ("re", "im"):
                        listed.append(f"{key} {cell[1]} {cell[0]}: "
                                      f"{texts[0]} -> {texts[1]}")
        for column, changed in sorted(report.items()):
            moves = [_move(*texts) for texts in changed]
            largest = "text"
            if None not in moves:
                top = max(abs(float(texts[1])) for texts in changed)
                largest = (f"largest relative move {max(moves):.2g}, "
                           f"largest new |cell| {top:.2g}")
            print(f"  {column}: {len(changed)} cells changed, {largest}")
        for line in listed:
            print("   ", line)
    return 1 if differ else 0


if __name__ == "__main__":
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[_var] = "1"  # read once, when numpy is first imported
    sys.exit({"run": run, "diff": diff}[sys.argv[1]](*sys.argv[2:]))
