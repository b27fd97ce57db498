"""Byte parity of the CLI on the benchmark's 600 calls.

    python tests/parity.py run OUT.json [SRC]
    python tests/parity.py diff OLD.json NEW.json

``run`` draws the call lists of ``perfbench/workloads.py`` (its three
workloads at seeds 1-5, anchors included), runs each call through
``memspec.cli.main`` in this process with one BLAS thread, imported from
SRC (default: this tree's ``src``), and writes {call: [exit, stdout,
stderr]} as JSON.  ``diff`` prints, per subcommand, the calls whose three
values differ, and exits 1 if any call differs.  Nothing is written under
``perfbench/``.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import warnings

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # read once, when numpy is first imported
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
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit({"run": run, "diff": diff}[sys.argv[1]](*sys.argv[2:]))
