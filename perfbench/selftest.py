#!/usr/bin/env python3
"""Self-test of the benchmark: oracles catch corrupted output; smoke runs.

Run from the repository root (pytest does not collect this file):

    python3 perfbench/selftest.py
"""

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
from oracles import judge
from workloads import BOX, FD_TWO_TERM, README, TWO_TERM, WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class OracleTest(unittest.TestCase):
    """Each oracle passes real output and flags a corrupted copy of it."""

    @classmethod
    def setUpClass(cls):
        cls.cli = run.import_cli()
        run.OUT_DIR.mkdir(exist_ok=True)
        cls.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def call(self, subcommand, config, *flags):
        path = run.write_config(self.work / "cfg.json", config)
        argv = [subcommand, "--config", path, *flags]
        _, code, out, error = run.invoke(self.cli.main, argv)
        self.assertIsNone(error)
        return argv, code, out

    def verdict(self, subcommand, config, argv, code, out):
        return judge(subcommand, config, argv, code, out, None)[0]

    def assert_passes_then_flags(self, subcommand, config, flags, corrupt):
        argv, code, out = self.call(subcommand, config, *flags)
        self.assertIsNone(self.verdict(subcommand, config, argv, code, out),
                          judge(subcommand, config, argv, code, out, None))
        bad = corrupt(out)
        self.assertNotEqual(bad, out)
        self.assertEqual(self.verdict(subcommand, config, argv, code, bad),
                         "oracle")

    def test_eigs_perturbed_eigenvalue(self):
        def corrupt(out):
            lines = out.splitlines()
            i = next(i for i, l in enumerate(lines) if "complex-pair" in l)
            fields = lines[i].split(",")
            fields[1] = repr(float(fields[1]) * (1 + 1e-6))
            lines[i] = ",".join(fields)
            return "\n".join(lines) + "\n"
        self.assert_passes_then_flags("eigs", BOX, ("--imag-cap", "10"),
                                      corrupt)

    def test_eigs_missing_conjugate(self):
        def corrupt(out):
            lines = out.splitlines()
            i = next(i for i, l in enumerate(lines) if "complex-pair" in l)
            return "\n".join(lines[:i] + lines[i + 1:]) + "\n"
        self.assert_passes_then_flags("eigs", BOX, ("--imag-cap", "10"),
                                      corrupt)

    def test_essential_shifted_endpoint(self):
        def corrupt(out):
            doc = json.loads(out)
            doc["intervals"][0][1] *= 1 + 1e-6
            return json.dumps(doc) + "\n"
        self.assert_passes_then_flags("essential", TWO_TERM, ("--sweep", "5"),
                                      corrupt)

    def test_enclosure_shifted_c0(self):
        def corrupt(out):
            doc = json.loads(out)
            doc["c0"] = -0.45  # above the endpoint -0.5 of the README example
            return json.dumps(doc) + "\n"
        self.assert_passes_then_flags(
            "enclosure", README, ("--sweep", "5", "--beta-samples", "2"),
            corrupt)

    def test_enclosure_cloud_perturbed_point(self):
        def corrupt(out):
            lines = out.splitlines()
            fields = lines[1].split(",")
            fields[0] = repr(float(fields[0]) + 1e-4)
            lines[1] = ",".join(fields)
            return "\n".join(lines) + "\n"
        self.assert_passes_then_flags(
            "enclosure", README,
            ("--sweep", "5", "--beta-samples", "2", "--format", "csv"),
            corrupt)

    def test_discretize_flipped_verdict(self):
        config = json.loads(json.dumps(README))
        config["damping"] = {"kind": "profile_1d", "samples": [0.5, 0.75]}
        config["domain"] = {"kind": "interval_fd", "length": 1.0,
                            "grid_points": 20}

        def corrupt(out):
            lines = out.splitlines()
            inside = int(lines[-3].split("=")[1])
            lines[-3] = f"# inside={inside - 1}"
            lines[-2] = "# outside=1"
            return "\n".join(lines) + "\n"
        self.assert_passes_then_flags("discretize", config, (), corrupt)

    def test_discretize_moved_eigenvalue(self):
        config = json.loads(json.dumps(README))
        config["damping"] = {"kind": "profile_1d", "samples": [0.5, 0.75]}
        config["domain"] = {"kind": "interval_fd", "length": 1.0,
                            "grid_points": 20}

        def corrupt(out):
            lines = out.splitlines()
            fields = lines[1].split(",")
            fields[0] = "1.5"  # right half-plane: outside every enclosure
            lines[1] = ",".join(fields)
            return "\n".join(lines) + "\n"
        self.assert_passes_then_flags("discretize", config, (), corrupt)

    def test_validate_flipped_line(self):
        def corrupt(out):
            return out.replace("PASS pole_exclusion",
                               "FAIL pole_exclusion: flipped")
        self.assert_passes_then_flags("validate", README, ("--sweep", "5"),
                                      corrupt)

    def test_known_defects_show(self):
        """validate fails on the two-term kernel; FD reports false outsides."""
        argv, code, out = self.call("validate", TWO_TERM, "--sweep", "5")
        self.assertEqual(self.verdict("validate", TWO_TERM, argv, code, out),
                         "exit_code")
        argv, code, out = self.call("discretize", FD_TWO_TERM)
        self.assertIn("# outside=4", out)
        self.assertEqual(
            self.verdict("discretize", FD_TWO_TERM, argv, code, out), "oracle")


class SmokeTest(unittest.TestCase):
    """A tiny run of each workload prints every named metric with its unit."""

    def run_bench(self, cwd, workload, trace):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace),
             "--scale", "small"],
            cwd=cwd, capture_output=True, text=True, timeout=170, check=False)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]},
                         set(WORKLOADS))

    def test_run_work_depends_only_on_seed(self):
        """Same seed and seconds, same calls and passes; so the same
        attempted and failed counts on any host."""
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                first, second = (workload.calls(run.np.random.default_rng(5),
                                                "full") for _ in range(2))
                self.assertEqual(first, second)
                self.assertEqual(len(first), 40)
                passes = {"modal": 4, "branch": 4, "fd": 3}[name]
                self.assertEqual(run.passes_for(workload, 25, 0), passes)
                self.assertEqual(run.passes_for(workload, 25, 1),
                                 max(passes // 2, 1))

    def test_host_scaling(self):
        """A pass on a host twice as slow, with every call twice as long,
        gives the same scaled latencies as a pass at the reference speed."""
        calls = WORKLOADS["modal"].anchors[:2]
        results = [run.Result(i, g, call, (i + 1) * 0.1 * (g + 1), None, [],
                              0)
                   for g in range(2) for i, call in enumerate(calls)]
        probes = [[run.PROBE_REF_S] * 3, [2 * run.PROBE_REF_S] * 3]
        factors = [run.host_factor(p) for p in probes]
        self.assertEqual(factors, [1.0, 2.0])
        self.assertEqual(run.call_latencies(results, factors), [0.1, 0.2])
        self.assertEqual(run.call_latencies(results),
                         [statistics.median([0.1, 0.2]),
                          statistics.median([0.2, 0.4])])

    def test_every_metric_printed(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = self.run_bench(run.ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_fails_without_program(self):
        """With only BENCHMARK.json and perfbench/, the run exits non-zero."""
        run.OUT_DIR.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = self.run_bench(bare, "modal", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
