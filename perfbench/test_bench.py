"""Tests of the benchmark command itself.

Run from the repository root:  python3 -m unittest perfbench/test_bench.py
Each test builds the benchmark if needed and makes short runs.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, cwd=ROOT, env=None):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=600,
                          env=env)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class BenchmarkCommand(unittest.TestCase):
    def test_result_has_contract_shape(self):
        p = run(["--workload", "quic_web", "--seed", "1", "--seconds", "1", "--trace", "0"])
        self.assertEqual(p.returncode, 0, p.stderr)
        result = last_json(p.stdout)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_wrong_expected_digest_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            expected = pathlib.Path(tmp) / "expected.json"
            expected.write_text(json.dumps(
                {"seed": 1, "digests": {"quic_web": "0123456789abcdef"}}))
            p = run(["--workload", "quic_web", "--seed", "1", "--seconds", "1", "--trace", "0",
                     "--expected", str(expected)])
        self.assertNotEqual(p.returncode, 0)
        self.assertFalse(last_json(p.stdout)["correct"])
        self.assertIn("!= expected 0123456789abcdef", p.stderr)

    def test_traced_run_reports_every_layer_metric(self):
        p = run(["--workload", "browse_pop", "--seed", "2", "--seconds", "1", "--trace", "1"])
        self.assertEqual(p.returncode, 0, p.stderr)
        result = last_json(p.stdout)
        self.assertTrue(result["correct"])
        want = {m["name"] for m in SPEC["per_layer"]}
        self.assertEqual(set(result["metrics"]), want)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self_times = sum(m[k] for k in ("sharding.self_s", "cosim.self_s", "mptcp.run.self_s",
                                        "quic.run.self_s", "sched.self_s", "app.self_s"))
        self.assertAlmostEqual(self_times + m["trace.residual_s"], m["trace.wall_s"], places=6)
        self.assertGreater(m["trace.overhead_ratio"], 0)

    def test_compare_refuses_mixed_fingerprints(self):
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, cpu in enumerate(["cpu A", "cpu B"]):
                prov = {"nproc": 2, "cpu_model": cpu, "rustc": "rustc 1"}
                path = pathlib.Path(tmp) / f"{i}.json"
                path.write_text(json.dumps({"provenance": prov, "result": result}))
                paths.append(str(path))
            p = run(["compare"] + paths)
        self.assertEqual(p.returncode, 2)
        self.assertIn("refusing", p.stderr)

    def test_fails_without_the_repository(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", pathlib.Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=str(pathlib.Path(tmp) / ".bench_build"))
            p = run(["--workload", "quic_web", "--seed", "1", "--seconds", "1", "--trace", "0"],
                    cwd=tmp, env=env)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    sys.exit(unittest.main())
