"""Self-test of the benchmark: every workload, small, untraced once and traced twice.

    python3 perfbench/selftest.py

Checks that each run exits 0 with every answer correct, that the last output
line names exactly the metrics of BENCHMARK.json with their units, that the
exact per-layer counts are identical across two traced runs with one seed, and
that the benchmark refuses to run without the library sources.  Takes about a
minute.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout + proc.stderr


class BenchmarkSelfTest(unittest.TestCase):
    def assert_result(self, code: int, result: dict | None, output: str, metrics: list) -> None:
        self.assertEqual(code, 0, output)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], output)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in metrics},
        )
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_workloads(self) -> None:
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, result, output = run(w["name"], 0)
                self.assert_result(code, result, output, SPEC["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                traced = []
                for _ in range(2):
                    code, result, output = run(w["name"], 1)
                    self.assert_result(code, result, output, SPEC["per_layer"])
                    traced.append({name: result["metrics"][name]["value"] for name in counts})
                self.assertEqual(traced[0], traced[1])

    def test_refuses_without_sources(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            code, result, output = run(SPEC["workloads"][0]["name"], 0, cwd=Path(tmp))
            self.assertNotEqual(code, 0, output)
            self.assertIsNone(result, output)


if __name__ == "__main__":
    unittest.main()
