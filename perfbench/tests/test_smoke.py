"""Short smoke of every workload and of the traced run.

    python3 -m unittest discover -s perfbench/tests -v     # from the repo root

Each run is a few seconds long. The checks: the last stdout line has exactly
the result keys; every metric BENCHMARK.json names is printed with its unit;
the answer checks and the workload's own path checks passed; the record
carries its provenance. A copy holding only BENCHMARK.json and perfbench/
must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")
SECONDS = "3"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run_bench(workload, trace, cwd=ROOT, seed=7):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return out


class SmokeTest(unittest.TestCase):

    def check_run(self, workload, trace):
        out = run_bench(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])["record"]
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], record["checks"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertTrue(all(record["checks"].values()), record["checks"])

        wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in wanted))
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

        for key in ("nproc", "isa", "natural_lanes"):
            self.assertIn(key, record["host"])
        self.assertEqual(set(record["pinned"]),
                         {"METACORE_THREADS", "METACORE_SERVER_WORKERS"})
        self.assertTrue(record["revision"])
        self.assertEqual(record["seed"], 7)
        for p in record["passes"]:
            self.assertGreater(p["samples"], 0)
        return result, record

    def test_cold_search(self):
        _, record = self.check_run("cold_search", 0)
        self.assertEqual(record["identity"][0]["store_hits"], 0)

    def test_warm_hit(self):
        _, record = self.check_run("warm_hit", 0)
        self.assertGreaterEqual(record["identity"][0]["response_cache_hit_share"], 0.95)
        self.assertEqual(record["connections"], 1)
        self.assertEqual(record["cpu_rotation"], sorted(os.sched_getaffinity(0)))

    def test_warm_replay(self):
        _, record = self.check_run("warm_replay", 0)
        self.assertLessEqual(record["identity"][0]["response_cache_hit_share"], 0.05)
        self.assertEqual(record["identity"][0]["evaluator_calls"], 0)

    def test_traced_run(self):
        result, record = self.check_run("warm_replay", 1)
        self.assertEqual(result["metrics"]["search.evaluations"]["value"], 0)
        self.assertEqual([p["traced"] for p in record["passes"]],
                         [False, True, False, True])
        self.assertIn("client.request", record["client_spans"])
        self.assertIn("search.cold.evaluate", record["spans"])

    def test_fails_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run_bench("warm_hit", 0, cwd=tmp)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
