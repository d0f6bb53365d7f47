"""The real command, end to end, on the 72-node test machine.

    python3 -m unittest discover -s perfbench/tests -v

The first test to run builds dfbench into .bench_build/ if it is not built
yet (about a minute on 4 cores).
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import derive  # noqa: E402

def run(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
               "--seconds", "1", "--trace", str(trace), "--topo", "tiny", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=900)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class BenchmarkFile(unittest.TestCase):
    def test_benchmark_json_lists_exactly_the_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(derive.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], derive.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], derive.PER_LAYER)
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


class SmokeRun(unittest.TestCase):
    def check_metrics(self, result, expected):
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        line = last_json(result.stdout)
        self.assertEqual(sorted(line), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(sorted(line["metrics"]), sorted(name for name, _ in expected))
        table = result.stdout.strip().splitlines()[:-1]
        for name, unit in expected:
            self.assertEqual(line["metrics"][name]["unit"], unit, name)
            self.assertTrue(any(row.split()[:1] == [name] and row.split()[-1] == unit
                                for row in table), name)
        return {name: m["value"] for name, m in line["metrics"].items()}

    def test_timed_run_prints_every_end_to_end_metric(self):
        for workload in derive.WORKLOADS + derive.EXTRA_WORKLOADS:
            with self.subTest(workload=workload):
                values = self.check_metrics(run(workload, 0), derive.END_TO_END)
                self.assertTrue(all(v > 0 for v in values.values()), values)

    def test_traced_run_prints_every_per_layer_metric(self):
        domains = {"cell_par_ct2": 2, "cell_qadp": 1, "campaign_lu": 1}
        for workload in derive.WORKLOADS + derive.EXTRA_WORKLOADS:
            with self.subTest(workload=workload):
                values = self.check_metrics(run(workload, 1), derive.PER_LAYER)
                self.assertEqual(values["pdes.domains"], domains[workload])
                self.assertEqual(values["fail_frac"], 0)
                self.assertGreater(values["sim.queue_ns_per_op"], 0)
        campaign = last_json(run("campaign_lu", 1).stdout)["metrics"]
        self.assertEqual(campaign["blueprint.cache_misses"]["value"], 4)
        self.assertEqual(campaign["blueprint.cache_hits"]["value"], 8)
        self.assertEqual(campaign["campaign.attempts"]["value"], 12)

    def test_wrong_expected_volume_fails_the_command(self):
        result = run("campaign_lu", 0, "--packet-offset", "1")
        self.assertNotEqual(result.returncode, 0)
        line = last_json(result.stdout)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], line["attempted"])
        self.assertIn("CHECK FAILED", result.stdout)

    def test_counters_that_differ_from_an_earlier_run_fail_the_command(self):
        record = ROOT / ".bench_build" / "perfbench" / "cell_qadp-tiny-seed11.counters.json"
        self.assertEqual(run("cell_qadp", 0).returncode, 0)  # records the counters
        saved = json.loads(record.read_text())
        try:
            saved["cells"][0]["events"] += 1
            record.write_text(json.dumps(saved))
            result = run("cell_qadp", 0)
            self.assertNotEqual(result.returncode, 0)
            self.assertFalse(last_json(result.stdout)["correct"])
            self.assertIn("deterministic counters differ", result.stdout)
        finally:
            record.unlink()

    def test_benchmark_alone_without_sources_fails_without_a_result(self):
        bare = ROOT / ".bench_build" / "perfbench" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH_DIR, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            result = run("cell_qadp", 0, cwd=bare)
            self.assertNotEqual(result.returncode, 0)
            self.assertNotIn('"correct"', result.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
