"""Derived metrics and output checks on hand-built inputs.

    python3 -m unittest discover -s perfbench/tests -v
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import derive  # noqa: E402

S = 1_000_000_000  # ns per second


def span(name, start_s, end_s, worker=0, cell=-1):
    return {"id": 0, "parent": -1, "name": name, "start_ns": int(start_s * S),
            "end_ns": int(end_s * S), "cell": cell, "worker": worker}


def app(name, packets, mb, hops=4.0, nonminimal=0.5, comm=0.1):
    return {"app": name, "nodes": 36, "packets": packets, "total_msg_mb": mb,
            "mean_hops": hops, "nonminimal_fraction": nonminimal, "comm_mean_ms": comm,
            "lat_p99_us": 5.0}


def cell(index, apps, events=1000, ran=True, completed=True, windows=0):
    return {"index": index, "routing": "PAR", "background": "-", "ran": ran, "error": "",
            "attempts": 1, "worker": 1, "setup_s": 0.001, "completed": completed,
            "events": events, "executed_by_kind": [0, 10, 20, 30, 40] + [0] * 12,
            "peak_queued": 77,
            "pdes": {"domains": 2 if windows else 1, "windows": windows,
                     "merged_events": events if windows else 0, "cross_domain_events": 5},
            "local_stall_ms": 0.5, "global_stall_ms": 0.1, "sys_lat_p99_us": 9.0,
            "apps": apps}


LU, UR = derive.EXPECTED_VOLUMES["tiny"]["LU"], derive.EXPECTED_VOLUMES["tiny"]["UR"]


class CampaignMetrics(unittest.TestCase):
    # Two workers over a 3 s campaign: worker 1 runs [0,2] then [2,3];
    # worker 2 runs [0,1.5] and then idles.
    CELLS = [span("cell", 0, 2, worker=1), span("cell", 2, 3, worker=1),
             span("cell", 0, 1.5, worker=2)]

    def test_busy_frac_is_cell_time_over_jobs_times_wall(self):
        self.assertAlmostEqual(derive.busy_frac(self.CELLS, 2, 3.0), 4.5 / 6.0)

    def test_busy_frac_of_one_cell_filling_the_wall_is_one(self):
        self.assertAlmostEqual(derive.busy_frac([span("cell", 1, 3)], 1, 2.0), 1.0)

    def test_busy_frac_without_capacity_is_zero(self):
        self.assertEqual(derive.busy_frac(self.CELLS, 0, 3.0), 0.0)
        self.assertEqual(derive.busy_frac(self.CELLS, 2, 0.0), 0.0)

    def test_tail_starts_when_the_first_worker_goes_idle_for_good(self):
        self.assertAlmostEqual(derive.tail_s(self.CELLS, 3 * S), 1.5)

    def test_tail_counts_time_after_the_last_cell(self):
        self.assertAlmostEqual(derive.tail_s([span("cell", 0, 1, worker=1)], int(1.25 * S)), 0.25)

    def test_tail_of_no_cells_is_zero(self):
        self.assertEqual(derive.tail_s([], 3 * S), 0.0)


class SimpleRatios(unittest.TestCase):
    def test_events_per_hop(self):
        self.assertAlmostEqual(derive.events_per_hop(72, 20), 3.6)
        self.assertEqual(derive.events_per_hop(72, 0), 0.0)

    def test_fail_frac(self):
        self.assertAlmostEqual(derive.fail_frac(3, 12), 0.25)
        self.assertEqual(derive.fail_frac(0, 12), 0.0)
        self.assertEqual(derive.fail_frac(0, 0), 1.0)  # nothing ran: nothing succeeded

    def test_steal_frac_uses_the_eighth_counter(self):
        before = [100, 0, 50, 800, 0, 0, 0, 10, 0, 0]
        after = [160, 0, 70, 900, 0, 0, 0, 30, 0, 0]
        self.assertAlmostEqual(derive.steal_frac(before, after), 20 / 200)
        self.assertEqual(derive.steal_frac(before, before), 0.0)


class Repetitions(unittest.TestCase):
    def test_short_workloads_repeat_to_the_nearest_whole_count(self):
        # 15 s repetitions in 40 s: three (45 s) is nearer than two (30 s).
        self.assertTrue(derive.another_repetition(15, [15], 40, 165))
        self.assertTrue(derive.another_repetition(30, [15, 15], 40, 165))
        self.assertFalse(derive.another_repetition(45, [15, 15, 15], 40, 165))

    def test_a_repetition_past_half_its_length_over_is_not_started(self):
        self.assertFalse(derive.another_repetition(28, [28], 40, 165))
        self.assertTrue(derive.another_repetition(23, [23], 40, 165))

    def test_overrun_and_deadline_cap_the_run(self):
        # 2 x 25 s = 50 s is nearer 40 s than 25 s, but ends past 1.2 x 40 s.
        self.assertFalse(derive.another_repetition(25, [25], 40, 165))
        self.assertFalse(derive.another_repetition(10, [10], 40, 15))


class OutputCheck(unittest.TestCase):
    def good(self):
        return cell(0, [app("LU", LU[0], LU[1]), app("UR", UR[0], UR[1])])

    def test_expected_volumes_pass(self):
        self.assertEqual(derive.check_cell(self.good(), "tiny"), [])

    def test_wrong_packet_count_fails(self):
        bad = self.good()
        bad["apps"][1]["packets"] += 1
        self.assertEqual(len(derive.check_cell(bad, "tiny")), 1)

    def test_shifted_expectation_fails_every_app(self):
        self.assertEqual(len(derive.check_cell(self.good(), "tiny", packet_offset=1)), 2)

    def test_wrong_volume_fails(self):
        bad = self.good()
        bad["apps"][0]["total_msg_mb"] += 0.001
        self.assertEqual(len(derive.check_cell(bad, "tiny")), 1)

    def test_incomplete_cell_fails(self):
        bad = self.good()
        bad["completed"] = False
        self.assertIn("completed=false", derive.check_cell(bad, "tiny")[0])

    def test_thrown_cell_fails(self):
        bad = self.good()
        bad["ran"], bad["error"] = False, "boom"
        self.assertIn("boom", derive.check_cell(bad, "tiny")[0])

    def test_unknown_app_fails(self):
        bad = cell(0, [app("DL", 1, 1.0)])
        self.assertEqual(len(derive.check_cell(bad, "tiny")), 1)

    def test_counter_mismatch_is_reported_per_cell(self):
        raw = {"cells": [self.good(), self.good()]}
        reference = derive.counters_of(raw)
        raw["cells"][1]["events"] += 1
        self.assertEqual(derive.counter_mismatches(reference, raw["cells"]), [1])

    def test_counters_ignore_host_dependent_fields(self):
        raw = {"cells": [self.good()]}
        reference = derive.counters_of(raw)
        raw["cells"][0]["setup_s"] = 9.0
        raw["cells"][0]["worker"] = 2
        self.assertEqual(derive.counter_mismatches(reference, raw["cells"]), [])


class PerLayer(unittest.TestCase):
    def test_every_metric_is_derived_from_a_traced_campaign(self):
        raw = {
            "jobs": 2, "wall_s": 3.0, "blueprint_hits": 1, "blueprint_misses": 1,
            "routing_build_ms": 0.5, "queue_probe": {"ns_per_op": 120.0},
            "trace": {"overhead_ms": 0.2},
            "cells": [cell(0, [app("LU", 100, 1.0, hops=4.0, nonminimal=0.5, comm=0.2)],
                           events=1800),
                      cell(1, [app("LU", 100, 1.0, hops=5.0, nonminimal=0.0, comm=0.4),
                               app("UR", 200, 2.0, hops=2.0, nonminimal=1.0)],
                           events=1800, windows=9)],
        }
        spans = [
            span("run_plan", 0, 3),
            span("cell", 0, 2, worker=1, cell=0), span("cell", 0, 1, worker=2, cell=1),
            span("Study::run", 0.5, 1.5, worker=1, cell=0),
            span("Study::run", 0.2, 0.8, worker=2, cell=1),
            span("Study::Study", 0, 0.001, worker=1, cell=0),
            span("BlueprintCache::get_or_build", 0, 0.002, worker=1, cell=0),
            span("PlanSink::cell_done", 2, 2.003),
        ]
        values = derive.per_layer(raw, spans, {"steal_frac": 0.01, "loadavg1": 1.5},
                                  failed=0, attempted=2)
        self.assertEqual(sorted(values), sorted(name for name, _ in derive.PER_LAYER))
        self.assertEqual(values["sim.events"], 3600)
        self.assertEqual(values["sim.kind1_events"], 20)
        self.assertEqual(values["sim.kind4_events"], 80)
        self.assertEqual(values["net.packets"], 400)
        self.assertAlmostEqual(values["net.router_hops"], 400 + 500 + 400)
        self.assertAlmostEqual(values["net.events_per_hop"], 3600 / 1300)
        self.assertAlmostEqual(values["routing.nonminimal_frac"], (50 + 200) / 400)
        self.assertAlmostEqual(values["mpi.comm_mean_ms"], 0.3)
        self.assertAlmostEqual(values["sim.ns_per_event"], 1.6e9 / 3600)
        self.assertEqual(values["pdes.domains"], 2)
        self.assertAlmostEqual(values["pdes.events_per_window"], 200)
        self.assertAlmostEqual(values["campaign.busy_frac"], 3.0 / 6.0)
        self.assertAlmostEqual(values["campaign.tail_s"], 2.0)
        self.assertAlmostEqual(values["campaign.cell_wall_s"], 1.5)
        self.assertAlmostEqual(values["campaign.cell_wall_max_s"], 2.0)
        self.assertAlmostEqual(values["campaign.sink_ms"], 3.0)
        self.assertAlmostEqual(values["blueprint.build_ms"], 2.0)
        self.assertEqual(values["campaign.attempts"], 2)
        self.assertEqual(values["fail_frac"], 0.0)
        self.assertEqual(values["trace.wall_s"], 3.0)


if __name__ == "__main__":
    unittest.main()
