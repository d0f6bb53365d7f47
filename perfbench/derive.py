"""Metric definitions, output checks and derivations for the dfsim benchmark.

Everything here is a pure function of dfbench's JSON result, its span file
and the host samples that run.py takes, so tests/test_derive.py can drive it
with hand-built inputs.
"""

import statistics

# The workloads BENCHMARK.json lists.
WORKLOADS = ("cell_par_ct2", "campaign_lu")
# Runnable by name but not listed: one cell_qadp run takes 35-60 s, too long
# to repeat inside the benchmark's time budget (see README.md, "Workloads").
EXTRA_WORKLOADS = ("cell_qadp",)

# (name, unit) of every reported metric, in print order. BENCHMARK.json lists
# the same names; tests/test_smoke.py checks that the two agree.
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("sim.events", "count"),
    ("sim.kind1_events", "count"),
    ("sim.kind2_events", "count"),
    ("sim.kind3_events", "count"),
    ("sim.kind4_events", "count"),
    ("sim.peak_queued", "count"),
    ("sim.ns_per_event", "ns/event"),
    ("sim.queue_ns_per_op", "ns/op"),
    ("pdes.domains", "count"),
    ("pdes.windows", "count"),
    ("pdes.merged_events", "count"),
    ("pdes.cross_domain_events", "count"),
    ("pdes.events_per_window", "events/window"),
    ("net.packets", "count"),
    ("net.router_hops", "count"),
    ("net.events_per_hop", "events/hop"),
    ("net.local_stall_ms", "sim_ms"),
    ("net.global_stall_ms", "sim_ms"),
    ("net.lat_p99_us", "sim_us"),
    ("routing.build_ms", "ms"),
    ("routing.nonminimal_frac", "ratio"),
    ("mpi.msg_mb", "MB"),
    ("mpi.comm_mean_ms", "sim_ms"),
    ("blueprint.build_ms", "ms"),
    ("blueprint.cache_hits", "count"),
    ("blueprint.cache_misses", "count"),
    ("study.ctor_ms", "ms"),
    ("study.add_app_ms", "ms"),
    ("study.run_s", "s"),
    ("study.report_ms", "ms"),
    ("study.teardown_ms", "ms"),
    ("campaign.cell_wall_s", "s"),
    ("campaign.cell_wall_max_s", "s"),
    ("campaign.busy_frac", "ratio"),
    ("campaign.tail_s", "s"),
    ("campaign.sink_ms", "ms"),
    ("campaign.attempts", "count"),
    ("host.steal_frac", "ratio"),
    ("host.loadavg1", "load"),
    ("fail_frac", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.wall_s", "s"),
]

UNITS = dict(END_TO_END + PER_LAYER)

# Per-app message volume of every job mix: (packets, total_msg_mb). Both are
# fixed by the application, its node count and the iteration scale (256), and
# do not depend on the seed or the routing.
EXPECTED_VOLUMES = {
    "paper": {
        "FFT3D": (2462592, 1229.43744),
        "Halo3D": (1185792, 603.979776),
        "LU": (363600, 186.1632),
        "UR": (88704, 45.416448),
    },
    "tiny": {
        "FFT3D": (38160, 19.0512),
        "Halo3D": (62532, 31.850496),
        "LU": (21600, 11.0592),
        "UR": (6048, 3.096576),
    },
}

MB_TOLERANCE = 1e-6


def check_cell(cell, topo, packet_offset=0):
    """Problems with one cell of a dfbench result ([] when it is correct).

    `packet_offset` shifts every expected packet count; the self-tests use
    it to prove that a wrong expectation fails the run.
    """
    if not cell["ran"]:
        return ["cell %d failed: %s" % (cell["index"], cell["error"] or "no report")]
    problems = []
    if not cell["completed"]:
        problems.append("cell %d reported completed=false" % cell["index"])
    expected = EXPECTED_VOLUMES[topo]
    for app in cell["apps"]:
        if app["app"] not in expected:
            problems.append("cell %d: no expected volume for %s" % (cell["index"], app["app"]))
            continue
        packets, mb = expected[app["app"]]
        packets += packet_offset
        if app["packets"] != packets:
            problems.append("cell %d: %s sent %d packets, expected %d"
                            % (cell["index"], app["app"], app["packets"], packets))
        if abs(app["total_msg_mb"] - mb) > MB_TOLERANCE:
            problems.append("cell %d: %s moved %.9g MB, expected %.9g"
                            % (cell["index"], app["app"], app["total_msg_mb"], mb))
    return problems


def deterministic_counters(cell):
    """The parts of a cell's result that must repeat exactly for a seed."""
    return {
        "completed": cell["completed"],
        "events": cell["events"],
        "executed_by_kind": cell["executed_by_kind"],
        "pdes": cell["pdes"],
        "local_stall_ms": cell["local_stall_ms"],
        "global_stall_ms": cell["global_stall_ms"],
        "sys_lat_p99_us": cell["sys_lat_p99_us"],
        "apps": cell["apps"],
    }


def counters_of(raw):
    """deterministic_counters of every cell (None for a cell that failed)."""
    return [deterministic_counters(c) if c["ran"] else None for c in raw["cells"]]


def counter_mismatches(reference, cells):
    """Indices of cells whose counters differ from a reference run's."""
    return [i for i, cell in enumerate(cells)
            if cell["ran"] and i < len(reference) and reference[i] is not None
            and deterministic_counters(cell) != reference[i]]


# A timed run never starts a repetition expected to end after this multiple
# of --seconds.
OVERRUN = 1.2


def another_repetition(elapsed_s, durations_s, seconds, deadline_s):
    """Whether a timed run starts one more repetition of its workload.

    It runs as many repetitions as fit in `seconds`, rounded to the nearest
    whole one and at least one, so that a workload shorter than `seconds`
    is measured several times and reported as a median. No repetition may
    be expected to end after OVERRUN x `seconds` or after `deadline_s`."""
    mean = sum(durations_s) / len(durations_s)
    end = elapsed_s + mean
    return end - mean / 2 <= seconds and end <= OVERRUN * seconds and end <= deadline_s


def fail_frac(failed, attempted):
    return failed / attempted if attempted else 1.0


def events_per_hop(events, router_hops):
    return events / router_hops if router_hops else 0.0


def span_seconds(span):
    return (span["end_ns"] - span["start_ns"]) * 1e-9


def busy_frac(cell_spans, jobs, wall_s):
    """Sum of cell walls over the capacity the campaign held (jobs x wall)."""
    if jobs <= 0 or wall_s <= 0:
        return 0.0
    return sum(span_seconds(s) for s in cell_spans) / (jobs * wall_s)


def tail_s(cell_spans, campaign_end_ns):
    """Campaign wall after the first worker went idle for good: the end of
    the campaign minus the earliest of the workers' last cell ends."""
    last_end = {}
    for span in cell_spans:
        last_end[span["worker"]] = max(last_end.get(span["worker"], 0), span["end_ns"])
    if not last_end:
        return 0.0
    return max(0.0, (campaign_end_ns - min(last_end.values())) * 1e-9)


def steal_frac(before, after):
    """Share of CPU ticks stolen by the hypervisor between two /proc/stat
    'cpu' rows (lists of tick counters; the 8th counter is steal)."""
    delta = [b - a for a, b in zip(before[:8], after[:8])]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def _sum_spans(spans, name, scale=1.0):
    return sum(span_seconds(s) for s in spans if s["name"] == name) * scale


def per_layer(raw, spans, host, failed, attempted):
    """Every PER_LAYER metric from one traced dfbench run."""
    cells = [c for c in raw["cells"] if c["ran"]]
    events = sum(c["events"] for c in cells)
    packets = sum(a["packets"] for c in cells for a in c["apps"])
    hops = sum(a["packets"] * a["mean_hops"] for c in cells for a in c["apps"])
    nonminimal = sum(a["packets"] * a["nonminimal_fraction"] for c in cells for a in c["apps"])
    windows = sum(c["pdes"]["windows"] for c in cells)
    pdes_events = sum(c["events"] for c in cells if c["pdes"]["windows"])

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    cell_spans = [s for s in spans if s["name"] == "cell"]
    cell_walls = [span_seconds(s) for s in cell_spans]
    campaign = [s for s in spans if s["name"] == "run_plan"] or \
        [s for s in spans if s["name"] == "workload"]
    campaign_wall = span_seconds(campaign[0]) if campaign else 0.0
    campaign_end = campaign[0]["end_ns"] if campaign else 0
    run_s = _sum_spans(spans, "Study::run")

    values = {
        "sim.events": events,
        "sim.peak_queued": max((c["peak_queued"] for c in cells), default=0),
        "sim.ns_per_event": run_s * 1e9 / events if events else 0.0,
        "sim.queue_ns_per_op": raw["queue_probe"]["ns_per_op"],
        "pdes.domains": max((c["pdes"]["domains"] for c in cells), default=0),
        "pdes.windows": windows,
        "pdes.merged_events": sum(c["pdes"]["merged_events"] for c in cells),
        "pdes.cross_domain_events": sum(c["pdes"]["cross_domain_events"] for c in cells),
        "pdes.events_per_window": pdes_events / windows if windows else 0.0,
        "net.packets": packets,
        "net.router_hops": hops,
        "net.events_per_hop": events_per_hop(events, hops),
        "net.local_stall_ms": mean([c["local_stall_ms"] for c in cells]),
        "net.global_stall_ms": mean([c["global_stall_ms"] for c in cells]),
        "net.lat_p99_us": mean([c["sys_lat_p99_us"] for c in cells]),
        "routing.build_ms": raw["routing_build_ms"],
        "routing.nonminimal_frac": nonminimal / packets if packets else 0.0,
        "mpi.msg_mb": mean([c["apps"][0]["total_msg_mb"] for c in cells]),
        "mpi.comm_mean_ms": mean([c["apps"][0]["comm_mean_ms"] for c in cells]),
        "blueprint.build_ms": (_sum_spans(spans, "SystemBlueprint::build", 1e3) +
                               _sum_spans(spans, "BlueprintCache::get_or_build", 1e3)),
        "blueprint.cache_hits": raw["blueprint_hits"],
        "blueprint.cache_misses": raw["blueprint_misses"],
        "study.ctor_ms": _sum_spans(spans, "Study::Study", 1e3),
        "study.add_app_ms": _sum_spans(spans, "Study::add_app", 1e3),
        "study.run_s": run_s,
        "study.report_ms": _sum_spans(spans, "Study::report", 1e3),
        "study.teardown_ms": _sum_spans(spans, "Study::~Study", 1e3),
        "campaign.cell_wall_s": statistics.median(cell_walls) if cell_walls else 0.0,
        "campaign.cell_wall_max_s": max(cell_walls, default=0.0),
        "campaign.busy_frac": busy_frac(cell_spans, raw["jobs"], campaign_wall),
        "campaign.tail_s": tail_s(cell_spans, campaign_end),
        "campaign.sink_ms": sum(span_seconds(s) for s in spans
                                if s["name"].startswith("PlanSink::")) * 1e3,
        "campaign.attempts": sum(c["attempts"] for c in raw["cells"]),
        "host.steal_frac": host["steal_frac"],
        "host.loadavg1": host["loadavg1"],
        "fail_frac": fail_frac(failed, attempted),
        "trace.overhead_ms": raw["trace"]["overhead_ms"],
        "trace.wall_s": raw["wall_s"],
    }
    for kind in range(1, 5):
        values["sim.kind%d_events" % kind] = sum(c["executed_by_kind"][kind] for c in cells)
    return values
