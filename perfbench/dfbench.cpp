// dfbench: runs one benchmark workload through dfsim's public API and prints
// one JSON object (the raw measurements) as its last stdout line.
//
//   dfbench --workload cell_par_ct2|cell_qadp|campaign_lu --seed N
//           [--mode timed|traced] [--topo paper|tiny]
//           [--spans FILE] [--jsonl FILE]
//
// Every layer is timed from outside: each public call the workload makes
// (SystemBlueprint::build, BlueprintCache::get_or_build, Study::Study,
// Study::add_app, Study::run, Study::report, ~Study, run_plan, the sink,
// Engine::schedule_at/run in the queue probe, routing::make_routing) is
// wrapped in a span. Timed mode keeps only the durations it needs (wall and
// set-up); traced mode also records every span (name, start, end, parent,
// cell, worker) and writes them to --spans when the run ends. perfbench/run.py
// checks the outputs and derives the reported metrics from this JSON and the
// span file; see perfbench/README.md.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/blueprint.hpp"
#include "core/plan.hpp"
#include "core/study.hpp"
#include "routing/factory.hpp"
#include "sim/engine.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using dfly::Report;
using dfly::StudyConfig;

// --- spans -------------------------------------------------------------------

struct Span {
  int id{-1};
  int parent{-1};
  std::string name;
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  int cell{-1};
  int worker{-1};
};

/// Worker id of the calling thread: 0 for the main thread, 1.. for campaign
/// workers in the order they first run a cell.
thread_local int t_worker = 0;
/// Ids of the spans currently open on this thread (innermost last).
thread_local std::vector<int> t_open;

class Tracer {
 public:
  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }
  int next_id() { return next_id_.fetch_add(1); }
  void record(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  bool enabled_{false};
  Clock::time_point origin_{Clock::now()};
  std::atomic<int> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

Tracer g_tracer;

/// Times one public call. close() (or the destructor) ends the span and
/// returns its length in seconds; the span is recorded only when tracing.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, int cell) : name_(name), cell_(cell), start_(g_tracer.now_ns()) {
    if (g_tracer.enabled()) {
      id_ = g_tracer.next_id();
      parent_ = t_open.empty() ? -1 : t_open.back();
      t_open.push_back(id_);
    }
  }
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double close() {
    if (!open_) return seconds_;
    open_ = false;
    const std::int64_t end = g_tracer.now_ns();
    seconds_ = static_cast<double>(end - start_) * 1e-9;
    if (id_ >= 0) {
      t_open.pop_back();
      g_tracer.record(Span{id_, parent_, name_, start_, end, cell_, t_worker});
    }
    return seconds_;
  }

 private:
  const char* name_;
  int cell_;
  std::int64_t start_;
  int id_{-1};
  int parent_{-1};
  bool open_{true};
  double seconds_{0};
};

// --- JSON output -------------------------------------------------------------

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string num(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string num(std::uint64_t value) { return std::to_string(value); }

// --- workloads ---------------------------------------------------------------

struct AppSpec {
  std::string app;
  int nodes{0};
};

struct CellSpec {
  StudyConfig config;
  std::string background{"-"};  ///< campaign cells: the pairwise background
  std::vector<AppSpec> apps;
};

struct Workload {
  std::vector<CellSpec> cells;
  bool campaign{false};
  int jobs{1};
};

constexpr int kScale = 256;
constexpr int kCampaignJobs = 2;
/// Per-cell wall-clock watchdog: a hung cell becomes a recorded timeout
/// instead of overrunning the benchmark's time limit.
constexpr double kCellTimeoutS = 150;
/// Set-up-only passes before the measured run; setup_s is their median
/// together with the run's own set-up, because one set-up lasts milliseconds.
constexpr int kSetupPasses = 20;
/// Hold operations in the queue probe (about half a second).
constexpr std::uint64_t kProbeOps = 3000000;

Workload make_workload(const std::string& name, const std::string& topo, std::uint64_t seed) {
  StudyConfig base;
  base.topo = topo == "tiny" ? dfly::DragonflyParams::tiny() : dfly::DragonflyParams::paper();
  base.placement = dfly::PlacementPolicy::kRandom;
  base.seed = seed;
  base.scale = kScale;
  base.cell_threads = 1;
  base.wall_limit_s = kCellTimeoutS;
  const int half = base.topo.num_nodes() / 2;

  Workload workload;
  if (name == "cell_par_ct2" || name == "cell_qadp") {
    CellSpec cell;
    cell.config = base;
    cell.config.routing = name == "cell_par_ct2" ? "PAR" : "Q-adp";
    // Q-adp is not PDES-eligible: the request is kept so the cell picks up
    // intra-cell parallelism as soon as the routing becomes eligible.
    cell.config.cell_threads = 2;
    cell.apps = {{"FFT3D", half}, {"Halo3D", half}};
    workload.cells.push_back(cell);
  } else if (name == "campaign_lu") {
    workload.campaign = true;
    workload.jobs = kCampaignJobs;
    for (const char* routing : {"MIN", "UGALg", "PAR", "Q-adp"}) {
      for (const char* background : {"None", "UR", "LU"}) {
        CellSpec cell;
        cell.config = base;
        cell.config.routing = routing;
        cell.background = background;
        cell.apps = {{"LU", half}};
        if (cell.background != "None") cell.apps.push_back({background, half});
        workload.cells.push_back(cell);
      }
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return workload;
}

// --- one cell ----------------------------------------------------------------

struct CellResult {
  bool ran{false};
  std::string error;
  int attempts{0};
  int worker{0};
  double setup_s{0};
  Report report;
  dfly::EngineStats engine;
  std::size_t peak_queued{0};
  dfly::PdesStats pdes;
  std::shared_ptr<const dfly::SystemBlueprint> blueprint;
};

/// Resolve the blueprint, build the Study, run it and tear it down, with a
/// span around every public call. `cache` is the campaign's shared cache
/// (null for a single cell, which builds its blueprint directly).
void run_cell(const CellSpec& spec, int index, dfly::BlueprintCache* cache, CellResult& out) {
  ScopedSpan cell_span("cell", index);
  double setup = 0;
  std::shared_ptr<const dfly::SystemBlueprint> blueprint;
  if (cache != nullptr) {
    ScopedSpan span("BlueprintCache::get_or_build", index);
    blueprint = cache->get_or_build(spec.config);
    setup += span.close();
  } else {
    ScopedSpan span("SystemBlueprint::build", index);
    blueprint = dfly::SystemBlueprint::build(spec.config);
    setup += span.close();
  }
  std::optional<dfly::Study> study;
  {
    ScopedSpan span("Study::Study", index);
    study.emplace(spec.config, nullptr, blueprint);
    setup += span.close();
  }
  for (const AppSpec& app : spec.apps) {
    ScopedSpan span("Study::add_app", index);
    study->add_app(app.app, app.nodes);
    setup += span.close();
  }
  {
    ScopedSpan span("Study::run", index);
    out.report = study->run();
  }
  {
    ScopedSpan span("Study::report", index);
    (void)study->report();
  }
  {
    ScopedSpan span("Engine::stats", index);
    out.engine = study->engine().stats();
    out.peak_queued = study->engine().peak_queued();
  }
  {
    ScopedSpan span("Study::pdes", index);
    if (const dfly::PdesCell* pdes = study->pdes()) out.pdes = pdes->stats();
  }
  {
    ScopedSpan span("Study::~Study", index);
    study.reset();
  }
  out.setup_s = setup;
  out.blueprint = std::move(blueprint);
  out.worker = t_worker;
  out.ran = true;
}

/// Set-up only (blueprint + Study::Study + add_app, summed over the cells),
/// without running: repeated to give setup_s a median. A campaign pass uses
/// a fresh cache, so it pays the same misses and hits as run_plan does.
double setup_pass(const Workload& workload) {
  dfly::BlueprintCache cache;
  double total = 0;
  for (const CellSpec& spec : workload.cells) {
    const Clock::time_point start = Clock::now();
    const auto blueprint = workload.campaign ? cache.get_or_build(spec.config)
                                             : dfly::SystemBlueprint::build(spec.config);
    std::optional<dfly::Study> study;
    study.emplace(spec.config, nullptr, blueprint);
    for (const AppSpec& app : spec.apps) study->add_app(app.app, app.nodes);
    total += std::chrono::duration<double>(Clock::now() - start).count();
  }
  return total;
}

// --- campaign ----------------------------------------------------------------

/// Times the JSONL sink's per-cell writes and keeps run_plan's verdicts.
class TimedSink final : public dfly::PlanSink {
 public:
  TimedSink(dfly::PlanSink& inner, std::vector<CellResult>& results)
      : inner_(inner), results_(results) {}
  void begin(const dfly::ExperimentPlan& plan, const std::vector<dfly::PlanCell>& cells) override {
    ScopedSpan span("PlanSink::begin", -1);
    inner_.begin(plan, cells);
  }
  void cell_done(const dfly::PlanCell& cell, const Report& report) override {
    ScopedSpan span("PlanSink::cell_done", static_cast<int>(cell.index));
    inner_.cell_done(cell, report);
  }
  void cell_failed(const dfly::PlanCell& cell, const dfly::CellFailure& failure) override {
    CellResult& result = results_[cell.index];
    result.ran = false;
    result.error = failure.message.empty() ? "cell failed" : failure.message;
    inner_.cell_failed(cell, failure);
  }
  void end() override {
    ScopedSpan span("PlanSink::end", -1);
    inner_.end();
  }

 private:
  dfly::PlanSink& inner_;
  std::vector<CellResult>& results_;
};

void run_campaign(const Workload& workload, const std::string& jsonl_path,
                  std::vector<CellResult>& results, dfly::BlueprintCache::Stats& cache_stats) {
  std::vector<std::atomic<int>> attempts(workload.cells.size());
  std::atomic<int> next_worker{1};
  std::mutex cache_mutex;

  dfly::ExperimentPlan plan;
  plan.name = "campaign_lu";
  plan.mode = dfly::PlanMode::kCustom;
  for (const CellSpec& spec : workload.cells) plan.config_list.push_back(spec.config);
  plan.cell_timeout_s = kCellTimeoutS;
  plan.custom = [&](const dfly::PlanCell& cell) {
    if (t_worker == 0) t_worker = next_worker.fetch_add(1);
    attempts[cell.index].fetch_add(1);
    CellSpec spec = workload.cells[cell.index];
    spec.config = cell.config;
    dfly::BlueprintCache* cache = dfly::BlueprintCache::current();
    CellResult& result = results[cell.index];
    run_cell(spec, static_cast<int>(cell.index), cache, result);
    if (cache != nullptr) {
      // The cache dies with run_plan's runner. Every lookup has happened by
      // the time the last cell ends, so the largest reading is the final one.
      const dfly::BlueprintCache::Stats stats = cache->stats();
      std::lock_guard<std::mutex> lock(cache_mutex);
      if (stats.hits + stats.misses >= cache_stats.hits + cache_stats.misses) {
        cache_stats = stats;
      }
    }
    return result.report;
  };

  dfly::JsonlSink jsonl(jsonl_path);
  TimedSink sink(jsonl, results);
  dfly::RunPlanOptions options;
  options.jobs = workload.jobs;
  dfly::PlanOutcome outcome;
  {
    ScopedSpan span("run_plan", -1);
    outcome = dfly::run_plan(plan, sink, options);
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].attempts = attempts[i].load();
  }
  if (outcome.worker_errors.any()) {
    throw std::runtime_error("campaign infrastructure failure: " + outcome.worker_errors.summary());
  }
}

// --- queue probe -------------------------------------------------------------

/// A component that does no simulation work: each event it receives
/// schedules one successor (the classic "hold" operation: one pop plus one
/// push at a constant queue depth) until `remaining` runs out.
class HoldComponent final : public dfly::Component {
 public:
  HoldComponent(std::vector<dfly::SimTime> delays, std::uint64_t holds)
      : delays_(std::move(delays)), remaining_(holds) {}

  void handle(dfly::Engine& engine, const dfly::Event& event) override {
    if (remaining_ == 0) return;
    if (--remaining_ == 0) done_ = Clock::now();
    engine.schedule_at(engine.now() + delays_[event.a % delays_.size()], *this, 1,
                       event.a * 6364136223846793005ull + 1442695040888963407ull);
  }
  Clock::time_point done() const { return done_; }

 private:
  std::vector<dfly::SimTime> delays_;
  std::uint64_t remaining_;
  Clock::time_point done_{};
};

struct ProbeResult {
  std::size_t depth{0};
  std::uint64_t ops{0};
  double ns_per_op{0};
};

/// Engine::schedule_at + Engine::run at the workload's peak queue depth, with
/// the delays the workload's network uses (router pipeline, link latencies,
/// packet serialisation).
ProbeResult queue_probe(std::size_t depth, const dfly::NetConfig& net, std::uint64_t seed,
                        std::uint64_t holds) {
  const std::vector<dfly::SimTime> delays{net.router_latency, net.local_latency,
                                          net.global_latency, net.terminal_latency,
                                          net.packet_serialization()};
  dfly::SimTime horizon = 0;
  for (const dfly::SimTime delay : delays) horizon = std::max(horizon, delay);
  std::mt19937_64 rng(seed);
  dfly::Engine engine;
  HoldComponent hold(delays, holds);
  {
    ScopedSpan span("Engine::schedule_at", -1);
    for (std::size_t i = 0; i < depth; ++i) {
      engine.schedule_at(static_cast<dfly::SimTime>(rng() % static_cast<std::uint64_t>(horizon)),
                         hold, 1, rng());
    }
  }
  ProbeResult result;
  result.depth = depth;
  result.ops = holds;
  ScopedSpan span("Engine::run", -1);
  const Clock::time_point start = Clock::now();
  engine.run();
  result.ns_per_op =
      std::chrono::duration<double, std::nano>(hold.done() - start).count() /
      static_cast<double>(holds);
  return result;
}

/// routing::make_routing for every cell, against the cell's own blueprint
/// (Q-adp copies the shared initial Q-tables here).
double routing_build_ms(const Workload& workload, const std::vector<CellResult>& results) {
  double total = 0;
  for (std::size_t i = 0; i < workload.cells.size(); ++i) {
    const CellSpec& spec = workload.cells[i];
    const auto& blueprint = results[i].blueprint;
    if (blueprint == nullptr) continue;
    dfly::Engine engine;
    const dfly::routing::RoutingContext context{
        &engine,          &blueprint->topo(), &blueprint->net(), spec.config.seed,
        spec.config.ugal, spec.config.qadp,   blueprint->initial_qtables()};
    ScopedSpan span("routing::make_routing", static_cast<int>(i));
    auto routing = dfly::routing::make_routing(spec.config.routing, context);
    total += span.close() * 1e3;
  }
  return total;
}

/// Cost of the tracer itself: the per-span bookkeeping measured on dummy
/// spans, times the spans the run recorded.
double span_cost_ns() {
  constexpr int kSpans = 20000;
  Tracer scratch;
  scratch.enable();
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    const int id = scratch.next_id();
    const std::int64_t begin = scratch.now_ns();
    t_open.push_back(id);
    t_open.pop_back();
    scratch.record(Span{id, -1, "calibration", begin, scratch.now_ns(), -1, t_worker});
  }
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count() / kSpans;
}

// --- output ------------------------------------------------------------------

std::string cell_json(std::size_t index, const CellSpec& spec, const CellResult& result) {
  std::ostringstream out;
  const Report& report = result.report;
  out << "{\"index\":" << index << ",\"routing\":" << quote(spec.config.routing)
      << ",\"background\":" << quote(spec.background) << ",\"ran\":" << (result.ran ? "true" : "false")
      << ",\"error\":" << quote(result.error) << ",\"attempts\":" << result.attempts
      << ",\"worker\":" << result.worker << ",\"setup_s\":" << num(result.setup_s)
      << ",\"completed\":" << (report.completed ? "true" : "false")
      << ",\"events\":" << num(report.events_executed) << ",\"executed_by_kind\":[";
  for (std::size_t k = 0; k < result.engine.executed_by_kind.size(); ++k) {
    out << (k ? "," : "") << result.engine.executed_by_kind[k];
  }
  out << "],\"peak_queued\":" << result.peak_queued << ",\"pdes\":{\"domains\":"
      << result.pdes.num_domains << ",\"windows\":" << result.pdes.windows
      << ",\"merged_events\":" << result.pdes.merged_events
      << ",\"cross_domain_events\":" << result.pdes.cross_domain_events << "}"
      << ",\"local_stall_ms\":" << num(report.local_stall_ms)
      << ",\"global_stall_ms\":" << num(report.global_stall_ms)
      << ",\"sys_lat_p99_us\":" << num(report.sys_lat_p99_us) << ",\"apps\":[";
  for (std::size_t a = 0; a < report.apps.size(); ++a) {
    const dfly::AppReport& app = report.apps[a];
    out << (a ? "," : "") << "{\"app\":" << quote(app.app) << ",\"nodes\":" << app.nodes
        << ",\"packets\":" << num(app.packets) << ",\"total_msg_mb\":" << num(app.total_msg_mb)
        << ",\"mean_hops\":" << num(app.mean_hops)
        << ",\"nonminimal_fraction\":" << num(app.nonminimal_fraction)
        << ",\"comm_mean_ms\":" << num(app.comm_mean_ms)
        << ",\"lat_p99_us\":" << num(app.lat_p99_us) << "}";
  }
  out << "]}";
  return out.str();
}

void write_spans(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to '" + path + "'");
  for (const Span& span : g_tracer.spans()) {
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"name\":" << quote(span.name) << ",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"cell\":" << span.cell
        << ",\"worker\":" << span.worker << "}\n";
  }
  if (!out) throw std::runtime_error("short write to '" + path + "'");
}

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  std::string mode{"timed"};
  std::string topo{"paper"};
  std::string spans;
  std::string jsonl{"dfbench_campaign.jsonl"};
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--mode") args.mode = value;
    else if (flag == "--topo") args.topo = value;
    else if (flag == "--spans") args.spans = value;
    else if (flag == "--jsonl") args.jsonl = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (args.mode != "timed" && args.mode != "traced") {
    throw std::invalid_argument("--mode must be timed or traced");
  }
  if (args.topo != "paper" && args.topo != "tiny") {
    throw std::invalid_argument("--topo must be paper or tiny");
  }
  if (args.mode == "traced" && args.spans.empty()) {
    throw std::invalid_argument("--mode traced needs --spans FILE");
  }
  return args;
}

int run(const Args& args) {
  const bool traced = args.mode == "traced";
  if (traced) g_tracer.enable();
  const Workload workload = make_workload(args.workload, args.topo, args.seed);

  std::vector<double> setup_samples;
  for (int i = 0; i < kSetupPasses; ++i) setup_samples.push_back(setup_pass(workload));

  std::vector<CellResult> results(workload.cells.size());
  dfly::BlueprintCache::Stats cache_stats;
  double wall_s = 0;
  if (workload.campaign) {
    ScopedSpan span("workload", -1);
    run_campaign(workload, args.jsonl, results, cache_stats);
    wall_s = span.close();
  } else {
    ScopedSpan span("workload", -1);
    // A single cell writes its result line through the same sink a campaign
    // uses, so campaign.sink_ms means the same on every workload.
    dfly::JsonlSink jsonl(args.jsonl);
    TimedSink sink(jsonl, results);
    for (std::size_t i = 0; i < workload.cells.size(); ++i) {
      results[i].attempts = 1;
      try {
        run_cell(workload.cells[i], static_cast<int>(i), nullptr, results[i]);
        dfly::PlanCell cell;
        cell.index = i;
        cell.config = workload.cells[i].config;
        for (const AppSpec& app : workload.cells[i].apps) cell.jobs.push_back({app.app, app.nodes});
        sink.cell_done(cell, results[i].report);
      } catch (const std::exception& error) {
        results[i].ran = false;
        results[i].error = error.what();
      }
    }
    wall_s = span.close();
    cache_stats.misses = workload.cells.size();
  }
  double setup_s = 0;
  for (const CellResult& result : results) setup_s += result.setup_s;
  setup_samples.push_back(setup_s);

  std::ostringstream out;
  out << "{\"workload\":" << quote(args.workload) << ",\"seed\":" << args.seed
      << ",\"mode\":" << quote(args.mode) << ",\"topo\":" << quote(args.topo)
      << ",\"jobs\":" << workload.jobs << ",\"wall_s\":" << num(wall_s) << ",\"setup_s_samples\":[";
  for (std::size_t i = 0; i < setup_samples.size(); ++i) {
    out << (i ? "," : "") << num(setup_samples[i]);
  }
  out << "],\"blueprint_hits\":" << cache_stats.hits
      << ",\"blueprint_misses\":" << cache_stats.misses << ",\"cells\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out << (i ? "," : "") << cell_json(i, workload.cells[i], results[i]);
  }
  out << "]";

  if (traced) {
    out << ",\"routing_build_ms\":" << num(routing_build_ms(workload, results));
    std::size_t depth = 0;
    for (const CellResult& result : results) depth = std::max(depth, result.peak_queued);
    const ProbeResult probe = queue_probe(std::max<std::size_t>(depth, 1),
                                          workload.cells.front().config.net, args.seed,
                                          kProbeOps);
    out << ",\"queue_probe\":{\"depth\":" << probe.depth << ",\"ops\":" << probe.ops
        << ",\"ns_per_op\":" << num(probe.ns_per_op) << "}";
    const std::size_t spans = g_tracer.spans().size();
    const Clock::time_point dump_start = Clock::now();
    write_spans(args.spans);
    const double dump_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - dump_start).count();
    out << ",\"trace\":{\"spans\":" << spans << ",\"overhead_ms\":"
        << num(dump_ms + static_cast<double>(spans) * span_cost_ns() * 1e-6) << "}";
  }
  out << "}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "dfbench: " << error.what() << "\n";
    return 1;
  }
}
