#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/arena.hpp"
#include "core/blueprint.hpp"
#include "core/json_report.hpp"
#include "core/mixed.hpp"
#include "core/pairwise.hpp"
#include "core/plan.hpp"
#include "core/study.hpp"
#include "core/sweep.hpp"

namespace dfly {
namespace {

StudyConfig tiny_config(const std::string& routing = "UGALg") {
  StudyConfig config;
  config.topo = DragonflyParams::tiny();
  config.routing = routing;
  config.scale = 64;
  return config;
}

Report tiny_experiment(std::uint64_t seed) {
  StudyConfig config = tiny_config();
  config.seed = seed;
  Study study(config);
  study.add_app("UR", 32);
  return study.run();
}

TEST(ParallelRunner, MapReturnsResultsInTaskOrder) {
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back([i] { return i * i; });
  }
  const std::vector<int> results = ParallelRunner(4).map(tasks);
  ASSERT_EQ(results.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(results[static_cast<std::size_t>(i)], i * i);
}

TEST(ParallelRunner, RunIndexedCoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  for (auto& hit : hits) hit = 0;
  ParallelRunner(8).run_indexed(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelRunner, SequentialWhenJobsIsOne) {
  const std::thread::id caller = std::this_thread::get_id();
  ParallelRunner(1).run_indexed(16, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelRunner, PropagatesTheFirstException) {
  EXPECT_THROW(ParallelRunner(4).run_indexed(32,
                                             [](std::size_t i) {
                                               if (i == 7) {
                                                 throw std::runtime_error("cell 7 failed");
                                               }
                                             }),
               std::runtime_error);
}

TEST(ParallelRunner, CollectModeAttemptsEveryIndexAndRecordsEachFailure) {
  // errors != nullptr: no early stop, no rethrow — every index runs, each
  // worker's failure count and first message land in the WorkerErrors.
  std::vector<std::atomic<int>> hits(64);
  for (auto& hit : hits) hit = 0;
  WorkerErrors errors;
  ParallelRunner(4).run_indexed(
      hits.size(),
      [&](std::size_t i) {
        ++hits[i];
        if (i % 7 == 3) throw std::runtime_error("index " + std::to_string(i));
      },
      &errors);
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);  // nothing skipped
  std::size_t expected = 0;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (i % 7 == 3) ++expected;
  }
  EXPECT_EQ(errors.total(), expected);
  EXPECT_TRUE(errors.any());
  EXPECT_NE(errors.summary().find("failure"), std::string::npos);
}

TEST(ParallelRunner, CollectModeSequentialKeepsGoingAndKeepsTheFirstMessage) {
  WorkerErrors errors;
  int calls = 0;
  ParallelRunner(1).run_indexed(
      8,
      [&](std::size_t i) {
        ++calls;
        if (i == 2 || i == 5) throw std::runtime_error("boom at " + std::to_string(i));
      },
      &errors);
  EXPECT_EQ(calls, 8);
  EXPECT_EQ(errors.total(), 2u);
  ASSERT_EQ(errors.workers.size(), 1u);
  EXPECT_EQ(errors.workers[0].failures, 2u);
  EXPECT_NE(errors.workers[0].first.find("boom at 2"), std::string::npos);
}

TEST(ParallelRunner, CollectModeIsEmptyOnACleanRun) {
  WorkerErrors errors;
  ParallelRunner(4).run_indexed(32, [](std::size_t) {}, &errors);
  EXPECT_FALSE(errors.any());
  EXPECT_EQ(errors.total(), 0u);
  EXPECT_TRUE(errors.summary().empty());
}

TEST(ParallelRunner, ResolveJobsPrefersExplicitThenEnvThenFallback) {
  const char* saved = std::getenv("DFSIM_JOBS");
  const std::string saved_value = saved ? saved : "";

  ::setenv("DFSIM_JOBS", "7", 1);
  EXPECT_EQ(ParallelRunner::resolve_jobs(3, 1), 3);  // explicit wins
  EXPECT_EQ(ParallelRunner::resolve_jobs(0, 1), 7);  // env next
  EXPECT_EQ(ParallelRunner(0).jobs(), 7);

  ::unsetenv("DFSIM_JOBS");
  EXPECT_EQ(ParallelRunner::resolve_jobs(0, 2), 2);
  EXPECT_EQ(ParallelRunner::resolve_jobs(0, 0), 1);  // fallback clamped to 1

  if (saved) {
    ::setenv("DFSIM_JOBS", saved_value.c_str(), 1);
  }
}

// A malformed DFSIM_JOBS used to be swallowed silently — std::atoi turned
// "4x" into 4 workers and "abc" into the fallback, so a typo'd environment
// ran with the wrong parallelism and nobody noticed. It now fails loudly,
// full-string and positive-only, like any bad config value.
TEST(ParallelRunner, ResolveJobsRejectsMalformedEnvLoudly) {
  const char* saved = std::getenv("DFSIM_JOBS");
  const std::string saved_value = saved ? saved : "";

  for (const char* bad : {"not-a-number", "4x", "", " 4", "0", "-3", "1e3",
                          "99999999999999999999"}) {
    ::setenv("DFSIM_JOBS", bad, 1);
    EXPECT_THROW(ParallelRunner::resolve_jobs(0, 5), std::invalid_argument) << bad;
    // An explicit request never consults the env, so it still works.
    EXPECT_EQ(ParallelRunner::resolve_jobs(3, 5), 3) << bad;
  }

  if (saved) {
    ::setenv("DFSIM_JOBS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("DFSIM_JOBS");
  }
}

TEST(ParallelRunner, HardwareJobsIsAtLeastOneAndMemoryCapped) {
  // The worker cap is no longer a fixed 12: with the read-only plan factored
  // into the shared SystemBlueprint, it derives from physical memory at
  // kCellBudgetBytes per in-flight cell (clamped to [1, 256]; 12 remains the
  // fallback when the platform cannot report memory).
  const int cap = ParallelRunner::memory_jobs_cap();
  EXPECT_GE(cap, 1);
  EXPECT_LE(cap, 256);
  const int jobs = ParallelRunner::hardware_jobs();
  EXPECT_GE(jobs, 1);
  EXPECT_LE(jobs, cap);
}

/// A six-seed sweep of tiny_experiment's cell through run_plan, reduced the
/// way `dflysim --sweep` reduces it.
SweepSummary tiny_sweep(int jobs) {
  ExperimentPlan plan;
  plan.base = tiny_config();
  plan.mode = PlanMode::kSingle;
  plan.jobs = {{"UR", 32}};
  plan.seeds = {42, 43, 44, 45, 46, 47};
  CollectSink sink;
  run_plan(plan, sink, jobs).rethrow_any();
  return aggregate_sweep(sink.reports());
}

// The acceptance bar for the parallel sweep: four workers must produce a
// SweepSummary whose JSON serialisation is byte-identical to a sequential
// run — same seeds, same cells, same aggregation order.
TEST(SweepParallelDeterminism, FourJobsByteIdenticalToSequential) {
  const SweepSummary sequential = tiny_sweep(1);
  const SweepSummary parallel = tiny_sweep(4);

  EXPECT_EQ(sweep_to_json(sequential), sweep_to_json(parallel));

  // Spot-check raw doubles bitwise via exact equality as well, in case the
  // JSON formatter ever rounds.
  EXPECT_EQ(sequential.makespan_ms.mean, parallel.makespan_ms.mean);
  EXPECT_EQ(sequential.makespan_ms.stddev, parallel.makespan_ms.stddev);
  EXPECT_EQ(sequential.sys_lat_p99_us.ci95_half, parallel.sys_lat_p99_us.ci95_half);
  EXPECT_EQ(sequential.completed_runs, parallel.completed_runs);
  ASSERT_EQ(sequential.apps.size(), parallel.apps.size());
  for (std::size_t a = 0; a < sequential.apps.size(); ++a) {
    EXPECT_EQ(sequential.apps[a].app, parallel.apps[a].app);
    EXPECT_EQ(sequential.apps[a].comm_ms.mean, parallel.apps[a].comm_ms.mean);
    EXPECT_EQ(sequential.apps[a].lat_p99_us.max, parallel.apps[a].lat_p99_us.max);
  }
}

/// tiny_sweep's six cells run one after another on the calling thread under
/// the given bindings (nullptr binds nothing), reduced the same way.
std::string direct_sweep_json(SimArena* arena, BlueprintCache* cache) {
  const ScopedArenaBinding arena_binding(arena);
  const ScopedBlueprintCacheBinding cache_binding(cache);
  std::vector<Report> reports;
  for (std::uint64_t seed = 42; seed <= 47; ++seed) reports.push_back(tiny_experiment(seed));
  return sweep_to_json(aggregate_sweep(reports));
}

// Arena reuse must be invisible in the output: the same sweep with storage
// reuse ON (one arena carried across every cell; run_plan's per-worker
// arenas at one and four workers) and OFF (fresh cells, nothing bound)
// serialises to the same bytes. A state leak across cells would break this.
TEST(SweepParallelDeterminism, ArenaOnAndOffByteIdenticalForAnyWorkerCount) {
  ASSERT_EQ(SimArena::current(), nullptr);
  const std::string fresh = direct_sweep_json(nullptr, nullptr);

  SimArena arena;
  EXPECT_EQ(direct_sweep_json(&arena, nullptr), fresh);
  EXPECT_EQ(arena.stats().cells, 6u);  // one arena carried across all six cells
  EXPECT_EQ(sweep_to_json(tiny_sweep(1)), fresh);
  EXPECT_EQ(sweep_to_json(tiny_sweep(4)), fresh);
}

// Blueprint sharing must be invisible in the output: the same sweep with
// cross-cell plan sharing ON (one cache across every cell; run_plan's shared
// cache at one and four workers) and OFF (a private plan per cell), and in
// combination with arena reuse, serialises to the same bytes.
TEST(SweepParallelDeterminism, BlueprintOnAndOffByteIdenticalForAnyWorkerCount) {
  ASSERT_EQ(BlueprintCache::current(), nullptr);
  const std::string fresh = direct_sweep_json(nullptr, nullptr);

  BlueprintCache cache;
  EXPECT_EQ(direct_sweep_json(nullptr, &cache), fresh);
  EXPECT_EQ(cache.stats().misses, 1u);  // one shape, built once ...
  EXPECT_EQ(cache.stats().hits, 5u);    // ... and shared by the other cells
  EXPECT_EQ(sweep_to_json(tiny_sweep(1)), fresh);
  EXPECT_EQ(sweep_to_json(tiny_sweep(4)), fresh);

  // The two kinds of reuse compose.
  SimArena arena;
  EXPECT_EQ(direct_sweep_json(&arena, &cache), fresh);
}

TEST(PairwiseParallelDeterminism, BlueprintOnAndOffByteIdenticalForAnyWorkerCount) {
  ExperimentPlan plan;
  plan.base = tiny_config();
  plan.mode = PlanMode::kPairwise;
  plan.routings = {"MIN", "UGALg"};
  plan.targets = {"UR"};
  plan.backgrounds = {"None", "CosmoFlow"};
  const auto direct_json = [&](BlueprintCache* cache) {
    const ScopedBlueprintCacheBinding binding(cache);
    std::string out;
    for (const PlanCell& cell : plan.expand()) {
      out += report_to_json(run_pairwise(cell.config, cell.target, cell.background).full);
    }
    return out;
  };
  const auto planned_json = [&](int jobs) {
    CollectSink sink;
    run_plan(plan, sink, jobs).rethrow_any();
    std::string out;
    for (const Report& report : sink.reports()) out += report_to_json(report);
    return out;
  };

  ASSERT_EQ(BlueprintCache::current(), nullptr);
  const std::string fresh = direct_json(nullptr);
  BlueprintCache cache;
  EXPECT_EQ(direct_json(&cache), fresh);
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_EQ(planned_json(1), fresh);
  EXPECT_EQ(planned_json(4), fresh);
}

TEST(MixedParallelDeterminism, BlueprintOnAndOffByteIdenticalForAnyWorkerCount) {
  // The Fig 10 driver needs the full 1,056-node machine (Table II node
  // counts), so cap the simulated clock hard: the comparison needs identical
  // bytes, not converged runs, and every truncated cell still exercises the
  // shared plan through build, placement and early traffic.
  StudyConfig config;
  config.topo = DragonflyParams::paper();
  config.routing = "UGALg";
  config.scale = 256;
  config.time_limit = 20 * kUs;
  const auto direct_json = [&](BlueprintCache* cache) {
    const ScopedBlueprintCacheBinding binding(cache);
    std::string out = report_to_json(run_mixed(config));
    for (const MixedJobSpec& spec : table2_mix()) {
      out += report_to_json(run_mixed_solo(config, spec.app));
    }
    return out;
  };
  ExperimentPlan plan;
  plan.base = config;
  plan.mode = PlanMode::kMixed;
  plan.mixed_solos = true;
  const auto planned_json = [&](int jobs) {
    CollectSink sink;
    run_plan(plan, sink, jobs).rethrow_any();
    std::string out;
    for (const Report& report : sink.reports()) out += report_to_json(report);
    return out;
  };

  ASSERT_EQ(BlueprintCache::current(), nullptr);
  const std::string fresh = direct_json(nullptr);
  BlueprintCache cache;
  EXPECT_EQ(direct_json(&cache), fresh);
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_EQ(planned_json(1), fresh);
  EXPECT_EQ(planned_json(4), fresh);
}

// A pairwise plan at two workers: every cell matches run_pairwise built
// from scratch for the same routing, target and background.
TEST(PairwiseParallelDeterminism, CellBatchMatchesIndividualRuns) {
  ExperimentPlan plan;
  plan.base = tiny_config();
  plan.mode = PlanMode::kPairwise;
  plan.routings = {"MIN", "UGALg"};
  plan.targets = {"UR"};
  plan.backgrounds = {"None", "CosmoFlow"};
  CollectSink sink;
  run_plan(plan, sink, 2).rethrow_any();
  ASSERT_EQ(sink.reports().size(), 4u);
  for (const PlanCell& cell : sink.cells()) {
    const PairwiseResult solo =
        run_pairwise(tiny_config(cell.config.routing), cell.target, cell.background);
    EXPECT_EQ(report_to_json(sink.reports()[cell.index]), report_to_json(solo.full))
        << "cell " << cell.index;
  }
}

// --- SubmissionQueue: the daemon's persistent pool ---------------------------

TEST(SubmissionQueue, RunsEveryIndexExactlyOnce) {
  SubmissionQueue queue(3);
  EXPECT_EQ(queue.jobs(), 3);
  std::vector<std::atomic<int>> hits(100);
  queue.run_indexed(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  // The pool survives between submissions — a second batch reuses it.
  std::atomic<int> total{0};
  queue.run_indexed(17, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 17);
}

TEST(SubmissionQueue, ConcurrentSubmissionsInterleaveAndBothComplete) {
  SubmissionQueue queue(2);
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  std::thread first([&] { queue.run_indexed(40, [&](std::size_t) { a.fetch_add(1); }); });
  std::thread second([&] { queue.run_indexed(40, [&](std::size_t) { b.fetch_add(1); }); });
  first.join();
  second.join();
  EXPECT_EQ(a.load(), 40);
  EXPECT_EQ(b.load(), 40);
}

TEST(SubmissionQueue, CollectsExceptionsLikeParallelRunnerCollectMode) {
  SubmissionQueue queue(1);
  WorkerErrors errors;
  std::atomic<int> calls{0};
  queue.run_indexed(
      8,
      [&](std::size_t i) {
        calls.fetch_add(1);
        if (i == 2 || i == 5) throw std::runtime_error("boom at " + std::to_string(i));
      },
      &errors);
  EXPECT_EQ(calls.load(), 8);  // nothing rethrown, every cell attempted
  EXPECT_EQ(errors.total(), 2u);
  ASSERT_EQ(errors.workers.size(), 1u);
  EXPECT_NE(errors.workers[0].first.find("boom at 2"), std::string::npos);
}

// The reason the queue exists: campaigns submitted one after the other share
// ONE BlueprintCache, so the second campaign of a given shape starts from a
// cache hit instead of rebuilding the topology plan.
TEST(SubmissionQueue, SharesOneBlueprintCacheAcrossSubmissions) {
  SubmissionQueue queue(2);
  const auto run_campaign = [&queue] {
    queue.run_indexed(4, [](std::size_t i) { tiny_experiment(42 + i); });
  };
  run_campaign();
  const BlueprintCache::Stats after_first = queue.cache().stats();
  EXPECT_EQ(after_first.misses, 1u);  // one shape, built once
  EXPECT_GE(after_first.hits, 3u);

  run_campaign();
  const BlueprintCache::Stats after_second = queue.cache().stats();
  EXPECT_EQ(after_second.misses, 1u);  // no rebuild: the cache carried over
  EXPECT_GE(after_second.hits, after_first.hits + 4);
}

// Arena reuse and blueprint sharing never change bytes: a report produced on
// the persistent pool is identical to a cold private run.
TEST(SubmissionQueue, PooledRunByteIdenticalToPrivateRun) {
  SubmissionQueue queue(2);
  std::vector<std::string> pooled(3);
  queue.run_indexed(pooled.size(),
                    [&](std::size_t i) { pooled[i] = report_to_json(tiny_experiment(7 + i)); });
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    EXPECT_EQ(pooled[i], report_to_json(tiny_experiment(7 + i))) << i;
  }
}

}  // namespace
}  // namespace dfly
