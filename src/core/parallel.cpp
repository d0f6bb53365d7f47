#include "core/parallel.hpp"

#include <unistd.h>

#include <atomic>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <thread>

#include "core/arena.hpp"
#include "core/blueprint.hpp"
#include "core/config_file.hpp"
#include "core/mutex.hpp"

namespace dfly {

ParallelRunner::ParallelRunner(int jobs) : jobs_(resolve_jobs(jobs, 1)) {}

int ParallelRunner::resolve_jobs(int requested, int fallback) {
  if (requested > 0) return requested;
  // Strict full-string parse: a typo'd environment ("4x", "abc") must fail
  // loudly, not silently run the wrong worker count.
  if (const char* env = std::getenv("DFSIM_JOBS")) {
    return static_cast<int>(parse_uint_named("DFSIM_JOBS", env, 1, INT_MAX));
  }
  return fallback < 1 ? 1 : fallback;
}

int ParallelRunner::resolve_cell_threads(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("DFSIM_CELL_THREADS")) {
    return static_cast<int>(parse_uint_named("DFSIM_CELL_THREADS", env, 1, INT_MAX));
  }
  return 1;
}

namespace {

/// The memory actually available to THIS process: the host's physical RAM,
/// further limited by a cgroup memory ceiling when one is set (containers
/// and CI runners routinely cap a process far below the host's RAM, and
/// sysconf reports the host). Returns 0 when nothing can be determined.
std::uint64_t available_memory_bytes() {
  std::uint64_t physical = 0;
#if defined(_SC_PHYS_PAGES) && defined(_SC_PAGE_SIZE)
  const long pages = ::sysconf(_SC_PHYS_PAGES);
  const long page = ::sysconf(_SC_PAGE_SIZE);
  if (pages > 0 && page > 0) {
    physical = static_cast<std::uint64_t>(pages) * static_cast<std::uint64_t>(page);
  }
#endif
  // cgroup v2, then v1. The files hold a byte count, "max" (no limit), or a
  // value so large it means "no limit" — anything unparsable is ignored.
  for (const char* path : {"/sys/fs/cgroup/memory.max",
                           "/sys/fs/cgroup/memory/memory.limit_in_bytes"}) {
    std::FILE* f = std::fopen(path, "re");
    if (f == nullptr) continue;
    unsigned long long limit = 0;
    const int matched = std::fscanf(f, "%llu", &limit);
    std::fclose(f);
    if (matched == 1 && limit > 0 &&
        (physical == 0 || static_cast<std::uint64_t>(limit) < physical)) {
      physical = static_cast<std::uint64_t>(limit);
    }
    break;  // only consult the hierarchy that exists
  }
  return physical;
}

}  // namespace

int ParallelRunner::memory_jobs_cap(int cell_threads) {
  if (cell_threads < 1) cell_threads = 1;
  const std::uint64_t budget =
      kCellBudgetBytes + static_cast<std::uint64_t>(cell_threads - 1) * kDomainBudgetBytes;
  const std::uint64_t memory = available_memory_bytes();
  if (memory > 0) {
    const std::uint64_t cells = memory / 2 / budget;
    if (cells < 1) return 1;
    if (cells > 256) return 256;
    return static_cast<int>(cells);
  }
  return 12;  // the pre-blueprint fixed cap, kept as the conservative fallback
}

int ParallelRunner::hardware_jobs(int cell_threads) {
  if (cell_threads < 1) cell_threads = 1;
  int jobs = static_cast<int>(std::thread::hardware_concurrency()) / cell_threads;
  if (jobs < 1) jobs = 1;
  const int cap = memory_jobs_cap(cell_threads);
  return jobs < cap ? jobs : cap;
}

std::string WorkerErrors::summary() const {
  std::string out;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    if (workers[w].failures == 0) continue;
    if (!out.empty()) out += "; ";
    out += "worker " + std::to_string(w) + ": " + std::to_string(workers[w].failures) +
           (workers[w].failures == 1 ? " failure" : " failures") + ", first: " +
           workers[w].first;
  }
  return out;
}

namespace {

/// what() of the in-flight exception, with a stable spelling for non-
/// std::exception throwables.
std::string current_exception_message() {
  try {
    throw;
  } catch (const std::exception& error) {
    return error.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

void ParallelRunner::run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn,
                                 WorkerErrors* errors) const {
  if (errors != nullptr) errors->workers.clear();
  if (n == 0) return;
  const int workers = jobs_ < static_cast<int>(n) ? jobs_ : static_cast<int>(n);
  // stop_early: legacy mode — the first failure stops new claims and is
  // rethrown after the pool drains. With an errors sink the caller wants
  // every cell attempted and the full per-worker picture instead.
  const bool stop_early = errors == nullptr;
  WorkerErrors collected;
  collected.workers.resize(static_cast<std::size_t>(workers < 1 ? 1 : workers));
  // Each worker binds a persistent SimArena for its run: the first cell
  // grows the storage, every later cell on the same worker reuses it in
  // place. Reuse is output-neutral, so cell -> worker assignment never
  // affects results (see core/arena.hpp).
  //
  // All workers additionally share ONE BlueprintCache: the immutable
  // topology/wiring/routing plan of each distinct cell shape is built once
  // and read concurrently by every worker.
  BlueprintCache blueprint_cache;
  // The cross-worker error channel, shaped so the thread-safety analysis can
  // prove the discipline: `first` is only touched under `mutex`.
  struct FirstError {
    Mutex mutex;
    std::exception_ptr first GUARDED_BY(mutex);

    std::exception_ptr take() {
      const MutexLock lock(mutex);
      return first;
    }
  } error;
  // Work stealing via a shared counter: cells are claimed in index order,
  // so a cheap cell never waits behind an expensive one on the same worker.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  auto worker = [&](std::size_t id) {
    SimArena arena;
    ScopedArenaBinding binding(&arena);
    ScopedBlueprintCacheBinding cache_binding(&blueprint_cache);
    WorkerErrors::Worker& me = collected.workers[id];
    for (;;) {
      if (stop_early && failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        if (me.failures++ == 0) me.first = current_exception_message();
        const MutexLock lock(error.mutex);
        if (!error.first) error.first = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  if (workers <= 1) {
    worker(0);  // one worker runs inline on the calling thread
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int t = 0; t < workers; ++t) {
      pool.emplace_back(worker, static_cast<std::size_t>(t));
    }
    for (std::thread& thread : pool) thread.join();
  }
  if (errors != nullptr) {
    *errors = std::move(collected);
    return;  // diagnostic mode: the caller owns failure policy, no rethrow
  }
  if (std::exception_ptr first = error.take()) std::rethrow_exception(first);
}

// --- SubmissionQueue ---------------------------------------------------------

SubmissionQueue::SubmissionQueue(int jobs, int fallback)
    : jobs_(ParallelRunner::resolve_jobs(jobs, fallback)),
      cache_(std::make_unique<BlueprintCache>()) {
  workers_.reserve(static_cast<std::size_t>(jobs_));
  for (int id = 0; id < jobs_; ++id) {
    workers_.emplace_back(&SubmissionQueue::worker_main, this, static_cast<std::size_t>(id));
  }
}

SubmissionQueue::~SubmissionQueue() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void SubmissionQueue::worker_main(std::size_t id) {
  // Mirrors ParallelRunner's per-worker setup, but for the pool's whole
  // lifetime: the arena carries hot storage and the shared cache carries
  // blueprints from campaign to campaign, not just cell to cell.
  SimArena arena;
  ScopedArenaBinding binding(&arena);
  ScopedBlueprintCacheBinding cache_binding(cache_.get());
  MutexLock lock(mutex_);
  for (;;) {
    // Explicit wait loop (not a predicate lambda) so the thread-safety
    // analysis sees every read of the guarded fields under the lock.
    while (!stopping_ && pending_.empty()) lock.wait(work_cv_);
    if (pending_.empty()) {
      if (stopping_) return;
      continue;
    }
    Batch* batch = pending_.front();
    const std::size_t i = batch->next++;
    if (batch->next >= batch->n) pending_.pop_front();  // fully claimed
    lock.unlock();
    bool threw = false;
    std::string message;
    try {
      (*batch->fn)(i);
    } catch (...) {
      threw = true;
      message = current_exception_message();
    }
    lock.lock();
    if (threw) {
      WorkerErrors::Worker& me = batch->errors.workers[id];
      if (me.failures++ == 0) me.first = std::move(message);
    }
    if (--batch->remaining == 0) batch->done_cv.notify_all();
  }
}

void SubmissionQueue::run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn,
                                  WorkerErrors* errors) {
  if (errors != nullptr) {
    errors->workers.clear();
    errors->workers.resize(static_cast<std::size_t>(jobs_));
  }
  if (n == 0) return;
  Batch batch;
  batch.n = n;
  batch.fn = &fn;
  batch.remaining = n;
  batch.errors.workers.resize(static_cast<std::size_t>(jobs_));
  MutexLock lock(mutex_);
  if (stopping_) throw std::runtime_error("SubmissionQueue: pool is shutting down");
  pending_.push_back(&batch);
  work_cv_.notify_all();
  while (batch.remaining != 0) lock.wait(batch.done_cv);
  if (errors != nullptr) *errors = std::move(batch.errors);
}

}  // namespace dfly
