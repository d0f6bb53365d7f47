#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <queue>
#include <vector>

#include "sim/rng.hpp"

namespace dfly {
namespace {

class Recorder final : public Component {
 public:
  void handle(Engine& engine, const Event& event) override {
    log.push_back({engine.now(), event.kind, event.a});
  }
  struct Entry {
    SimTime when;
    std::uint32_t kind;
    std::uint64_t a;
  };
  std::vector<Entry> log;
};

TEST(Engine, StartsAtTimeZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
  EXPECT_TRUE(engine.empty());
  EXPECT_EQ(engine.executed(), 0u);
}

TEST(Engine, ExecutesEventsInTimeOrder) {
  Engine engine;
  Recorder recorder;
  engine.schedule_at(30, recorder, 3);
  engine.schedule_at(10, recorder, 1);
  engine.schedule_at(20, recorder, 2);
  engine.run();
  ASSERT_EQ(recorder.log.size(), 3u);
  EXPECT_EQ(recorder.log[0].kind, 1u);
  EXPECT_EQ(recorder.log[1].kind, 2u);
  EXPECT_EQ(recorder.log[2].kind, 3u);
  EXPECT_EQ(engine.now(), 30);
}

TEST(Engine, SameTimeEventsFireInScheduleOrder) {
  Engine engine;
  Recorder recorder;
  for (std::uint64_t i = 0; i < 100; ++i) engine.schedule_at(5, recorder, 0, i);
  engine.run();
  ASSERT_EQ(recorder.log.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(recorder.log[i].a, i);
}

TEST(Engine, ScheduleInIsRelativeToNow) {
  Engine engine;
  Recorder recorder;
  engine.call_at(100, [&] { engine.schedule_in(50, recorder, 7); });
  engine.run();
  ASSERT_EQ(recorder.log.size(), 1u);
  EXPECT_EQ(recorder.log[0].when, 150);
}

TEST(Engine, RunUntilStopsAtBoundaryInclusive) {
  Engine engine;
  Recorder recorder;
  engine.schedule_at(10, recorder, 1);
  engine.schedule_at(20, recorder, 2);
  engine.schedule_at(21, recorder, 3);
  engine.run(20);
  EXPECT_EQ(recorder.log.size(), 2u);
  EXPECT_EQ(engine.queued(), 1u);
  engine.run(21);
  EXPECT_EQ(recorder.log.size(), 3u);
}

TEST(Engine, WallDeadlineInThePastFiresBeforeTheFirstEvent) {
  Engine engine;
  Recorder recorder;
  engine.schedule_at(10, recorder, 1);
  engine.set_wall_deadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  EXPECT_TRUE(engine.has_wall_deadline());
  EXPECT_THROW(engine.run(), WallDeadlineExceeded);
  // The check precedes dispatch, so the event is still queued...
  EXPECT_TRUE(recorder.log.empty());
  EXPECT_EQ(engine.queued(), 1u);
  // ...and a disarmed engine finishes the run normally.
  engine.clear_wall_deadline();
  EXPECT_FALSE(engine.has_wall_deadline());
  engine.run();
  ASSERT_EQ(recorder.log.size(), 1u);
  EXPECT_EQ(recorder.log[0].kind, 1u);
}

TEST(Engine, WallDeadlineAbandonsARunawayEventChain) {
  // A self-rescheduling chain never drains the queue: without the watchdog
  // run() would spin forever. With it armed the run is abandoned in bounded
  // real time and the engine stays tear-down-able.
  Engine engine;
  struct Chain final : Component {
    void handle(Engine& engine, const Event&) override { engine.schedule_in(1, *this, 0); }
  } chain;
  engine.schedule_at(0, chain, 0);
  engine.set_wall_deadline(std::chrono::steady_clock::now() + std::chrono::milliseconds(10));
  EXPECT_THROW(engine.run(), WallDeadlineExceeded);
  EXPECT_GT(engine.executed(), 0u);
}

TEST(Engine, StepExecutesExactlyOneEvent) {
  Engine engine;
  Recorder recorder;
  engine.schedule_at(1, recorder, 1);
  engine.schedule_at(2, recorder, 2);
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(recorder.log.size(), 1u);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
}

TEST(Engine, EventsScheduledDuringExecutionAreProcessed) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) engine.call_at(engine.now() + 1, recurse);
  };
  engine.call_at(0, recurse);
  engine.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(engine.now(), 9);
}

TEST(Engine, ClearDropsPendingEvents) {
  Engine engine;
  Recorder recorder;
  engine.schedule_at(10, recorder, 1);
  engine.clear();
  engine.run();
  EXPECT_TRUE(recorder.log.empty());
}

TEST(Engine, ExecutedCounterAdvances) {
  Engine engine;
  Recorder recorder;
  for (int i = 0; i < 17; ++i) engine.schedule_at(i, recorder, 0);
  engine.run();
  EXPECT_EQ(engine.executed(), 17u);
}

TEST(Engine, PayloadWordsAreDeliveredVerbatim) {
  Engine engine;
  Recorder recorder;
  engine.schedule_at(1, recorder, 42, 0xDEADBEEFCAFEBABEull);
  engine.run();
  ASSERT_EQ(recorder.log.size(), 1u);
  EXPECT_EQ(recorder.log[0].kind, 42u);
  EXPECT_EQ(recorder.log[0].a, 0xDEADBEEFCAFEBABEull);
}

TEST(Engine, NowStaysAtLastEventWhenQueueDrainsEarly) {
  // Documented semantics: the clock only advances with events; run(until)
  // does not bump now() to `until` when the queue empties first.
  Engine engine;
  Recorder recorder;
  engine.schedule_at(30, recorder, 1);
  engine.run(1000);
  EXPECT_EQ(engine.now(), 30);
  engine.run(2000);  // empty run: clock must not move
  EXPECT_EQ(engine.now(), 30);
}

TEST(Engine, SameTimeFloodWithInterleavedSchedulingKeepsFifo) {
  // Handlers schedule more events at the *same* timestamp mid-batch; they
  // must fire after every already-scheduled same-time event (seq order).
  class Chainer final : public Component {
   public:
    explicit Chainer(int spawns) : spawns_(spawns) {}
    void handle(Engine& engine, const Event& event) override {
      order.push_back(event.a);
      if (spawns_ > 0) {
        --spawns_;
        engine.schedule_at(engine.now(), *this, 0, next_id++);
      }
    }
    std::vector<std::uint64_t> order;
    std::uint64_t next_id{100};

   private:
    int spawns_;
  };
  Engine engine;
  Chainer chainer(50);
  for (std::uint64_t i = 0; i < 100; ++i) engine.schedule_at(5, chainer, 0, i);
  engine.run();
  ASSERT_EQ(chainer.order.size(), 150u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(chainer.order[i], i);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(chainer.order[100 + i], 100 + i);
  EXPECT_EQ(engine.now(), 5);
}

TEST(Engine, RandomizedStressMatchesReferencePriorityQueue) {
  // Cross-check the calendar queue against std::priority_queue on
  // (when, seq) under interleaved schedule bursts and partial drains. Each
  // case stresses one part of the calendar: its 64 ps buckets, the ~2.1 µs
  // ring (2^21 ps) and its wrap-around, the overflow heap beyond it,
  // same-time floods in one bucket, and clear()/reset() reuse mid-run.
  struct StressCase {
    const char* name;
    std::uint64_t seed;
    std::uint64_t max_burst;
    std::vector<std::uint64_t> delay_spans;  ///< each event's delay is below one of these
    std::uint64_t max_step;                  ///< horizon advance per round
    int flood_every;                         ///< rounds between same-time floods (0 = none)
    int clear_every;                         ///< rounds between clear() calls (0 = none)
    int reset_every;                         ///< rounds between reset() calls (0 = none)
  };
  const std::vector<StressCase> cases = {
      {"within one bucket", 99, 40, {300}, 200, 0, 0, 0},
      {"across buckets", 5, 40, {300, 20'000, 300'000}, 50'000, 0, 0, 0},
      {"wrapping the ring", 6, 30, {100'000, 2'000'000, 2'200'000}, 700'000, 0, 0, 0},
      {"into the overflow", 7, 20, {1'000, 5'000'000, 80'000'000}, 3'000'000, 0, 0, 0},
      {"same-time floods", 8, 10, {1, 64, 128}, 100, 3, 0, 0},
      {"clear and reset reuse", 9, 40, {300, 300'000, 5'000'000}, 100'000, 4, 17, 29},
  };
  struct Ref {
    SimTime when;
    std::uint64_t id;
  };
  const auto after = [](const Ref& x, const Ref& y) {
    return x.when > y.when || (x.when == y.when && x.id > y.id);
  };
  for (const StressCase& c : cases) {
    SCOPED_TRACE(c.name);
    std::priority_queue<Ref, std::vector<Ref>, decltype(after)> reference(after);
    std::vector<Ref> expected;
    Engine engine;
    Recorder recorder;
    Rng rng(c.seed);
    std::uint64_t next_id = 0;
    SimTime horizon = 0;
    const auto schedule = [&](SimTime when) {
      engine.schedule_at(when, recorder, 0, next_id);
      reference.push(Ref{when, next_id});
      ++next_id;
    };
    for (int round = 1; round <= 200; ++round) {
      const int burst = static_cast<int>(rng.next_below(c.max_burst));
      for (int i = 0; i < burst; ++i) {
        const std::uint64_t span =
            c.delay_spans.size() == 1 ? c.delay_spans[0]
                                      : c.delay_spans[rng.next_below(c.delay_spans.size())];
        schedule(horizon + static_cast<SimTime>(rng.next_below(span)));
      }
      if (c.flood_every > 0 && round % c.flood_every == 0) {
        const SimTime when = horizon + static_cast<SimTime>(rng.next_below(2));
        for (int i = 0; i < 150; ++i) schedule(when);
      }
      horizon += static_cast<SimTime>(rng.next_below(c.max_step));
      engine.run(horizon);
      while (!reference.empty() && reference.top().when <= horizon) {
        expected.push_back(reference.top());
        reference.pop();
      }
      ASSERT_EQ(engine.queued(), reference.size()) << "after round " << round;
      if (c.clear_every > 0 && round % c.clear_every == 0) {
        engine.clear();
        while (!reference.empty()) reference.pop();
      }
      if (c.reset_every > 0 && round % c.reset_every == 0) {
        engine.reset();  // clock back to 0: the calendar restarts from its first bucket
        while (!reference.empty()) reference.pop();
        horizon = 0;
      }
    }
    engine.run();
    while (!reference.empty()) {
      expected.push_back(reference.top());
      reference.pop();
    }
    ASSERT_EQ(recorder.log.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(recorder.log[i].when, expected[i].when) << "at event " << i;
      ASSERT_EQ(recorder.log[i].a, expected[i].id) << "at event " << i;
    }
  }
}

TEST(Engine, ClosuresAreReclaimedAfterFiring) {
  Engine engine;
  int fired = 0;
  std::function<void()> tick = [&] {
    // The just-fired closure's slot is already free when its body runs.
    EXPECT_EQ(engine.live_closures(), 0u);
    if (++fired < 200) engine.call_in(10, tick);
  };
  engine.call_in(0, tick);
  EXPECT_EQ(engine.live_closures(), 1u);
  engine.run();
  EXPECT_EQ(fired, 200);
  EXPECT_EQ(engine.live_closures(), 0u);
}

TEST(Engine, ClearInsideHandlerDropsRestOfBatch) {
  class Clearer final : public Component {
   public:
    void handle(Engine& engine, const Event&) override {
      ++count;
      engine.clear();
    }
    int count{0};
  };
  Engine engine;
  Clearer clearer;
  Recorder recorder;
  engine.schedule_at(10, clearer, 0);
  for (int i = 0; i < 4; ++i) engine.schedule_at(10, recorder, 0);
  engine.schedule_at(20, recorder, 0);
  engine.run();
  EXPECT_EQ(clearer.count, 1);
  EXPECT_TRUE(recorder.log.empty());
  EXPECT_TRUE(engine.empty());
}

TEST(Engine, RunResumesInterruptedSameTimeBatch) {
  // A handler throwing mid-batch must not strand or drop the rest of the
  // batch: the next run() dispatches the remaining same-time events before
  // anything later-timestamped.
  class Thrower final : public Component {
   public:
    void handle(Engine&, const Event&) override { throw std::runtime_error("boom"); }
  };
  Engine engine;
  Recorder recorder;
  Thrower thrower;
  engine.schedule_at(5, recorder, 0, 1);
  engine.schedule_at(5, thrower, 0);
  engine.schedule_at(5, recorder, 0, 2);
  engine.schedule_at(9, recorder, 0, 3);
  EXPECT_THROW(engine.run(), std::runtime_error);
  ASSERT_EQ(recorder.log.size(), 1u);
  EXPECT_EQ(engine.queued(), 2u);  // the stranded batch entry + the t=9 event
  engine.run();
  ASSERT_EQ(recorder.log.size(), 3u);
  EXPECT_EQ(recorder.log[1].a, 2u);  // batch remainder first...
  EXPECT_EQ(recorder.log[2].a, 3u);  // ...then the later event
}

TEST(Engine, ClearInsideClosureIsSafe) {
  Engine engine;
  int fired = 0;
  engine.call_at(5, [&] {
    ++fired;
    engine.clear();
  });
  engine.call_at(5, [&] { ++fired; });  // dropped by the clear above
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.live_closures(), 0u);
}

TEST(Engine, ManyEventsStressOrdering) {
  Engine engine;
  Recorder recorder;
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    engine.schedule_at(static_cast<SimTime>(rng.next_below(1000)), recorder, 0);
  }
  engine.run();
  ASSERT_EQ(recorder.log.size(), 10000u);
  for (std::size_t i = 1; i < recorder.log.size(); ++i) {
    EXPECT_LE(recorder.log[i - 1].when, recorder.log[i].when);
  }
}

}  // namespace
}  // namespace dfly
