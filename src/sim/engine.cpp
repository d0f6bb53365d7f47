#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <utility>

#include "sim/pdes.hpp"

namespace dfly {

/// Adapter that lets InlineFn callbacks ride the component event path.
/// One-shot but pooled: handle() disarms the owning slot (destroying the
/// capture) before invoking the callback, so the callback itself may arm new
/// closures (possibly reusing this very slot) or clear() the engine; the
/// adapter object survives for the next call_at to re-arm without a heap
/// allocation.
class Engine::Closure final : public Component {
 public:
  Closure() = default;

  void arm(InlineFn fn, std::uint32_t slot) {
    fn_ = std::move(fn);
    slot_ = slot;
    armed_ = true;
  }
  void disarm() {
    fn_ = nullptr;  // destroy the capture now, not at the next re-arm
    armed_ = false;
  }
  // armed_ is a separate flag because handle() moves fn_ out before the slot
  // is released — the function's own emptiness can't double as liveness.
  bool armed() const { return armed_; }

  void handle(Engine& engine, const Event&) override {
    InlineFn fn = std::move(fn_);
    engine.release_closure(slot_);  // disarms *this; only locals below
    fn();
  }

 private:
  InlineFn fn_;
  std::uint32_t slot_{0};
  bool armed_{false};
};

Engine::Engine() = default;
Engine::~Engine() = default;
Engine::Engine(Engine&& other) noexcept = default;
Engine& Engine::operator=(Engine&& other) noexcept = default;

void Engine::schedule_at(SimTime when, Component& target, std::uint32_t kind,
                         std::uint64_t a, std::uint64_t b) {
  assert(when >= now_ && "cannot schedule into the past");
  ++stats_.scheduled_by_kind[EngineStats::slot(kind)];
  if (pdes_ != nullptr) {
    pdes_->on_schedule(*this, when, target, kind, a, b);
    return;
  }
  push(make_key(when, next_seq_++), Payload{&target, kind, a, b});
}

void Engine::call_at(SimTime when, InlineFn fn) {
  std::uint32_t slot;
  if (free_closure_slots_.empty()) {
    slot = static_cast<std::uint32_t>(closures_.size());
    closures_.push_back(std::make_unique<Closure>());
  } else {
    slot = free_closure_slots_.back();
    free_closure_slots_.pop_back();
  }
  closures_[slot]->arm(std::move(fn), slot);
  // Closures belong to this engine, so in a parallel cell they execute in
  // this engine's domain; stamping keeps pdes routing self-directed.
  closures_[slot]->set_pdes_domain(pdes_domain_id_);
  ++live_closures_;
  schedule_at(when, *closures_[slot], 0);
}

void Engine::release_closure(std::uint32_t slot) {
  // clear() may have disarmed everything while the closure body ran; a slot
  // that is no longer armed must not be pushed onto the free list twice.
  if (slot >= closures_.size() || !closures_[slot] || !closures_[slot]->armed()) return;
  closures_[slot]->disarm();
  free_closure_slots_.push_back(slot);
  --live_closures_;
}

void Engine::push(HeapKey key, Payload load) {
  const std::int64_t ahead = (key_when(key) >> kBucketShift) - cur_bucket_;
  if (ahead >= kBuckets) {
    overflow_push(key, load);
  } else if (ahead > 0) {
    link(new_node(key, load));
  } else {
    insert_current(new_node(key, load));
  }
  if (++queued_ > peak_queued_) peak_queued_ = queued_;
}

std::uint32_t Engine::new_node(HeapKey key, const Payload& load) {
  std::uint32_t node = free_node_;
  if (node != kNil) {
    free_node_ = next_[node];
    nodes_[node] = Entry{key, load};
  } else {
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Entry{key, load});
    next_.push_back(kNil);
  }
  return node;
}

void Engine::alloc_ring() {
  heads_.assign(static_cast<std::size_t>(kBuckets), kNil);
  bits_.assign(kBitWords, 0);
}

void Engine::link(std::uint32_t node) {
  if (heads_.empty()) alloc_ring();  // first ring event
  const std::size_t bucket =
      static_cast<std::size_t>((key_when(nodes_[node].key) >> kBucketShift) & (kBuckets - 1));
  next_[node] = heads_[bucket];
  heads_[bucket] = node;
  const std::size_t word = bucket / 64;
  bits_[word] |= std::uint64_t{1} << (bucket % 64);
  summary_[word / 64] |= std::uint64_t{1} << (word % 64);
  ++ring_count_;
}

void Engine::insert_current(std::uint32_t node) {
  // New events usually sort after every pending one (same time, larger
  // seq), so the insertion point is almost always the end.
  const HeapKey key = nodes_[node].key;
  const auto pending = cur_.begin() + static_cast<std::ptrdiff_t>(cur_pos_);
  cur_.insert(std::upper_bound(pending, cur_.end(), key,
                               [this](HeapKey k, std::uint32_t n) { return k < nodes_[n].key; }),
              node);
}

std::int64_t Engine::next_ring_bucket() const {
  // Scan the occupancy bits from the bucket after the current one to the
  // end of the ring, then wrap to its start; the summary words skip runs of
  // empty bit words. The current bucket's own ring slot is always empty.
  const auto first_set = [this](std::size_t from) -> std::size_t {
    std::size_t word = from / 64;
    const std::uint64_t bits = bits_[word] & (~std::uint64_t{0} << (from % 64));
    if (bits != 0) return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    if (++word == kBitWords) return kBitWords * 64;
    std::size_t group = word / 64;
    std::uint64_t words = summary_[group] & (~std::uint64_t{0} << (word % 64));
    while (words == 0) {
      if (++group == summary_.size()) return kBitWords * 64;
      words = summary_[group];
    }
    word = group * 64 + static_cast<std::size_t>(std::countr_zero(words));
    return word * 64 + static_cast<std::size_t>(std::countr_zero(bits_[word]));
  };
  const std::size_t start = static_cast<std::size_t>((cur_bucket_ + 1) & (kBuckets - 1));
  std::size_t slot = first_set(start);
  if (slot == kBitWords * 64) slot = first_set(0);
  return cur_bucket_ + 1 +
         static_cast<std::int64_t>((slot - start) & static_cast<std::size_t>(kBuckets - 1));
}

bool Engine::refill(SimTime until) {
  std::int64_t bucket;
  if (ring_count_ > 0) {
    bucket = next_ring_bucket();
  } else if (!keys_.empty()) {
    bucket = key_when(keys_.front()) >> kBucketShift;  // jump over the empty ring
  } else {
    return false;
  }
  // Leave the calendar where it is when the next bucket starts after
  // `until`, so events scheduled before it still land in the ring.
  if ((bucket << kBucketShift) > until) return false;
  cur_bucket_ = bucket;
  // Overflow events the advanced ring now covers move into it (after a
  // jump, the earliest lands in the new current bucket's own slot, which is
  // drained just below). Every overflow event is later than every ring
  // event, so none precedes cur_.
  while (!keys_.empty() && (key_when(keys_.front()) >> kBucketShift) - bucket < kBuckets) {
    const Entry entry = pop_min();
    link(new_node(entry.key, entry.load));
  }
  // Move the bucket's list into cur_, prefetching each node so the sort's
  // key loads overlap instead of queueing behind one another.
  const std::size_t slot = static_cast<std::size_t>(bucket & (kBuckets - 1));
  for (std::uint32_t node = heads_[slot]; node != kNil; node = next_[node]) {
    __builtin_prefetch(&nodes_[node]);
    cur_.push_back(node);
    --ring_count_;
  }
  heads_[slot] = kNil;
  const std::size_t word = slot / 64;
  bits_[word] &= ~(std::uint64_t{1} << (slot % 64));
  if (bits_[word] == 0) summary_[word / 64] &= ~(std::uint64_t{1} << (word % 64));
  std::sort(cur_.begin(), cur_.end(),
            [this](std::uint32_t x, std::uint32_t y) { return nodes_[x].key < nodes_[y].key; });
  return true;
}

Engine::Entry Engine::pop_front() {
  const std::uint32_t node = cur_[cur_pos_];
  if (++cur_pos_ == cur_.size()) {
    cur_.clear();
    cur_pos_ = 0;
  }
  const Entry entry = nodes_[node];
  next_[node] = free_node_;
  free_node_ = node;
  --queued_;
  return entry;
}

SimTime Engine::next_time() const {
  if (!cur_.empty()) return key_when(nodes_[cur_[cur_pos_]].key);
  if (ring_count_ == 0) return key_when(keys_.front());
  const std::size_t slot = static_cast<std::size_t>(next_ring_bucket() & (kBuckets - 1));
  SimTime earliest = key_when(nodes_[heads_[slot]].key);
  for (std::uint32_t node = next_[heads_[slot]]; node != kNil; node = next_[node]) {
    earliest = std::min(earliest, key_when(nodes_[node].key));
  }
  return earliest;
}

void Engine::overflow_push(HeapKey key, const Payload& load) {
  // Grow both arrays together (and skip the tiny-doubling phase) so the two
  // vectors reallocate in lockstep instead of twice as often as one.
  if (keys_.size() == keys_.capacity()) {
    const std::size_t cap = keys_.empty() ? 256 : keys_.size() * 2;
    keys_.reserve(cap);
    payloads_.reserve(cap);
  }
  keys_.push_back(key);
  payloads_.push_back(load);
  sift_up(keys_.size() - 1);
}

Engine::Entry Engine::pop_min() {
  const Entry top{keys_.front(), payloads_.front()};
  const std::size_t last = keys_.size() - 1;
  if (last > 0) {
    // Bottom-up pop (the std::pop_heap strategy, on 4 lanes): sink the root
    // hole to a leaf by promoting the smallest child of each level — no
    // comparisons against the displaced back element, which is leaf-sized
    // and would lose almost every one — then drop the back element into the
    // leaf hole and sift it up the few levels it actually belongs.
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = 4 * hole + 1;
      if (first >= last) break;
      const std::size_t end = first + 4 < last ? first + 4 : last;
      // Keep the running minimum in a register: the four child loads are
      // independent and pipeline, instead of each compare re-loading
      // keys_[best] behind the previous selection.
      std::size_t best = first;
      HeapKey best_key = keys_[first];
      for (std::size_t child = first + 1; child < end; ++child) {
        const HeapKey child_key = keys_[child];
        if (child_key < best_key) {
          best = child;
          best_key = child_key;
        }
      }
      keys_[hole] = best_key;
      payloads_[hole] = payloads_[best];
      hole = best;
    }
    keys_[hole] = keys_[last];
    payloads_[hole] = payloads_[last];
    sift_up(hole);
  }
  keys_.pop_back();
  payloads_.pop_back();
  return top;
}

void Engine::sift_up(std::size_t i) {
  const HeapKey key = keys_[i];
  const Payload load = payloads_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (key >= keys_[parent]) break;
    keys_[i] = keys_[parent];
    payloads_[i] = payloads_[parent];
    i = parent;
  }
  keys_[i] = key;
  payloads_[i] = load;
}

void Engine::dispatch(const Entry& entry) {
  const SimTime when = key_when(entry.key);
  now_ = when;
  ++executed_;
  cur_seq_ = key_seq(entry.key);
  ++stats_.executed_by_kind[EngineStats::slot(entry.load.kind)];
  const Event event{when,         key_seq(entry.key), entry.load.target,
                    entry.load.kind, entry.load.a,    entry.load.b};
  entry.load.target->handle(*this, event);
}

bool Engine::step() {
  if (!has_front(std::numeric_limits<SimTime>::max())) return false;
  dispatch(pop_front());
  return true;
}

std::uint64_t Engine::run(SimTime until) {
  std::uint64_t count = 0;
  while (has_front(until) && key_when(nodes_[cur_[cur_pos_]].key) <= until) {
    check_wall_deadline();
    dispatch(pop_front());
    ++count;
  }
  // Time only advances with events: when the queue drains before `until`,
  // now() stays at the last executed event (see header).
  return count;
}

void Engine::clear() {
  nodes_.clear();
  next_.clear();
  free_node_ = kNil;
  if (ring_count_ > 0) {
    std::fill(heads_.begin(), heads_.end(), kNil);
    std::fill(bits_.begin(), bits_.end(), 0);
    summary_.fill(0);
    ring_count_ = 0;
  }
  cur_.clear();
  cur_pos_ = 0;
  cur_bucket_ = -1;
  queued_ = 0;
  keys_.clear();
  payloads_.clear();
  // Disarm every pending closure (destroying captures) but keep the pooled
  // adapters; rebuild the free list from scratch so no slot appears twice.
  // Descending order makes a cleared engine hand out slots 0, 1, 2, ... again
  // exactly like a fresh one.
  free_closure_slots_.clear();
  for (std::size_t slot = closures_.size(); slot-- > 0;) {
    closures_[slot]->disarm();
    free_closure_slots_.push_back(static_cast<std::uint32_t>(slot));
  }
  live_closures_ = 0;
}

void Engine::reset() {
  clear();
  now_ = 0;
  next_seq_ = 0;
  executed_ = 0;
  peak_queued_ = 0;
  has_wall_deadline_ = false;
  deadline_stride_ = 0;
  stats_ = EngineStats{};
  cur_seq_ = 0;
  pdes_ = nullptr;
  pdes_domain_id_ = 0;
}

void Engine::reserve(std::size_t events, std::size_t closures) {
  if (heads_.empty()) alloc_ring();
  nodes_.reserve(events);
  next_.reserve(events);
  cur_.reserve(events);
  if (keys_.capacity() < events) {
    keys_.reserve(events);
    payloads_.reserve(events);
  }
  const std::size_t old_size = closures_.size();
  while (closures_.size() < closures) closures_.push_back(std::make_unique<Closure>());
  // Append the new slots descending so they pop lowest-first — the same
  // fresh-engine hand-out order clear()/reset() maintain.
  for (std::size_t slot = closures_.size(); slot-- > old_size;) {
    free_closure_slots_.push_back(static_cast<std::uint32_t>(slot));
  }
}

}  // namespace dfly
