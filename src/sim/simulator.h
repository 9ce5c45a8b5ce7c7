// Deterministic discrete-event simulator.
//
// This is the substrate that replaces the paper's Grid'5000 testbed: replicas
// and clients are actors whose handlers run as events on a single virtual
// clock. Ties are broken by insertion order, so a run is a pure function of
// its inputs — every experiment in bench/ is exactly reproducible.
//
// Pending events live in two lanes. An event scheduled at or after every
// event scheduled before it (the horizon) is appended to a FIFO tail, which
// is therefore sorted by (t, seq) by construction; any other event goes to
// a binary heap. The next event is the smaller of the heap top and the tail
// front by (t, seq), so the execution order is exactly the single-heap
// order. Long monotone timers (the 5 s term-state GC) cost O(1) in the
// tail instead of O(log n) in a heap they would otherwise fill.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "common/logging.h"
#include "common/sim_time.h"

namespace gdur::sim {

class Simulator : public LogClock {
 public:
  using Event = std::function<void()>;

  /// The newest simulator becomes the log-timestamp source, so GDUR_TRACE
  /// lines carry simulated time (common/logging).
  Simulator() { set_log_clock(this); }
  ~Simulator() override {
    if (log_clock() == this) set_log_clock(nullptr);
  }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime log_now() const override { return now_; }

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `event` at absolute time `t` (>= now()).
  void at(SimTime t, Event event);

  /// Schedules `event` `delay` from now.
  void after(SimDuration delay, Event event) { at(now_ + delay, std::move(event)); }

  /// Runs events until the queue drains or stop() is called.
  void run();

  /// Runs events with timestamp <= `t`; afterwards now() == t unless the run
  /// was stopped early. Returns false if stop() ended the run.
  bool run_until(SimTime t);

  /// Stops the current run() / run_until() after the current event.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  [[nodiscard]] bool empty() const { return heap_.empty() && tail_.empty(); }

 private:
  struct Item {
    SimTime t;
    std::uint64_t seq;  // FIFO tie-break for determinism
    Event event;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  /// Runs the next event if its time is <= `limit`; false if none is due.
  bool pop_next(SimTime limit);

  std::priority_queue<Item, std::vector<Item>, Later> heap_;
  std::deque<Item> tail_;  // (t, seq)-sorted: every item was >= horizon_
  SimTime horizon_ = 0;    // latest time scheduled so far
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace gdur::sim
