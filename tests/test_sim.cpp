// Unit tests for the discrete-event simulator and the CPU model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/cpu.h"
#include "sim/simulator.h"

namespace gdur::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, BreaksTiesByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.at(5, [&, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, AfterSchedulesRelativeToNow) {
  Simulator sim;
  SimTime seen = -1;
  sim.at(100, [&] { sim.after(50, [&] { seen = sim.now(); }); });
  sim.run();
  EXPECT_EQ(seen, 150);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) sim.after(1, chain);
  };
  sim.after(0, chain);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.now(), 99);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int ran = 0;
  sim.at(10, [&] { ++ran; });
  sim.at(20, [&] { ++ran; });
  sim.at(30, [&] { ++ran; });
  EXPECT_TRUE(sim.run_until(20));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_TRUE(sim.run_until(100));
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(sim.now(), 100);  // clock advances even after queue drains
}

TEST(Simulator, StopAbortsRun) {
  Simulator sim;
  int ran = 0;
  sim.at(1, [&] {
    ++ran;
    sim.stop();
  });
  sim.at(2, [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 1);
  sim.run();  // resumes with the remaining event
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 5u);
}

// A seeded event storm mixing the schedules the two event lanes see: long
// fixed delays (the 5 s term-state GC timers, which go to the tail lane),
// short random delays and zero delays (equal timestamps, the heap). The pop
// order must be the single-queue order: a stable sort of the schedule by
// time, ties in scheduling order.
struct EventStorm {
  static constexpr std::size_t kMaxEvents = 20'000;
  Simulator sim;
  Rng rng;
  std::vector<SimTime> when;     // scheduled time, by scheduling order
  std::vector<std::size_t> ran;  // scheduling indices, in pop order
  std::size_t stop_at = SIZE_MAX;  // scheduling index that calls stop()

  explicit EventStorm(std::uint64_t seed) : rng(seed) {
    for (int i = 0; i < 50; ++i)
      schedule(static_cast<SimTime>(rng.next_below(1000)));
  }

  void schedule(SimTime t) {
    const std::size_t id = when.size();
    when.push_back(t);
    sim.at(t, [this, id] {
      ran.push_back(id);
      if (id == stop_at) sim.stop();
      fan_out();
    });
  }

  void fan_out() {
    const auto children = rng.next_below(4);  // mean 1.5: the storm grows
    for (std::uint64_t k = 0; k < children && when.size() < kMaxEvents; ++k) {
      switch (rng.next_below(4)) {
        case 0:
          schedule(sim.now() + seconds(5));
          break;
        case 1:
          schedule(sim.now() +
                   static_cast<SimDuration>(rng.next_below(1'000'000)));
          break;
        case 2:
          schedule(sim.now());
          break;
        default:
          schedule(sim.now() + milliseconds(1));
          break;
      }
    }
  }

  /// The reference order: scheduling indices stably sorted by time.
  [[nodiscard]] std::vector<std::size_t> reference() const {
    std::vector<std::size_t> order(when.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return when[a] < when[b];
                     });
    return order;
  }
};

TEST(Simulator, PopOrderIsAStableSortByTimeAcrossBothLanes) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EventStorm storm(seed);
    storm.sim.run();
    EXPECT_TRUE(storm.sim.empty());
    ASSERT_EQ(storm.ran.size(), storm.when.size()) << "seed " << seed;
    EXPECT_EQ(storm.ran, storm.reference()) << "seed " << seed;
  }
}

TEST(Simulator, RunUntilAndStopKeepTheTwoLaneOrder) {
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    EventStorm storm(seed);
    storm.stop_at = 7'000;
    int stops = 0;
    while (!storm.sim.empty()) {
      // Cut exactly at a pending event's time now and then, so the
      // inclusive boundary is exercised, else at an arbitrary time.
      const SimTime cut =
          storm.rng.next_bool(0.5)
              ? std::max(storm.sim.now(), storm.when.back())
              : storm.sim.now() +
                    static_cast<SimDuration>(storm.rng.next_below(2'000'000));
      if (!storm.sim.run_until(cut)) {
        ++stops;
        ASSERT_FALSE(storm.ran.empty());
        EXPECT_EQ(storm.ran.back(), storm.stop_at);
        EXPECT_EQ(storm.sim.now(), storm.when[storm.stop_at]);
        continue;
      }
      ASSERT_EQ(storm.sim.now(), cut);
      // Everything due by the cut ran; nothing later did.
      std::size_t due = 0;
      for (SimTime t : storm.when) due += t <= cut ? 1 : 0;
      ASSERT_EQ(storm.ran.size(), due) << "seed " << seed << " cut " << cut;
    }
    EXPECT_EQ(stops, 1) << "seed " << seed;
    EXPECT_EQ(storm.ran, storm.reference()) << "seed " << seed;
  }
}

TEST(Cpu, SingleCoreSerializesJobs) {
  Simulator sim;
  CpuResource cpu(sim, 1);
  std::vector<SimTime> done;
  sim.at(0, [&] {
    cpu.submit(10, [&] { done.push_back(sim.now()); });
    cpu.submit(10, [&] { done.push_back(sim.now()); });
    cpu.submit(10, [&] { done.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(done, (std::vector<SimTime>{10, 20, 30}));
}

TEST(Cpu, MultiCoreRunsInParallel) {
  Simulator sim;
  CpuResource cpu(sim, 2);
  std::vector<SimTime> done;
  sim.at(0, [&] {
    for (int i = 0; i < 4; ++i)
      cpu.submit(10, [&] { done.push_back(sim.now()); });
  });
  sim.run();
  // Two cores: pairs finish at 10 and 20.
  EXPECT_EQ(done, (std::vector<SimTime>{10, 10, 20, 20}));
}

TEST(Cpu, IdleCoreStartsJobImmediately) {
  Simulator sim;
  CpuResource cpu(sim, 2);
  SimTime done = 0;
  sim.at(100, [&] { cpu.submit(5, [&] { done = sim.now(); }); });
  sim.run();
  EXPECT_EQ(done, 105);
}

TEST(Cpu, BusyTimeAccumulates) {
  Simulator sim;
  CpuResource cpu(sim, 4);
  sim.at(0, [&] {
    cpu.submit(10, [] {});
    cpu.submit(30, [] {});
  });
  sim.run();
  EXPECT_EQ(cpu.busy_time(), 40);
  EXPECT_NEAR(cpu.utilization(0, 100), 0.1, 1e-9);  // 40 / (4 cores * 100)
}

TEST(Cpu, UtilizationClampedToOne) {
  Simulator sim;
  CpuResource cpu(sim, 1);
  sim.at(0, [&] { cpu.submit(1000, [] {}); });
  sim.run();
  EXPECT_DOUBLE_EQ(cpu.utilization(0, 10), 1.0);
}

TEST(Cpu, ResetAccountingClearsBusyTime) {
  Simulator sim;
  CpuResource cpu(sim, 1);
  sim.at(0, [&] { cpu.submit(10, [] {}); });
  sim.run();
  cpu.reset_accounting();
  EXPECT_EQ(cpu.busy_time(), 0);
}

TEST(Cpu, ZeroServiceJobCompletesAtNow) {
  Simulator sim;
  CpuResource cpu(sim, 1);
  SimTime done = -1;
  sim.at(7, [&] { cpu.submit(0, [&] { done = sim.now(); }); });
  sim.run();
  EXPECT_EQ(done, 7);
}

}  // namespace
}  // namespace gdur::sim
