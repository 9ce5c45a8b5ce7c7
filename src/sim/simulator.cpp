#include "sim/simulator.h"

#include <cassert>
#include <limits>
#include <utility>

namespace gdur::sim {

void Simulator::at(SimTime t, Event event) {
  assert(t >= now_ && "cannot schedule in the past");
  // No event scheduled so far is later than t, so appending keeps the tail
  // lane sorted by (t, seq): seq only grows.
  if (t >= horizon_) {
    horizon_ = t;
    tail_.push_back(Item{t, next_seq_++, std::move(event)});
    return;
  }
  heap_.push(Item{t, next_seq_++, std::move(event)});
}

bool Simulator::pop_next(SimTime limit) {
  const bool from_heap =
      !heap_.empty() && (tail_.empty() || Later{}(tail_.front(), heap_.top()));
  if (!from_heap && tail_.empty()) return false;
  const Item& head = from_heap ? heap_.top() : tail_.front();
  if (head.t > limit) return false;
  // priority_queue::top() is const; moving out is safe because the item is
  // popped before anything else touches the queue.
  Item item = std::move(const_cast<Item&>(head));
  if (from_heap) {
    heap_.pop();
  } else {
    tail_.pop_front();
  }
  now_ = item.t;
  ++processed_;
  item.event();
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && pop_next(std::numeric_limits<SimTime>::max())) {
  }
}

bool Simulator::run_until(SimTime t) {
  stopped_ = false;
  while (!stopped_ && pop_next(t)) {
  }
  if (!stopped_ && now_ < t) now_ = t;
  return !stopped_;
}

}  // namespace gdur::sim
