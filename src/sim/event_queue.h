// Calendar event queue: O(1) schedule and drain for events keyed by round.
//
// The backup network schedules tens of millions of small POD events
// (departures, session toggles, timeout probes) per paper-scale run; a
// binary heap of std::function would dominate the runtime. This queue is a
// power-of-two ring of rounds, growing its horizon on demand. A ring slot
// holds only the head and tail of its round's event list; the events
// themselves live in one pooled node arena per queue, recycled through a
// free list. Memory therefore follows the events pending right now (plus
// eight bytes per ring slot), not the busiest round each slot ever held,
// and once the arena reaches the queue's high-water mark of pending events
// scheduling never allocates.

#ifndef P2P_SIM_EVENT_QUEUE_H_
#define P2P_SIM_EVENT_QUEUE_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/clock.h"
#include "util/logging.h"

namespace p2p {
namespace sim {

/// \brief Calendar queue of POD events of type `E`.
///
/// Events are scheduled at absolute rounds >= the current round and drained
/// once per round in FIFO order within the round. Draining advances the
/// queue's internal clock; rounds must be drained in increasing order.
template <typename E>
class CalendarQueue {
 public:
  /// Creates a queue starting at round 0 with an initial horizon.
  explicit CalendarQueue(Round initial_horizon = 1024)
      : slots_(NextPow2(initial_horizon)) {}

  /// Schedules `event` at absolute round `at` (>= current round).
  void Schedule(Round at, E event) {
    assert(at >= base_);
    const Round offset = at - base_;
    if (offset >= static_cast<Round>(slots_.size())) Grow(offset + 1);
    const uint32_t node = NewNode(std::move(event));
    Slot& slot = slots_[Index(at)];
    if (slot.head == kNil) {
      slot.head = node;
    } else {
      nodes_[slot.tail].next = node;
    }
    slot.tail = node;
    ++size_;
  }

  /// Returns and clears the events scheduled for round `at`; `at` must be
  /// the current round (rounds are consumed in order).
  std::vector<E> Drain(Round at) {
    std::vector<E> out;
    DrainInto(at, [&](E& e) { out.push_back(std::move(e)); });
    return out;
  }

  /// Drains round `at` (the current round) via callback, in FIFO order. The
  /// round's list is detached first and each node is recycled before its
  /// event is handed over, so callbacks may safely Schedule() into this
  /// queue (at rounds > `at`) while draining.
  template <typename Fn>
  void DrainInto(Round at, Fn&& fn) {
    assert(at == base_);
    Slot& slot = slots_[Index(at)];
    uint32_t node = slot.head;
    slot = Slot{};
    ++base_;
    while (node != kNil) {
      // Copy out before the callback: a Schedule() inside it may grow (and
      // move) the arena, or reuse this very node.
      E event = std::move(nodes_[node].event);
      const uint32_t next = nodes_[node].next;
      nodes_[node].next = free_;
      free_ = node;
      --size_;
      fn(event);
      node = next;
    }
  }

  /// Total number of pending events.
  size_t size() const { return size_; }

  /// The next round that will be drained.
  Round current_round() const { return base_; }

  /// Ring length in slots (tests hold it to the run's horizon).
  size_t ring_slots() const { return slots_.size(); }

  /// The latest round holding a pending event, or current_round() - 1 when
  /// the queue is empty. O(ring length); for tests and diagnostics.
  Round LastPendingRound() const {
    for (Round at = base_ + static_cast<Round>(slots_.size()) - 1; at >= base_;
         --at) {
      if (slots_[Index(at)].head != kNil) return at;
    }
    return base_ - 1;
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  // One round's event list: arena indices of its first and last node.
  struct Slot {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };
  // A pending event, or (while on the free list) a recycled one.
  struct Node {
    E event;
    uint32_t next;
  };

  static size_t NextPow2(Round v) {
    size_t p = 1;
    while (p < static_cast<size_t>(v)) p <<= 1;
    return p;
  }

  size_t Index(Round at) const {
    return static_cast<size_t>(at) & (slots_.size() - 1);
  }

  uint32_t NewNode(E event) {
    if (free_ != kNil) {
      const uint32_t node = free_;
      free_ = nodes_[node].next;
      nodes_[node] = Node{std::move(event), kNil};
      return node;
    }
    P2P_CHECK(nodes_.size() < kNil);  // node indices are 32-bit
    nodes_.push_back(Node{std::move(event), kNil});
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  void Grow(Round needed) {
    const size_t new_size = NextPow2(needed);
    std::vector<Slot> fresh(new_size);
    for (size_t i = 0; i < slots_.size(); ++i) {
      // Re-home every pending slot at its new index.
      const Round at = base_ + RelativeOffset(i);
      fresh[static_cast<size_t>(at) & (new_size - 1)] = slots_[i];
    }
    slots_ = std::move(fresh);
  }

  // Offset of physical slot i relative to base_ in the old ring.
  Round RelativeOffset(size_t i) const {
    const size_t base_idx = Index(base_);
    return static_cast<Round>((i + slots_.size() - base_idx) & (slots_.size() - 1));
  }

  Round base_ = 0;
  size_t size_ = 0;
  std::vector<Slot> slots_;
  std::vector<Node> nodes_;
  uint32_t free_ = kNil;  // head of the recycled-node list
};

}  // namespace sim
}  // namespace p2p

#endif  // P2P_SIM_EVENT_QUEUE_H_
