// Chase-Lev work-stealing deque (Chase & Lev, SPAA'05), memory orderings
// after Lê, Pop, Cohen & Zappa Nardelli, "Correct and Efficient Work-Stealing
// for Weak Memory Models" (PPoPP'13).
//
// One deque per worker. The owner pushes and pops descriptors at the bottom
// with plain loads on the fast path; idle workers steal from the top, so the
// oldest — and after recursive splitting, largest — descriptor migrates
// first. The only contended operation is a single compare-exchange on `top`
// when owner and thief race for the last element.
//
// Slots hold the descriptors themselves, as words of relaxed atomics, so a
// push allocates nothing. Contents are published by the release store of
// `bottom` in push() and consumed after the acquire reads in steal(). A
// thief copies its slot before the compare-exchange that claims it: once
// `top` moves past the slot the owner may reuse it, and a copy torn by
// that reuse is discarded by the failed compare-exchange — a race on
// atomics, so the structure is clean under -fsanitize=thread. Ring buffers
// grow geometrically and are retired, not freed, until the deque dies: a
// thief may still be reading an old buffer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/task.h"

namespace vdep::runtime {

class WorkStealingDeque {
 public:
  explicit WorkStealingDeque(i64 initial_capacity = 64);

  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  /// Owner only: enqueue at the bottom.
  void push(const TaskDescriptor& task);
  /// Owner only: dequeue at the bottom (LIFO — depth-first splitting).
  bool pop(TaskDescriptor& out);
  /// Any other thread: dequeue at the top (FIFO — biggest task first).
  bool steal(TaskDescriptor& out);

  /// Approximate size (racy; diagnostics only).
  i64 size_estimate() const;

 private:
  static constexpr std::size_t kWords =
      (sizeof(TaskDescriptor) + sizeof(std::uint64_t) - 1) /
      sizeof(std::uint64_t);

  struct Buffer {
    explicit Buffer(i64 cap);
    i64 capacity;
    i64 mask;
    /// kWords words per slot.
    std::unique_ptr<std::atomic<std::uint64_t>[]> words;

    TaskDescriptor get(i64 i) const;
    void put(i64 i, const TaskDescriptor& task);
  };

  /// Owner only: doubles the ring, copying live entries [top, bottom).
  Buffer* grow(Buffer* old, i64 bottom, i64 top);

  std::atomic<i64> top_{0};
  std::atomic<i64> bottom_{0};
  std::atomic<Buffer*> buffer_{nullptr};
  /// Every buffer ever allocated (owner-only mutation); keeps retired rings
  /// alive for late-reading thieves and frees everything on destruction.
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace vdep::runtime
