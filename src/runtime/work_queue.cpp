#include "runtime/work_queue.h"

#include <cstring>
#include <type_traits>

#include "support/error.h"

namespace vdep::runtime {

static_assert(std::is_trivially_copyable_v<TaskDescriptor>,
              "deque slots copy descriptors word by word");

WorkStealingDeque::Buffer::Buffer(i64 cap)
    : capacity(cap),
      mask(cap - 1),
      words(new std::atomic<std::uint64_t>[static_cast<std::size_t>(cap) *
                                           kWords]) {
  VDEP_REQUIRE(cap > 0 && (cap & (cap - 1)) == 0,
               "deque capacity must be a power of two");
}

TaskDescriptor WorkStealingDeque::Buffer::get(i64 i) const {
  const std::atomic<std::uint64_t>* slot =
      &words[static_cast<std::size_t>(i & mask) * kWords];
  std::uint64_t raw[kWords];
  for (std::size_t k = 0; k < kWords; ++k)
    raw[k] = slot[k].load(std::memory_order_relaxed);
  TaskDescriptor task;
  std::memcpy(&task, raw, sizeof(task));
  return task;
}

void WorkStealingDeque::Buffer::put(i64 i, const TaskDescriptor& task) {
  std::atomic<std::uint64_t>* slot =
      &words[static_cast<std::size_t>(i & mask) * kWords];
  std::uint64_t raw[kWords] = {};
  std::memcpy(raw, &task, sizeof(task));
  for (std::size_t k = 0; k < kWords; ++k)
    slot[k].store(raw[k], std::memory_order_relaxed);
}

WorkStealingDeque::WorkStealingDeque(i64 initial_capacity) {
  buffers_.push_back(std::make_unique<Buffer>(initial_capacity));
  buffer_.store(buffers_.back().get(), std::memory_order_relaxed);
}

void WorkStealingDeque::push(const TaskDescriptor& task) {
  i64 b = bottom_.load(std::memory_order_relaxed);
  i64 t = top_.load(std::memory_order_acquire);
  Buffer* buf = buffer_.load(std::memory_order_relaxed);
  if (b - t > buf->capacity - 1) buf = grow(buf, b, t);
  buf->put(b, task);
  // Release store (not a fence + relaxed store): this is the edge that
  // publishes the slot's contents to thieves, and ThreadSanitizer does not
  // model fences — the operation itself must carry the ordering.
  bottom_.store(b + 1, std::memory_order_release);
}

bool WorkStealingDeque::pop(TaskDescriptor& out) {
  i64 b = bottom_.load(std::memory_order_relaxed) - 1;
  Buffer* buf = buffer_.load(std::memory_order_relaxed);
  bottom_.store(b, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  i64 t = top_.load(std::memory_order_relaxed);
  if (t > b) {  // empty: restore
    bottom_.store(b + 1, std::memory_order_relaxed);
    return false;
  }
  const TaskDescriptor task = buf->get(b);
  if (t == b) {
    // Last element: race thieves for it through `top`.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      bottom_.store(b + 1, std::memory_order_relaxed);
      return false;  // a thief won
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
  }
  out = task;
  return true;
}

bool WorkStealingDeque::steal(TaskDescriptor& out) {
  i64 t = top_.load(std::memory_order_acquire);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  i64 b = bottom_.load(std::memory_order_acquire);
  if (t >= b) return false;  // empty
  Buffer* buf = buffer_.load(std::memory_order_acquire);
  // Copy, then claim index t: the winner of the CAS is the unique consumer
  // of the slot, and the slot held index t's descriptor until `top` moved
  // past t, which would fail the CAS. Visibility of the contents comes
  // from the acquire load of `bottom` above pairing with the release
  // store in push().
  const TaskDescriptor task = buf->get(t);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed))
    return false;  // lost the race; retry is the caller's policy
  out = task;
  return true;
}

i64 WorkStealingDeque::size_estimate() const {
  i64 b = bottom_.load(std::memory_order_relaxed);
  i64 t = top_.load(std::memory_order_relaxed);
  return b > t ? b - t : 0;
}

WorkStealingDeque::Buffer* WorkStealingDeque::grow(Buffer* old, i64 bottom,
                                                   i64 top) {
  auto bigger = std::make_unique<Buffer>(old->capacity * 2);
  for (i64 i = top; i < bottom; ++i) bigger->put(i, old->get(i));
  Buffer* raw = bigger.get();
  buffers_.push_back(std::move(bigger));
  buffer_.store(raw, std::memory_order_release);
  return raw;
}

}  // namespace vdep::runtime
