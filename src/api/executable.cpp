#include "api/executable.h"

#include "support/thread_pool.h"

namespace vdep::detail {

std::shared_ptr<const jit::NativeKernel> Executable::native(
    const PlanArtifact& art, const jit::JitOptions& opts) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (native_) return native_;
  }
  // Outside the lock: a miss runs emit + cc + dlopen.
  Expected<std::shared_ptr<const jit::NativeKernel>> k =
      art.jit_kernel(nest(), opts);
  if (!k) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (!native_) native_ = std::move(*k);
  return native_;
}

std::size_t worker_count(const ExecPolicy& policy, const ThreadPool* pool) {
  if (policy.threads()) return policy.threads();
  if (pool) return pool->size();
  return default_worker_count();
}

}  // namespace vdep::detail
