#include "jit/native_kernel.h"

#include "support/error.h"

#if defined(__unix__) || defined(__APPLE__)
#include <dlfcn.h>
#define VDEP_JIT_POSIX 1
#endif

namespace vdep::jit {

NativeKernel::~NativeKernel() {
#ifdef VDEP_JIT_POSIX
  if (handle_) dlclose(handle_);
#endif
}

std::vector<std::int64_t*> NativeKernel::buffers(
    exec::ArrayStore& store) const {
  std::vector<std::int64_t*> bufs;
  bufs.reserve(arrays_.size());
  for (const std::string& name : arrays_)
    bufs.push_back(store.raw_mutable(name).data());
  return bufs;
}

i64 NativeKernel::execute_range(exec::ArrayStore& store,
                                const exec::IterBox& box) const {
  VDEP_REQUIRE(!row_kernel_, "execute_range on a row kernel");
  return fn_(buffers(store).data(), box.lo, box.hi, box.ndims, box.class_lo,
             box.class_hi);
}

i64 NativeKernel::execute_rows(exec::ArrayStore& store, const i64* rows,
                               const i64* members, i64 depth, i64 m_lo,
                               i64 m_hi) const {
  VDEP_REQUIRE(row_kernel_, "execute_rows on a range kernel");
  return fn_(buffers(store).data(), rows, members, depth, m_lo, m_hi);
}

}  // namespace vdep::jit
