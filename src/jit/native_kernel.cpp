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

std::int64_t** NativeKernel::entry_buffers(
    const exec::BufferTable& bufs) const {
  VDEP_REQUIRE(bufs.size() == arrays_.size(), "buffer table of another nest");
  // The C entry takes int64_t**; it reads the table, never writes it.
  return const_cast<std::int64_t**>(bufs.data());
}

i64 NativeKernel::execute_range(const exec::BufferTable& bufs,
                                const exec::IterBox& box) const {
  VDEP_REQUIRE(!row_kernel_, "execute_range on a row kernel");
  return fn_(entry_buffers(bufs), box.lo, box.hi, box.ndims, box.class_lo,
             box.class_hi);
}

i64 NativeKernel::execute_rows(const exec::BufferTable& bufs, const i64* rows,
                               const i64* resolved, i64 depth, i64 m_lo,
                               i64 m_hi) const {
  VDEP_REQUIRE(row_kernel_, "execute_rows on a range kernel");
  return fn_(entry_buffers(bufs), rows, resolved, depth, m_lo, m_hi);
}

}  // namespace vdep::jit
