// Error hierarchy and precondition checking for the vdep library.
//
// Every precondition violation throws; exact integer arithmetic that would
// overflow throws OverflowError instead of silently wrapping (signed overflow
// is UB in C++, and a wrapped lattice coefficient would corrupt legality
// proofs downstream).
#pragma once

#include <stdexcept>
#include <string>

namespace vdep {

/// Base class of every error raised by the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A checked arithmetic operation exceeded the range of int64_t.
class OverflowError : public Error {
 public:
  explicit OverflowError(const std::string& what) : Error(what) {}
};

/// A caller violated a documented precondition.
class PreconditionError : public Error {
 public:
  explicit PreconditionError(const std::string& what) : Error(what) {}
};

/// An internal invariant failed (library bug, not user error).
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

/// Input program is outside the supported model (e.g. non-affine subscript).
class UnsupportedError : public Error {
 public:
  explicit UnsupportedError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] void throw_precondition(const char* cond, const char* file, int line,
                                     const std::string& msg);
[[noreturn]] void throw_internal(const char* cond, const char* file, int line,
                                 const std::string& msg);
}  // namespace detail

}  // namespace vdep

/// Precondition check: user-facing, always on.
#define VDEP_REQUIRE(cond, msg)                                                \
  do {                                                                         \
    if (!(cond)) ::vdep::detail::throw_precondition(#cond, __FILE__, __LINE__, \
                                                    (msg));                    \
  } while (0)

/// Internal invariant check: always on (analysis is not the hot path;
/// execution kernels avoid this macro).
#define VDEP_CHECK(cond, msg)                                              \
  do {                                                                     \
    if (!(cond)) ::vdep::detail::throw_internal(#cond, __FILE__, __LINE__, \
                                                (msg));                    \
  } while (0)

/// A point control never reaches (past an exhaustive switch): throws
/// InternalError unconditionally. The call is [[noreturn]], so a function
/// that must return a value needs nothing after it.
#define VDEP_UNREACHABLE(msg) \
  ::vdep::detail::throw_internal("unreachable", __FILE__, __LINE__, (msg))
