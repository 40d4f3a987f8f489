// Length-prefixed field encoding for composite cache/memo keys.
//
// Every cache key in the library (structural fingerprints, codegen/jit memo
// keys, the on-disk artifact cache) is a concatenation of fields, several of
// which are free-form text the user controls: array names, kernel names,
// compiler driver strings, extra flags. Joining those with separator
// characters is unsound — a name containing the separator forges field
// boundaries, and two different inputs collide on one key (worst case: one
// request is served another request's native kernel). Encoding every
// free-form field as `<decimal length>:<bytes>` makes the concatenation
// injective: no byte of a field can be confused with framing, whatever the
// field contains.
//
// Fixed-alphabet fields (rendered integers, single-character tags emitted by
// the library itself) cannot contain framing bytes and do not need the
// prefix; only strings that originate outside the key builder do.
#pragma once

#include <charconv>
#include <string>
#include <string_view>

namespace vdep::keyenc {

/// Appends `field` as `<decimal length>:<bytes>`. The encoding is a prefix
/// code, so appending fields in sequence is injective over the sequence.
inline void append_field(std::string* out, std::string_view field) {
  char buf[24];
  char* end = std::to_chars(buf, buf + sizeof(buf), field.size()).ptr;
  out->append(buf, end);
  out->push_back(':');
  out->append(field.data(), field.size());
}

}  // namespace vdep::keyenc
