#pragma once

/// \file bytes.hpp
/// Alignment-safe byte IO for every serialization path (nn/serialize and
/// serve/checkpoint, the one pipeline format). All conversions go
/// through memcpy or object->void->char pointer casts — both well-defined
/// for trivially copyable types — so the irf_analyze `reinterpret-cast` rule
/// can ban type punning outright and UBSan stays quiet on checkpoint
/// parsing regardless of buffer alignment.

#include <cstring>
#include <istream>
#include <ostream>
#include <type_traits>

namespace irf {

/// View any object's storage as bytes (legal without reinterpret_cast:
/// object pointer -> void* -> char* is a standard conversion chain).
inline const char* as_bytes(const void* p) { return static_cast<const char*>(p); }
inline char* as_writable_bytes(void* p) { return static_cast<char*>(p); }

/// Write a trivially copyable value, staging through a char buffer so the
/// store never assumes alignment.
template <typename T>
void write_pod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out.write(buf, sizeof(T));
}

/// Read a trivially copyable value through a char staging buffer.
template <typename T>
void read_pod(std::istream& in, T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char buf[sizeof(T)] = {};
  in.read(buf, sizeof(T));
  std::memcpy(&value, buf, sizeof(T));
}

/// Bulk array IO (float/double parameter blobs): no staging copy needed,
/// the stream reads/writes the array's own storage as bytes.
inline void write_bytes(std::ostream& out, const void* data, std::size_t bytes) {
  out.write(as_bytes(data), static_cast<std::streamsize>(bytes));
}

inline void read_bytes(std::istream& in, void* data, std::size_t bytes) {
  in.read(as_writable_bytes(data), static_cast<std::streamsize>(bytes));
}

}  // namespace irf
