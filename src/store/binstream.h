// binstream: the little-endian binary primitives every on-disk byte of
// the snapshot store goes through.
//
// FORMAT SPEC (the contract tests/store_test.cc pins byte-for-byte):
//  * fixed-width integers are little-endian, assembled with byte shifts
//    -- the encoded bytes are identical on any host endianness;
//  * unsigned varints are LEB128 (7 data bits per byte, high bit =
//    continuation, at most 10 bytes for a u64);
//  * signed integers are zigzag-mapped ((v << 1) ^ (v >> 63)) then
//    varint-encoded, so small magnitudes of either sign stay short;
//  * doubles are their IEEE-754 bit pattern as a fixed u64 (via memcpy,
//    never a reinterpret_cast);
//  * strings and arrays are a varint element count followed by the
//    elements.
//
// THE CODEC. BinWriter and BinReader are its two sides and share every
// method name, so each wire type's layout is written ONCE, as a
// `Transfer(codec, value)` template that store/snapshot.cc runs over a
// BinWriter to write and over a BinReader to read. `Io<Codec, T>` is the
// value's type as that template sees it: const for the writer, mutable
// for the reader.
//
// Checks belong to the reader. Every BinReader read is bounds-checked
// and takes the range its destination may hold -- a max, a [min, max]
// range, or for counts the bytes left -- defaulting to the destination
// type's own range, so a narrowing read cannot wrap. BinWriter accepts
// the same arguments and ignores them, and its Check does nothing.
//
// FIRST-FAILURE RULE. BinReader is sticky: the first overrun, malformed
// varint, out-of-range value or failed Check is kept in status() as
// Status::DataLoss, and from then on every call reads and assigns
// nothing. A Transfer therefore names each field once with no per-field
// error plumbing; its caller reads status() (or ExpectEnd) at the end.
// Reader-only steps that index by a decoded value run only while ok().
//
// Double arrays take a single-memcpy fast path on little-endian hosts
// -- warm-start load time is dominated by exactly these bulk copies --
// and fall back to per-element encoding elsewhere, producing identical
// bytes.
//
// tools/check_contracts.py enforces that raw serialization (fwrite/fread,
// reinterpret_cast byte punning) appears nowhere outside src/store/: this
// header IS the sanctioned byte boundary.

#ifndef UCLEAN_STORE_BINSTREAM_H_
#define UCLEAN_STORE_BINSTREAM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace uclean {
namespace store {

/// True on little-endian hosts (the fast path for bulk double arrays).
inline bool IsLittleEndianHost() {
  const uint32_t probe = 1;
  unsigned char first = 0;
  std::memcpy(&first, &probe, 1);
  return first == 1;
}

/// `T` as a Transfer over codec side `Codec` sees it.
template <typename Codec, typename T>
using Io = std::conditional_t<Codec::kReads, T, const T>;

/// Appends primitives to an owned byte buffer (see the format spec above).
/// Bound arguments are the reader's and are ignored here.
class BinWriter {
 public:
  static constexpr bool kReads = false;

  const std::string& bytes() const { return bytes_; }
  /// The bytes written so far; leaves the writer empty for reuse.
  std::string Take() { return std::exchange(bytes_, std::string()); }
  size_t size() const { return bytes_.size(); }

  template <typename T>
  void U8(T v, uint64_t /*min*/ = 0, uint64_t /*max*/ = 0) {
    bytes_.push_back(static_cast<char>(v));
  }
  void Bool(bool v) { U8(v ? 1 : 0); }

  void U32(uint32_t v) { Fixed(v); }
  void U64(uint64_t v) { Fixed(v); }

  template <typename T>
  void Varint(T v, uint64_t /*min_or_max*/ = 0, uint64_t /*max*/ = 0) {
    uint64_t u = static_cast<uint64_t>(v);
    while (u >= 0x80) {
      bytes_.push_back(static_cast<char>((u & 0x7F) | 0x80));
      u >>= 7;
    }
    bytes_.push_back(static_cast<char>(u));
  }

  template <typename T>
  void Zigzag(T v, int64_t /*min*/ = 0, int64_t /*max*/ = 0) {
    const int64_t s = static_cast<int64_t>(v);
    Varint((static_cast<uint64_t>(s) << 1) ^ static_cast<uint64_t>(s >> 63));
  }

  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, 8);
    U64(bits);
  }

  void String(std::string_view s) {
    Varint(s.size());
    bytes_.append(s.data(), s.size());
  }

  /// varint count + the doubles; one memcpy on little-endian hosts (the
  /// IEEE bit pattern already lies in wire order there).
  void F64Array(const std::vector<double>& values, uint64_t /*min*/ = 0,
                uint64_t /*max*/ = 0) {
    Varint(values.size());
    Doubles(values);
  }

  /// F64Array for a vector whose length an earlier field fixed; the
  /// reader holds the count to `count`. The bytes are F64Array's.
  void F64ArrayOfSize(const std::vector<double>& values, uint64_t /*count*/,
                      const char* /*what*/) {
    F64Array(values);
  }

  void VarintArray(const std::vector<size_t>& values) {
    Varint(values.size());
    for (size_t v : values) Varint(v);
  }

  /// A container's element count; the Transfer then visits each element.
  template <typename V>
  void Size(const V& v, uint64_t /*min*/ = 0, uint64_t /*max*/ = 0) {
    Varint(v.size());
  }

  void Check(bool /*holds*/, const char* /*what*/) {}

 private:
  void Doubles(const std::vector<double>& values) {
    if (values.empty()) return;
    if (IsLittleEndianHost()) {
      const size_t old = bytes_.size();
      bytes_.resize(old + values.size() * 8);
      std::memcpy(&bytes_[old], values.data(), values.size() * 8);
    } else {
      for (double v : values) F64(v);
    }
  }

  template <typename U>
  void Fixed(U v) {
    char b[sizeof(U)];
    for (size_t i = 0; i < sizeof(U); ++i) {
      b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
    bytes_.append(b, sizeof(U));
  }

  std::string bytes_;
};

/// Walks a borrowed byte buffer under the first-failure rule (see the
/// header comment): every read is bounds-checked, and a failure ends the
/// readable bytes where it happened, so every later read fails on its
/// bounds check and assigns nothing -- the read paths carry no status
/// test of their own.
class BinReader {
 public:
  static constexpr bool kReads = true;

  explicit BinReader(std::string_view bytes)
      : begin_(bytes.data()), pos_(begin_), end_(begin_ + bytes.size()) {}

  /// OK until the first failure; that failure's DataLoss from then on.
  const Status& status() const { return status_; }
  bool ok() const { return status_.ok(); }

  size_t offset() const { return static_cast<size_t>(pos_ - begin_); }
  size_t remaining() const { return static_cast<size_t>(end_ - pos_); }

  /// Records a DataLoss failure unless an earlier one is already held.
  /// Out of line: it only runs on corrupt input.
  [[gnu::cold, gnu::noinline]] void Fail(std::string_view what) {
    if (ok()) status_ = Status::DataLoss(std::string(what));
    end_ = pos_;
  }
  void Check(bool holds, const char* what) {
    if (!holds) Fail(what);
  }

  template <typename T>
  void U8(T& v, uint64_t min = 0, uint64_t max = kMaxOf<T>) {
    uint8_t byte = 0;
    if (Fixed(&byte, "u8") && InRange<uint64_t>(byte, min, Cap<T>(max))) {
      v = static_cast<T>(byte);
    }
  }
  void Bool(bool& v) {
    uint8_t byte = 0;
    if (Fixed(&byte, "bool") && InRange<uint64_t>(byte, 0, 1)) v = byte != 0;
  }

  void U32(uint32_t& v) { Fixed(&v, "u32"); }
  void U64(uint64_t& v) { Fixed(&v, "u64"); }

  template <typename T>
  void Varint(T& v, uint64_t max = kMaxOf<T>) {
    Varint(v, 0, max);
  }
  template <typename T>
  void Varint(T& v, uint64_t min, uint64_t max) {
    uint64_t u = 0;
    if (ReadVarint(&u) && InRange(u, min, Cap<T>(max))) v = static_cast<T>(u);
  }

  template <typename T>
  void Zigzag(T& v, int64_t min = kMinOf<T>, int64_t max = kMaxOf<T>) {
    static_assert(std::is_signed_v<typename Repr<T>::type>);
    uint64_t u = 0;
    if (!ReadVarint(&u)) return;
    const int64_t s = static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
    const int64_t cap = std::min(max, static_cast<int64_t>(kMaxOf<T>));
    if (InRange(s, std::max(min, kMinOf<T>), cap)) v = static_cast<T>(s);
  }

  void F64(double& v) {
    uint64_t bits = 0;
    if (Fixed(&bits, "f64")) std::memcpy(&v, &bits, 8);
  }

  void String(std::string& s) {
    uint64_t size = 0;
    if (!ReadVarint(&size)) return;
    if (size > remaining()) return Truncated("string body");
    s.assign(pos_, size);
    pos_ += size;
  }

  /// The element count must also lie in [min, max].
  void F64Array(std::vector<double>& v, uint64_t min = 0,
                uint64_t max = std::numeric_limits<uint64_t>::max()) {
    uint64_t count = 0;
    if (!ReadVarint(&count)) return;
    if (count > remaining() / 8) return Truncated("double array");
    if (InRange(count, min, max)) Doubles(v, count);
  }

  /// An F64Array whose count must be exactly `count`, a length an earlier
  /// field fixed: any other count fails with `what` before anything is
  /// allocated.
  void F64ArrayOfSize(std::vector<double>& v, uint64_t count,
                      const char* what) {
    uint64_t got = 0;
    if (!ReadVarint(&got)) return;
    if (got != count) return Fail(what);
    if (count > remaining() / 8) return Truncated("double array");
    Doubles(v, count);
  }

  void VarintArray(std::vector<size_t>& v) {
    Size(v);
    for (size_t& x : v) Varint(x);
  }

  /// Resizes `v` to a decoded element count in [min, max]. Every element
  /// takes at least one byte, so the count is also held to the bytes
  /// left -- no attacker-sized allocation before the data is proven.
  template <typename V>
  void Size(V& v, uint64_t min = 0,
            uint64_t max = std::numeric_limits<uint64_t>::max()) {
    uint64_t count = 0;
    if (!ReadVarint(&count)) return;
    if (count > remaining()) return Truncated("element list");
    if (InRange(count, min, max)) v.resize(count);
  }

  /// A decoder's final word: leftover bytes mean the payload and the
  /// decoder disagree about the format -- corruption, not slack.
  const Status& ExpectEnd(const char* what) {
    if (ok() && pos_ != end_) {
      Fail(std::string(what) + ": " + std::to_string(remaining()) +
           " trailing bytes");
    }
    return status_;
  }

 private:
  // The range of destination type `T` (an enum's underlying type's),
  // which every explicit bound is capped to.
  template <typename T, bool = std::is_enum_v<T>>
  struct Repr {
    using type = T;
  };
  template <typename T>
  struct Repr<T, true> {
    using type = std::underlying_type_t<T>;
  };
  template <typename T>
  using Limits = std::numeric_limits<typename Repr<T>::type>;
  template <typename T>
  static constexpr uint64_t kMaxOf = static_cast<uint64_t>(Limits<T>::max());
  template <typename T>
  static constexpr int64_t kMinOf = static_cast<int64_t>(Limits<T>::min());
  template <typename T>
  static uint64_t Cap(uint64_t max) {
    return std::min(max, kMaxOf<T>);
  }

  std::string At() const { return " at offset " + std::to_string(offset()); }
  [[gnu::cold, gnu::noinline]] void Truncated(const char* what) {
    if (ok()) Fail(std::string("truncated ") + what + At());
  }
  template <typename V>
  bool InRange(V v, V min, V max) {
    return (v >= min && v <= max) || OutOfRange(v);
  }
  template <typename V>
  [[gnu::cold, gnu::noinline]] bool OutOfRange(V v) {
    Fail("value " + std::to_string(v) + " out of range" + At());
    return false;
  }

  // `count` doubles, already held to the bytes left.
  void Doubles(std::vector<double>& v, uint64_t count) {
    v.resize(count);
    if (count == 0) return;
    if (IsLittleEndianHost()) {
      std::memcpy(v.data(), pos_, count * 8);
      pos_ += count * 8;
    } else {
      for (double& d : v) F64(d);
    }
  }

  template <typename U>
  bool Fixed(U* out, const char* what) {
    if (remaining() < sizeof(U)) {
      Truncated(what);
      return false;
    }
    U v = 0;
    for (size_t i = 0; i < sizeof(U); ++i) {
      v |= static_cast<U>(static_cast<unsigned char>(pos_[i])) << (8 * i);
    }
    pos_ += sizeof(U);
    *out = v;
    return true;
  }

  bool ReadVarint(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (remaining() < 1) {
        Truncated("varint");
        return false;
      }
      const uint8_t byte = static_cast<uint8_t>(*pos_++);
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        // The 10th byte carries the top single bit; anything above it
        // would have been dropped by the shift -- reject instead.
        if (shift == 63 && byte > 1) {
          Fail("varint overflows 64 bits");
          return false;
        }
        *out = v;
        return true;
      }
    }
    Fail("varint longer than 10 bytes");
    return false;
  }

  const char* begin_;
  const char* pos_;
  const char* end_;
  Status status_;
};

}  // namespace store
}  // namespace uclean

#endif  // UCLEAN_STORE_BINSTREAM_H_
