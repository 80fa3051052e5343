// Versioned binary archive for simulator checkpoints (snapshot/restore).
//
// The service core's determinism contract ("a run checkpointed at frame k
// and resumed equals an uninterrupted run") needs a STABLE serialized form:
// fixed-width little-endian integers and doubles written as their IEEE-754
// bit patterns, so a snapshot taken on one toolchain restores bit-exactly on
// another.  No floating-point text round-trips, no host-endianness leaks.
//
// One field list per type.  Every checkpointed type lists its evolved state
// exactly once, in a member template run by both archive directions:
//
//   template <class Ar> void io(Ar& ar) {
//     ar(pos_, speed_, rng_);   // scalars by C++ type, nested types by io()
//     ar.fixed(lane_);          // shape fixed at init
//     ar.var(members_);         // shape that evolves
//   }
//
// BinaryWriter and BinaryReader share this vocabulary:
//
//   ar(x, ...)        bool -> u8, double -> f64 bits, integers -> little-
//                     endian at their own width, std::string -> u64 length +
//                     bytes, class types -> their io().
//   ar.u8/u32/u64(x)  an explicit wire width (enums, a size_t stored as u32,
//                     atomics).
//   ar.fixed(c[, f])  u64 count + elements.  FIXED-SHAPE read: the count
//                     must equal the live size (lanes sized at init from the
//                     config) or ok() clears; nothing is resized.
//   ar.var(c[, n, f]) u64 count + elements.  VARIABLE-SHAPE read: the
//                     container is resized to the count (plausibility-checked
//                     at `n` bytes per element first).
//   ar.blob(bytes)    u64 length + raw bytes, copied in one operation.
//   ar.expect(x)      a value the live object already holds (model tags,
//                     config fingerprints): written as-is, compared on read.
//   ar.poly(x)        a polymorphic member: its save_state()/load_state()
//                     virtual, which forwards to the concrete type's io().
//
// BinaryReader fails SOFT: reads past the end (or a size prefix larger than
// the remaining payload) clear ok() and return zeros/empties instead of
// touching out-of-range memory, so a truncated or corrupted archive is a
// recoverable failure, never UB.  Reads go in place: after a failed read the
// target is partially overwritten, so a caller that must not expose that
// (Simulator::restore) rolls back.  Archives are framed by seal()/unseal():
// magic + version header, crc32() footer, so a bit-flipped archive is
// refused by checksum before any field is parsed.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace wcdma::common {

namespace detail {
constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[n] = c;
  }
  return table;
}
inline constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();
}  // namespace detail

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `size` bytes.
/// Chainable: pass a previous return value as `seed` to extend a running
/// checksum.  Archives append crc32(payload) as a little-endian u32 footer so
/// corruption (bit-flips as well as truncation) is detected by checksum
/// rather than parse luck.
inline std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                           std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = detail::kCrc32Table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(const std::vector<std::uint8_t>& bytes,
                           std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

class BinaryWriter {
 public:
  template <class... T>
  void operator()(const T&... fields) {
    (field(fields), ...);
  }

  template <class T>
  void u8(const T& v) { append_le(static_cast<std::uint8_t>(v)); }
  template <class T>
  void u32(const T& v) { append_le(static_cast<std::uint32_t>(v)); }
  template <class T>
  void u64(const T& v) { append_le(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// IEEE-754 bit pattern, never a decimal round-trip.
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void blob(const std::vector<std::uint8_t>& b) {
    u64(b.size());
    bytes_.insert(bytes_.end(), b.begin(), b.end());
  }

  template <class T>
  void expect(const T& live) { field(live); }
  template <class T>
  void poly(const T& x) { x.save_state(*this); }

  template <class C>
  void fixed(const C& c) { var(c); }
  template <class C, class Fn>
  void fixed(const C& c, Fn&& elem) { var(c, 0, elem); }
  template <class C>
  void var(const C& c) {
    var(c, 0, [this](const auto& e) { field(e); });
  }
  template <class C, class Fn>
  void var(const C& c, std::size_t /*elem_bytes*/, Fn&& elem) {
    u64(c.size());
    for (const auto& e : c) elem(e);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  template <class T>
  void field(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      boolean(v);
    } else if constexpr (std::is_same_v<T, double>) {
      f64(v);
    } else if constexpr (std::is_integral_v<T>) {
      append_le(static_cast<std::make_unsigned_t<T>>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      str(v);
    } else {
      // io() is one non-const template for both directions; the writer only
      // reads the fields it visits, so dropping const never mutates `v`.
      const_cast<T&>(v).io(*this);
    }
  }

  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> bytes_;
};

class BinaryReader {
 public:
  BinaryReader() = default;
  BinaryReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit BinaryReader(const std::vector<std::uint8_t>& bytes)
      : BinaryReader(bytes.data(), bytes.size()) {}

  /// False once any read ran past the end, a size prefix was implausible,
  /// or a fixed-shape/expected value disagreed with the live object.
  /// Callers check once at the end of a load; reads after a failure keep
  /// returning zeros/empties.
  bool ok() const { return ok_; }
  /// True when the whole payload was consumed (trailing garbage detector).
  bool at_end() const { return pos_ == size_; }

  template <class... T>
  void operator()(T&... fields) {
    (field(fields), ...);
  }

  std::uint8_t u8() { return read_le<std::uint8_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  bool boolean() { return u8() != 0; }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    if (!plausible(n, 1) || !take(static_cast<std::size_t>(n))) return {};
    return std::string(reinterpret_cast<const char*>(data_ + pos_ - n),
                       static_cast<std::size_t>(n));
  }
  void blob(std::vector<std::uint8_t>& b) {
    const std::size_t n = seq(1);
    b.assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
  }

  template <class T>
  void u8(T& v) { v = static_cast<T>(u8()); }
  template <class T>
  void u32(T& v) { v = static_cast<T>(u32()); }
  /// Assignment, not a cast: the target may be a std::atomic.
  template <class T>
  void u64(T& v) { v = u64(); }

  template <class T>
  void expect(const T& live) {
    T v{};
    field(v);
    // Exact comparison (floats included): any bit difference must refuse.
    if (!(v == live)) ok_ = false;
  }
  template <class T>
  void poly(T& x) { x.load_state(*this); }

  template <class C>
  void fixed(C& c) {
    fixed(c, [this](auto& e) { field(e); });
  }
  template <class C, class Fn>
  void fixed(C& c, Fn&& elem) {
    if (u64() != c.size()) ok_ = false;
    if (!ok_) return;
    for (auto& e : c) elem(e);
  }
  template <class C>
  void var(C& c) {
    using E = typename C::value_type;
    var(c, std::is_arithmetic_v<E> ? sizeof(E) : 1, [this](auto& e) { field(e); });
  }
  template <class C, class Fn>
  void var(C& c, std::size_t elem_bytes, Fn&& elem) {
    c.clear();
    c.resize(seq(elem_bytes));
    for (auto& e : c) elem(e);
  }

 private:
  template <class T>
  void field(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = boolean();
    } else if constexpr (std::is_same_v<T, double>) {
      v = f64();
    } else if constexpr (std::is_integral_v<T>) {
      v = static_cast<T>(read_le<std::make_unsigned_t<T>>());
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = str();
    } else {
      v.io(*this);
    }
  }

  template <typename T>
  T read_le() {
    if (!take(sizeof(T))) return 0;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ - sizeof(T) + i]) << (8 * i));
    }
    return v;
  }

  /// Size prefix of a variable-shape sequence; 0 (with ok() cleared) when
  /// the prefix can't fit in the remaining payload at `min_elem_bytes` each.
  std::size_t seq(std::size_t min_elem_bytes) {
    const std::uint64_t n = u64();
    if (!plausible(n, min_elem_bytes)) return 0;
    return static_cast<std::size_t>(n);
  }
  bool plausible(std::uint64_t n, std::size_t elem_bytes) {
    // Divide instead of multiply: a hostile size prefix must not overflow.
    if (!ok_ || n > (size_ - pos_) / elem_bytes) {
      ok_ = false;
      return false;
    }
    return true;
  }
  bool take(std::size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- Sealed archives --------------------------------------------------------
// Layout: u32 magic | u32 version | body | u32 crc32(magic .. body).
inline constexpr std::size_t kSealFooterBytes = 4;

/// Writes the header, runs `body(BinaryWriter&)`, appends the crc footer.
template <class Fn>
std::vector<std::uint8_t> seal(std::uint32_t magic, std::uint32_t version,
                               Fn&& body) {
  BinaryWriter w;
  w.u32(magic);
  w.u32(version);
  body(w);
  w.u32(crc32(w.bytes()));
  return w.take();
}

/// Checks a seal()ed archive's footer, then its magic and version.  On
/// success returns nullptr and points *body at the payload after the
/// version word (the footer excluded); otherwise returns why it refused.
/// Mutation-free either way: nothing but *body is touched.
inline const char* unseal(const std::vector<std::uint8_t>& bytes,
                          std::uint32_t magic, std::uint32_t version,
                          BinaryReader* body) {
  if (bytes.size() <= kSealFooterBytes) return "truncated below the crc footer";
  const std::size_t payload = bytes.size() - kSealFooterBytes;
  BinaryReader footer(bytes.data() + payload, kSealFooterBytes);
  if (crc32(bytes.data(), payload) != footer.u32()) return "failed its crc32 check";
  *body = BinaryReader(bytes.data(), payload);
  if (body->u32() != magic || body->u32() != version) {
    return "has a wrong magic/version";
  }
  return nullptr;
}

}  // namespace wcdma::common
