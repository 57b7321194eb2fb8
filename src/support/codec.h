// The one byte form of every value in the repository: fixed-width
// little-endian integers, IEEE-754 bit-pattern doubles, u32-length-
// prefixed strings and vectors. Cached values round-trip through
// encode/decode pairs built on these two helpers (engine/cache/
// disk_cache.h), and the content-addressed cache keys (AppAnalysisKey,
// SolveKey) are the encode bytes of their inputs — one serialization
// serves both, so a key and a stored value can never disagree about
// what identifies a plant or a gain. Bit patterns keep -0.0 and 0.0 (and
// every NaN payload) apart and involve no locale or text formatting, so
// the bytes are platform-stable and deterministic: equal values encode
// to equal bytes.
//
// The Decoder is built for hostile input — a truncated, corrupted or
// wrong-version cache entry must decode to "miss", never to a crash or a
// throw. Every read is bounds-checked, every length prefix is validated
// against the bytes actually remaining (so a corrupt length can never
// drive a huge allocation), and the first failure latches: once !ok(),
// every subsequent read fails and returns zero values. Callers check
// `ok() && done()` once at the end instead of per field.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace ttdim::support::codec {

/// FNV-1a over a byte string — the one byte-string hash of the library:
/// cache keys spread buckets with it (equality re-checks the full key
/// bytes), the disk cache names and checksums entries with it, the
/// subsumption index derives signature bits from it and fuzz artifacts
/// are named by it. Stored file names depend on the constants.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

class Encoder {
 public:
  explicit Encoder(std::string& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }

  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }

  void ints(const std::vector<int>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const int x : v) i32(x);
  }

 private:
  std::string& out_;
};

class Decoder {
 public:
  explicit Decoder(std::string_view in)
      : p_(in.data()), end_(in.data() + in.size()) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// Every byte consumed — callers require this so trailing garbage
  /// (e.g. a corrupt length that "parsed") still reads as a miss.
  [[nodiscard]] bool done() const noexcept { return ok_ && p_ == end_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }

  bool u8(std::uint8_t& v) {
    if (!take(1)) return fail(v);
    v = static_cast<std::uint8_t>(p_[-1]);
    return true;
  }

  bool u32(std::uint32_t& v) {
    if (!take(4)) return fail(v);
    v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p_[i - 4]))
           << (8 * i);
    return true;
  }

  bool u64(std::uint64_t& v) {
    if (!take(8)) return fail(v);
    v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p_[i - 8]))
           << (8 * i);
    return true;
  }

  bool i32(std::int32_t& v) {
    std::uint32_t u = 0;
    if (!u32(u)) return fail(v);
    v = static_cast<std::int32_t>(u);
    return true;
  }

  bool i64(std::int64_t& v) {
    std::uint64_t u = 0;
    if (!u64(u)) return fail(v);
    v = static_cast<std::int64_t>(u);
    return true;
  }

  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return fail(v);
    std::memcpy(&v, &bits, sizeof(v));
    return true;
  }

  bool str(std::string& v) {
    std::uint32_t len = 0;
    if (!u32(len) || len > remaining()) {
      ok_ = false;
      v.clear();
      return false;
    }
    v.assign(p_, len);
    p_ += len;
    return true;
  }

  bool ints(std::vector<int>& v) {
    std::uint32_t len = 0;
    v.clear();
    if (!u32(len) || len > remaining() / 4) {
      ok_ = false;
      return false;
    }
    v.reserve(len);
    for (std::uint32_t i = 0; i < len; ++i) {
      std::int32_t x = 0;
      if (!i32(x)) return false;
      v.push_back(x);
    }
    return true;
  }

 private:
  bool take(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    p_ += n;
    return true;
  }

  template <typename T>
  bool fail(T& v) {
    v = T{};
    return false;
  }

  const char* p_;
  const char* end_;
  bool ok_ = true;
};

}  // namespace ttdim::support::codec
