#include "engine/cache/disk_cache.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "support/codec.h"

namespace ttdim::engine::cache {

namespace fs = std::filesystem;
using support::codec::fnv1a;

namespace {

constexpr char kMagic[4] = {'T', 'T', 'D', 'C'};
// Header: magic + version + key length + value length.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;
constexpr std::size_t kChecksumBytes = 8;
// Temp files older than this are considered abandoned by a crashed
// writer and swept during trim. Live writers publish within
// milliseconds, so ten minutes is conservative even under CI load.
constexpr auto kStaleTmpAge = std::chrono::minutes(10);

bool is_entry_file(const fs::path& p) { return p.extension() == ".entry"; }

bool is_tmp_file(const fs::path& p) {
  return p.filename().string().rfind("tmp_", 0) == 0;
}

}  // namespace

DiskCache::DiskCache(std::string directory, std::size_t byte_budget)
    : directory_(std::move(directory)),
      byte_budget_(byte_budget == 0 ? 1 : byte_budget) {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  // Initialise the resident estimate from whatever a prior process left
  // behind; errors (permission, racing deletion) just leave it at 0 and
  // the next trim corrects the picture.
  std::size_t total = 0;
  for (fs::recursive_directory_iterator it(directory_, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec) || !is_entry_file(it->path())) continue;
    total += static_cast<std::size_t>(it->file_size(ec));
  }
  bytes_.store(total, std::memory_order_relaxed);
}

std::string DiskCache::entry_path(std::string_view space,
                                  std::string_view key) const {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fnv1a(key)));
  std::string path = directory_;
  path += '/';
  path.append(space.data(), space.size());
  path += '/';
  path += hex;
  path += ".entry";
  return path;
}

std::optional<std::string> DiskCache::get(std::string_view space,
                                          std::string_view key) {
  const std::string path = entry_path(space, key);
  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof()) {
      corrupt_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    blob = std::move(buf).str();
  }

  // Structurally broken entries (truncated, flipped bytes, bad magic)
  // are deleted so the next fresh result can take the path — the cache
  // self-heals instead of serving cold misses forever. A clean version
  // mismatch is different: it is a well-formed entry from another
  // format era (a mixed-version directory), left to age out via trim.
  const auto reject = [&](bool remove_entry) -> std::optional<std::string> {
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    if (remove_entry) {
      std::error_code rec;
      fs::remove(path, rec);
    }
    return std::nullopt;
  };
  if (blob.size() < kHeaderBytes + kChecksumBytes) return reject(true);
  if (std::string_view(blob.data(), 4) != std::string_view(kMagic, 4))
    return reject(true);
  support::codec::Decoder header(
      std::string_view(blob).substr(4, kHeaderBytes - 4));
  std::uint32_t version = 0;
  std::uint64_t key_len = 0;
  std::uint64_t value_len = 0;
  header.u32(version);
  if (version != kFormatVersion) return reject(false);
  header.u64(key_len);
  header.u64(value_len);
  const std::uint64_t payload = key_len + value_len;
  if (!header.done() || payload < key_len ||  // overflow
      blob.size() != kHeaderBytes + payload + kChecksumBytes)
    return reject(true);
  const std::string_view stored(blob.data() + kHeaderBytes,
                                static_cast<std::size_t>(payload));
  support::codec::Decoder trailer(
      std::string_view(blob).substr(kHeaderBytes + stored.size()));
  std::uint64_t checksum = 0;
  if (!trailer.u64(checksum) || checksum != fnv1a(stored)) return reject(true);
  // Hash collision between distinct keys: not our entry, report a miss.
  if (stored.substr(0, static_cast<std::size_t>(key_len)) != key) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }

  hits_.fetch_add(1, std::memory_order_relaxed);
  // Refresh recency so the mtime trim is LRU; failure is harmless (the
  // entry just keeps its old age).
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  return std::string(stored.substr(static_cast<std::size_t>(key_len)));
}

void DiskCache::put(std::string_view space, std::string_view key,
                    std::string_view value) {
  const std::string path = entry_path(space, key);
  std::error_code ec;
  if (fs::exists(path, ec)) return;  // content-addressed: already stored

  std::string blob;
  blob.reserve(kHeaderBytes + key.size() + value.size() + kChecksumBytes);
  support::codec::Encoder enc(blob);
  blob.append(kMagic, 4);
  enc.u32(kFormatVersion);
  enc.u64(key.size());
  enc.u64(value.size());
  blob.append(key.data(), key.size());
  blob.append(value.data(), value.size());
  enc.u64(fnv1a(std::string_view(blob).substr(kHeaderBytes)));
  if (blob.size() > byte_budget_) return;  // can never fit

  fs::create_directories(fs::path(path).parent_path(), ec);
  // Unique temp name in the destination directory so the final rename
  // cannot cross filesystems and concurrent writers never collide.
  std::string tmp = fs::path(path).parent_path().string();
  tmp += "/tmp_";
  tmp += fs::path(path).stem().string();
  tmp += '_';
  tmp += std::to_string(static_cast<long>(::getpid()));
  tmp += '_';
  tmp +=
      std::to_string(tmp_seq_.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      fs::remove(tmp, ec);
      return;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return;
  }
  writes_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t now =
      bytes_.fetch_add(blob.size(), std::memory_order_relaxed) + blob.size();
  if (now > byte_budget_) trim();
}

void DiskCache::trim() {
  support::MutexLock lock(trim_mutex_);

  struct Entry {
    fs::path path;
    fs::file_time_type mtime;
    std::size_t size = 0;
  };
  std::vector<Entry> entries;
  std::size_t total = 0;
  const auto tmp_cutoff = fs::file_time_type::clock::now() - kStaleTmpAge;

  std::error_code ec;
  for (fs::recursive_directory_iterator it(directory_, ec), end;
       !ec && it != end; it.increment(ec)) {
    std::error_code fec;
    if (!it->is_regular_file(fec)) continue;
    const fs::path& p = it->path();
    if (is_tmp_file(p)) {
      // Sweep temp files abandoned by a crashed writer; a live writer's
      // temp file is newer than the cutoff and survives.
      const auto mtime = fs::last_write_time(p, fec);
      if (!fec && mtime < tmp_cutoff) fs::remove(p, fec);
      continue;
    }
    if (!is_entry_file(p)) continue;
    Entry e;
    e.path = p;
    e.mtime = fs::last_write_time(p, fec);
    if (fec) continue;
    e.size = static_cast<std::size_t>(fs::file_size(p, fec));
    if (fec) continue;
    total += e.size;
    entries.push_back(std::move(e));
  }

  if (total > byte_budget_) {
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
    for (const Entry& e : entries) {
      if (total <= byte_budget_) break;
      std::error_code rec;
      fs::remove(e.path, rec);
      // A concurrent process may have removed it first — the bytes are
      // gone either way.
      total -= std::min(total, e.size);
    }
    trims_.fetch_add(1, std::memory_order_relaxed);
  }
  bytes_.store(total, std::memory_order_relaxed);
}

DiskCacheStats DiskCache::stats() const {
  DiskCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.corrupt = corrupt_.load(std::memory_order_relaxed);
  s.writes = writes_.load(std::memory_order_relaxed);
  s.trims = trims_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.byte_budget = byte_budget_;
  return s;
}

}  // namespace ttdim::engine::cache
