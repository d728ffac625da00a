#include "support/artifact_cache.hpp"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "observability/metrics.hpp"
#include "support/chaos.hpp"
#include "support/env.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"
#include "support/serialize.hpp"
#include "support/strings.hpp"

namespace socrates {

namespace {

constexpr const char* kMagic = "socrates-artifact";
constexpr const char* kVersion = "v1";

std::string sanitize_label(std::string_view label) {
  std::string out;
  out.reserve(label.size());
  for (const char c : label) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out.empty() ? std::string("artifact") : out;
}

}  // namespace

ArtifactCache::ArtifactCache(std::string disk_dir) : dir_(std::move(disk_dir)) {
  if (dir_.empty()) return;
  // Sweep temp files a killed process left behind.  A live writer's
  // temp can in principle be swept too; it then fails its rename and
  // recomputes — graceful either way (see the rename error path below).
  std::error_code ec;
  std::filesystem::directory_iterator it(dir_, ec);
  if (ec) return;  // directory does not exist yet (created on first store)
  std::size_t swept = 0;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (!contains(name, ".artifact.tmp.")) continue;
    std::filesystem::remove(entry.path(), ec);
    if (!ec) ++swept;
  }
  if (swept > 0) {
    stats_.swept_tmp_files = swept;
    MetricsRegistry::global().counter("cache.tmp_files_swept").add(swept);
    log_info() << "artifact cache: swept " << swept << " stale tmp file(s) in "
               << dir_;
  }
}

ArtifactCache& ArtifactCache::global() {
  static ArtifactCache kCache(env::string_or("SOCRATES_CACHE_DIR", ""));
  return kCache;
}

std::string ArtifactCache::file_path(std::uint64_t key, std::string_view label) const {
  std::ostringstream os;
  os << dir_ << '/' << sanitize_label(label) << '-' << std::hex << key << ".artifact";
  return os.str();
}

std::optional<std::string> ArtifactCache::load(std::uint64_t key,
                                               std::string_view label) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = memory_.find(key);
    if (it != memory_.end()) {
      ++stats_.memory_hits;
      MetricsRegistry::global().counter("cache.memory_hits").add(1);
      return it->second;
    }
  }
  if (!dir_.empty()) {
    const std::string path = file_path(key, label);
    std::ifstream in(path, std::ios::binary);
    if (in && ChaosEngine::global().corrupt_read("cache.read")) {
      // Injected read error: behave exactly like a corrupted file — a
      // miss, never an exception (the stage recomputes).
      log_warn() << "artifact cache: chaos-injected read error on " << path;
      in.setstate(std::ios::failbit);
      MetricsRegistry::global().counter("cache.corrupted_files").add(1);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.misses;
      MetricsRegistry::global().counter("cache.misses").add(1);
      return std::nullopt;
    }
    if (in) {
      // Header: magic version key-hex payload-size payload-hash-hex
      std::string magic, version, key_text, size_text, hash_text;
      if (in >> magic >> version >> key_text >> size_text >> hash_text &&
          magic == kMagic && version == kVersion) {
        in.get();  // the single separator newline
        char* end = nullptr;
        const std::uint64_t stored_key = std::strtoull(key_text.c_str(), &end, 16);
        const unsigned long long size = std::strtoull(size_text.c_str(), nullptr, 10);
        const std::uint64_t payload_hash = std::strtoull(hash_text.c_str(), nullptr, 16);
        std::optional<std::string> payload = read_claimed_payload(in, size);
        if (payload && stored_key == key && stable_hash64(*payload) == payload_hash) {
          std::lock_guard<std::mutex> lock(mu_);
          memory_.emplace(key, *payload);
          ++stats_.disk_hits;
          MetricsRegistry::global().counter("cache.disk_hits").add(1);
          MetricsRegistry::global().counter("cache.bytes_loaded").add(payload->size());
          return payload;
        }
      }
      log_warn() << "artifact cache: ignoring corrupted file " << path;
      MetricsRegistry::global().counter("cache.corrupted_files").add(1);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  MetricsRegistry::global().counter("cache.misses").add(1);
  return std::nullopt;
}

void ArtifactCache::store(std::uint64_t key, std::string_view label,
                          std::string_view payload) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    memory_[key] = std::string(payload);
    ++stats_.stores;
  }
  if (dir_.empty()) return;

  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    log_warn() << "artifact cache: cannot create " << dir_ << ": " << ec.message();
    return;
  }
  const std::string path = file_path(key, label);
  // Per-process temp name: concurrent writers of the same artifact
  // (e.g. two bench binaries racing on a cold cache) publish atomically
  // via rename and the loser's bytes simply win — same content anyway.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  if (ChaosEngine::global().fail_write("cache.write")) {
    // ENOSPC-style short write: some bytes land in the temp file, the
    // write "fails", and nothing may be published.
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      out.write(payload.data(), static_cast<std::streamsize>(payload.size() / 2));
    }
    log_warn() << "artifact cache: chaos-injected short write, discarding " << tmp;
    MetricsRegistry::global().counter("cache.store_failures").add(1);
    std::filesystem::remove(tmp, ec);
    return;
  }
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      log_warn() << "artifact cache: cannot write " << tmp;
      return;
    }
    out << kMagic << ' ' << kVersion << ' ' << std::hex << key << std::dec << ' '
        << payload.size() << ' ' << std::hex << stable_hash64(payload) << std::dec
        << '\n';
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) {
      // A short write (disk full, I/O error) must never be published: a
      // rename here could replace a complete artifact with a truncated
      // one.  Drop the temp file and keep whatever is already on disk.
      out.close();
      log_warn() << "artifact cache: short write, discarding " << tmp;
      MetricsRegistry::global().counter("cache.store_failures").add(1);
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  if (ChaosEngine::global().drop_rename("cache.tmp")) {
    // Simulated kill between the temp write and the rename: the temp
    // file stays behind (the next construction sweeps it) and the
    // artifact is never published — readers simply miss and recompute.
    log_warn() << "artifact cache: chaos-injected crash before publishing " << path;
    return;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    log_warn() << "artifact cache: cannot publish " << path << ": " << ec.message();
    std::filesystem::remove(tmp, ec);
    return;
  }
  MetricsRegistry::global().counter("cache.bytes_stored").add(payload.size());
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ArtifactCache::clear_memory() {
  std::lock_guard<std::mutex> lock(mu_);
  memory_.clear();
}

}  // namespace socrates
