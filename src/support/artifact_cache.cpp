#include "support/artifact_cache.hpp"

#include <cerrno>
#include <filesystem>
#include <sstream>

#include "observability/metrics.hpp"
#include "support/chaos.hpp"
#include "support/env.hpp"
#include "support/log.hpp"
#include "support/sealed_file.hpp"

namespace socrates {

namespace {

// v2: the sealed-file envelope, tagged with the key in decimal.  A v1 file
// is a corrupted-file miss: the stage recomputes and overwrites it.
constexpr const char* kMagic = "socrates-artifact";
constexpr const char* kVersion = "v2";

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
  // Sweep temp files a killed process left behind.  Only artifact temps:
  // the directory may be shared (e.g. /tmp).  A live writer's temp can
  // in principle be swept too; it then fails its rename and recomputes.
  const std::size_t swept = sealed::sweep_stale_tmps(dir_ + "/*.artifact");
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
    sealed::File file = sealed::read(path, kMagic, kVersion);
    if (file.status != sealed::File::Status::kMissing) {
      if (ChaosEngine::global().corrupt_read("cache.read")) {
        // Injected read error: behave exactly like a corrupted file — a
        // miss, never an exception (the stage recomputes).
        log_warn() << "artifact cache: chaos-injected read error on " << path;
      } else if (file.status == sealed::File::Status::kOk &&
                 file.tag == std::to_string(key)) {
        std::lock_guard<std::mutex> lock(mu_);
        memory_.emplace(key, file.payload);
        ++stats_.disk_hits;
        MetricsRegistry::global().counter("cache.disk_hits").add(1);
        MetricsRegistry::global().counter("cache.bytes_loaded").add(file.payload.size());
        return std::move(file.payload);
      } else {
        log_warn() << "artifact cache: ignoring corrupted file " << path << " ("
                   << (file.reason.empty() ? "key mismatch" : file.reason) << ")";
      }
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
  // Concurrent writers of one artifact (two benches racing on a cold
  // cache) publish atomically; the loser's bytes win — same content.  An
  // injected cache-write fault fails like ENOSPC before any byte lands.
  const sealed::WriteStatus written =
      ChaosEngine::global().fail_write("cache.write")
          ? sealed::WriteStatus{sealed::WriteStatus::Step::kWrite, ENOSPC}
          : sealed::write_tmp(
                path, sealed::seal(kMagic, kVersion, std::to_string(key), payload), false);
  if (!written) {
    log_warn() << "artifact cache: cannot write " << path << " (" << written.message()
               << "), keeping what is on disk";
    MetricsRegistry::global().counter("cache.store_failures").add(1);
    return;
  }
  if (ChaosEngine::global().drop_rename("cache.tmp")) {
    // Simulated kill between the temp write and the rename: the temp
    // file stays behind (the next construction sweeps it) and the
    // artifact is never published — readers simply miss and recompute.
    log_warn() << "artifact cache: chaos-injected crash before publishing " << path;
    return;
  }
  if (const auto published = sealed::publish_tmp(path, 1, false); !published) {
    log_warn() << "artifact cache: cannot publish " << path << ": "
               << published.message();
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
