// Content-keyed artifact cache: in-memory tier plus an optional
// on-disk tier shared across processes.
//
// Pipeline stages store their products (a trained COBAYN model, a
// profiled design space) under a 64-bit content key computed from every
// input that can change the product — source text, options, seeds,
// platform constants and a stage version (see docs/PIPELINE.md).  A
// second build with the same inputs loads the artifact instead of
// recomputing it; a bench binary started later finds the artifacts of
// an earlier one through the disk tier.
//
// The cache is defensive by construction: a disk file is a sealed file
// (support/sealed_file.hpp) tagged with its key, and a corrupted,
// truncated or hand-edited one fails verification and is treated as a
// miss (the stage recomputes), never as an error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace socrates {

class ArtifactCache {
 public:
  /// `disk_dir` empty -> memory-only.  The directory is created on the
  /// first store.  When the directory already exists, construction
  /// sweeps stale `*.artifact.tmp.<pid>` files a killed writer left
  /// behind (a crash between the temp write and the rename) — they can
  /// never be published, so they are deleted and counted in
  /// swept_tmp_files().  Other files in the directory are left alone.
  explicit ArtifactCache(std::string disk_dir = "");

  /// The payload stored under `key`, or nullopt.  `label` is the
  /// human-readable artifact family ("cobayn-model", "dse-profile");
  /// it namespaces the disk file name but not the key.
  std::optional<std::string> load(std::uint64_t key, std::string_view label);

  /// Stores `payload` under `key` in memory and, when configured, on
  /// disk (written to a temp file and renamed, so concurrent readers
  /// never see a half-written artifact).
  void store(std::uint64_t key, std::string_view label, std::string_view payload);

  struct Stats {
    std::size_t memory_hits = 0;
    std::size_t disk_hits = 0;
    std::size_t misses = 0;
    std::size_t stores = 0;
    std::size_t swept_tmp_files = 0;  ///< stale temp files removed at construction
  };
  Stats stats() const;

  /// Drops the in-memory tier (disk files stay).  Tests use this to
  /// exercise the disk path.
  void clear_memory();

  /// Process-wide cache: disk tier rooted at $SOCRATES_CACHE_DIR when
  /// the variable is set, memory-only otherwise.
  static ArtifactCache& global();

 private:
  std::string file_path(std::uint64_t key, std::string_view label) const;

  mutable std::mutex mu_;
  std::map<std::uint64_t, std::string> memory_;
  Stats stats_;
  std::string dir_;
};

}  // namespace socrates
