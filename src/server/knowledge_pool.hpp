// Cross-tenant COBAYN knowledge pool.
//
// SOCRATES's central claim is that what was learned tuning one kernel
// transfers to *similar* kernels (COBAYN conditions its Bayesian
// network on static features; Luo et al., arXiv 1407.4075, show
// representative operating-point sets transfer across applications
// whose feature vectors are close).  The multi-tenant server exploits
// that: when a tenant has converged — enough feedback applied that its
// corrected knowledge is trustworthy — the server publishes the
// tenant's *corrected* representative set plus its COBAYN posterior
// into this pool, keyed by the kernel's feature vector.  When a new
// tenant registers with features within a normalized distance threshold
// of a pooled entry, its knowledge base is seeded from the donor's
// representatives and its DSE seed stage can be warm-started from the
// pooled posterior (TwoStageExplorer::Params::warm_flat_seeds), so a
// short-running workload skips most of its cold feedback phase
// (docs/SERVER.md, "Cross-tenant knowledge sharing").
//
// Concurrency: one mutex over a small entry vector — publishes happen
// at convergence (rare) and lookups at tenant registration (rare); the
// feedback/decision hot paths never touch the pool.
//
// Crash safety: save() publishes one sealed file (support/sealed_file.hpp)
// through the generation chain (`pool`, `pool.1`, ...) the checkpoint
// layer uses, and construction sweeps a killed save's temp file.
// Loading walks the generations newest-first and falls back past
// corrupt ones, counting `server.pool_corrupt_entries` — a damaged pool
// degrades new tenants to cold starts, never crashes the server.  The
// chaos site "server.pool" (`pool-corrupt` key) simulates exactly that
// on lookup.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "features/features.hpp"
#include "margot/operating_point.hpp"

namespace socrates::server {

/// One donor kernel's transferable knowledge.
struct PoolEntry {
  std::string donor;                     ///< tenant name (replace-on-republish key)
  features::FeatureVector features;      ///< the donor kernel's static features
  margot::KnowledgeBase representatives; ///< pruned, feedback-corrected points
  std::vector<double> posterior;         ///< exported COBAYN posterior (may be empty)
  double posterior_weight = 0.0;         ///< merge weight (e.g. training rows)
  std::uint64_t feedback_updates = 0;    ///< evidence behind the corrections

  // A KnowledgeBase has no empty schema, so a default entry carries a
  // one-column placeholder until publish/load assigns the real one.
  PoolEntry() : representatives({"_"}, {"_"}) {}
};

/// A lookup hit: a copy of the matched entry plus its distance.
struct PoolMatch {
  PoolEntry entry;
  double distance = 0.0;
};

class KnowledgePool {
 public:
  struct Options {
    /// Normalized feature distance below which an entry is "similar
    /// enough" to seed from (see feature_distance).
    double distance_threshold = 0.25;
    std::size_t max_entries = 256;         ///< FIFO eviction beyond this
    std::size_t max_representatives = 16;  ///< per-entry pruning cap
    std::string path;                      ///< "" = memory-only pool
    std::size_t generations = 2;           ///< snapshot files kept on disk
  };

  /// Loads the newest parseable generation when `options.path` names a
  /// file (missing files are a normal first boot, not an error), after
  /// sweeping stale `path`.tmp.<pid> files.
  explicit KnowledgePool(Options options);

  /// Inserts (or, same donor, replaces) an entry.  The representative
  /// set is pruned to max_representatives; the oldest entry is evicted
  /// beyond max_entries.  Updates the `server.pool_entries` gauge and
  /// counts `server.pool_publishes`.
  void publish(PoolEntry entry);

  /// Nearest entry within the distance threshold, or nullopt.  Ties
  /// break toward the earliest-published entry, so the result is a
  /// deterministic function of the publish history.  Counts
  /// `server.pool_hits` / `server.pool_misses`; the "server.pool"
  /// chaos site can void a hit (counted as a corrupt entry).
  std::optional<PoolMatch> lookup(const features::FeatureVector& fv) const;

  std::size_t size() const;
  const Options& options() const { return options_; }

  /// Persists the pool (no-op, true, when memory-only): temp file first,
  /// then rotation and rename.  False on I/O failure (the in-memory pool
  /// stays intact; a failed temp write leaves every generation as it was).
  bool save() const;

  /// Normalized distance between two feature vectors over the
  /// model-relevant features (CobaynModel::model_feature_indices):
  /// RMS of |a-b| / (1 + |a| + |b|) per feature — scale-free, in
  /// [0, ~1), and 0 for identical kernels.
  static double feature_distance(const features::FeatureVector& a,
                                 const features::FeatureVector& b);

  /// At most `cap` points of `kb`, keeping both extremes of the first
  /// metric and an evenly spaced spread between them (deterministic).
  static margot::KnowledgeBase prune_representatives(const margot::KnowledgeBase& kb,
                                                     std::size_t cap);

 private:
  void load_from_disk();

  Options options_;
  mutable std::mutex mu_;
  std::vector<PoolEntry> entries_;  ///< publish order (oldest first)
};

}  // namespace socrates::server
