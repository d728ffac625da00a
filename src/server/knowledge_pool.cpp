#include "server/knowledge_pool.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "cobayn/cobayn.hpp"
#include "margot/kb_io.hpp"
#include "observability/metrics.hpp"
#include "support/chaos.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/sealed_file.hpp"
#include "support/serialize.hpp"

namespace socrates::server {

namespace {

// v2: the sealed-file envelope, tag "0".  An older build's v1 file fails
// the version check, so the pool starts empty (new tenants cold-start).
constexpr const char* kMagic = "socrates-pool";
constexpr const char* kVersion = "v2";

/// A posterior can only be the 128-combo COBAYN export; anything bigger
/// in a pool file is corruption, not data.
constexpr std::size_t kMaxPosterior = 4096;

void write_entry(std::ostream& os, const PoolEntry& e) {
  os << "entry " << e.donor.size() << '\n' << e.donor << '\n';
  os << "features";
  for (const double v : e.features.values) os << ' ' << format_exact(v);
  os << '\n';
  os << "posterior " << e.posterior.size();
  for (const double p : e.posterior) os << ' ' << format_exact(p);
  os << '\n';
  os << "weight " << format_exact(e.posterior_weight) << ' ' << e.feedback_updates
     << '\n';
  const std::string kb = margot::knowledge_to_string(e.representatives);
  os << "kb " << kb.size() << '\n' << kb;
}

/// Reads one `label <len>\n<len raw bytes>` block.
std::string read_block(std::istream& in, const char* label) {
  std::string tag;
  std::size_t len = 0;
  in >> tag >> len;
  SOCRATES_REQUIRE_MSG(in && tag == label, "pool: expected '" << label << "' block");
  in.get();  // the newline after the length
  std::string body(len, '\0');
  in.read(body.data(), static_cast<std::streamsize>(len));
  SOCRATES_REQUIRE_MSG(static_cast<std::size_t>(in.gcount()) == len,
                       "pool: truncated '" << label << "' block");
  return body;
}

PoolEntry read_entry(std::istream& in) {
  PoolEntry e;
  e.donor = read_block(in, "entry");
  std::string tag;
  in >> tag;
  SOCRATES_REQUIRE_MSG(in && tag == "features", "pool: expected 'features'");
  for (double& v : e.features.values) v = parse_exact(in);
  std::size_t n = 0;
  in >> tag >> n;
  SOCRATES_REQUIRE_MSG(in && tag == "posterior" && n <= kMaxPosterior,
                       "pool: bad posterior block");
  e.posterior.resize(n);
  for (double& p : e.posterior) p = parse_exact(in);
  in >> tag;
  SOCRATES_REQUIRE_MSG(in && tag == "weight", "pool: expected 'weight'");
  e.posterior_weight = parse_exact(in);
  in >> e.feedback_updates;
  SOCRATES_REQUIRE_MSG(static_cast<bool>(in), "pool: bad update count");
  in.get();  // the newline before the kb block
  e.representatives = margot::knowledge_from_string(read_block(in, "kb"));
  return e;
}

Gauge& entries_gauge() {
  static Gauge& g = MetricsRegistry::global().gauge("server.pool_entries");
  return g;
}

Counter& corrupt_counter() {
  static Counter& c =
      MetricsRegistry::global().counter("server.pool_corrupt_entries");
  return c;
}

}  // namespace

KnowledgePool::KnowledgePool(Options options) : options_(std::move(options)) {
  options_.generations = std::max<std::size_t>(1, options_.generations);
  options_.max_entries = std::max<std::size_t>(1, options_.max_entries);
  options_.max_representatives = std::max<std::size_t>(1, options_.max_representatives);
  options_.distance_threshold = std::max(0.0, options_.distance_threshold);
  if (!options_.path.empty()) {
    sealed::sweep_stale_tmps(options_.path);  // temps of a process killed mid-save
    load_from_disk();
  }
  entries_gauge().set(static_cast<double>(entries_.size()));
}

void KnowledgePool::load_from_disk() {
  // Newest generation first; a corrupt file (bad envelope, short
  // payload, hash mismatch, unparsable entry) falls through to the next
  // rung instead of failing construction — pool loss degrades new
  // tenants to cold starts, which is always safe.
  for (std::size_t g = 0; g < options_.generations; ++g) {
    const std::string path = sealed::generation_path(options_.path, g);
    const sealed::File file = sealed::read(path, kMagic, kVersion);
    if (file.status == sealed::File::Status::kMissing) continue;  // first boot
    try {
      SOCRATES_REQUIRE_MSG(
          file.status == sealed::File::Status::kOk && file.tag == "0",
          "pool: " << (file.reason.empty() ? "tag " + file.tag : file.reason));
      std::istringstream body(file.payload);
      std::string tag;
      std::size_t count = 0;
      body >> tag >> count;
      SOCRATES_REQUIRE_MSG(body && tag == "entries" && count <= options_.max_entries,
                           "pool: bad entry count");
      std::vector<PoolEntry> loaded;
      loaded.reserve(count);
      for (std::size_t i = 0; i < count; ++i) loaded.push_back(read_entry(body));
      entries_ = std::move(loaded);
      if (g > 0)
        log_warn() << "knowledge pool: recovered from generation " << g << " (" << path
                   << ")";
      return;
    } catch (const std::exception& e) {
      corrupt_counter().add(1);
      log_warn() << "knowledge pool: generation " << g << " unusable: " << e.what();
    }
  }
}

bool KnowledgePool::save() const {
  if (options_.path.empty()) return true;
  std::ostringstream os;
  {
    std::lock_guard<std::mutex> lock(mu_);
    os << "entries " << entries_.size() << '\n';
    for (const auto& e : entries_) write_entry(os, e);
  }
  // The temp file is written before the generations rotate, so a failed
  // save leaves every generation as it was.
  const auto published =
      sealed::publish(options_.path, sealed::seal(kMagic, kVersion, "0", os.str()),
                      options_.generations, false);
  if (!published)
    log_warn() << "knowledge pool: cannot save " << options_.path << ": "
               << published.message();
  return static_cast<bool>(published);
}

void KnowledgePool::publish(PoolEntry entry) {
  static Counter& publishes =
      MetricsRegistry::global().counter("server.pool_publishes");
  entry.representatives =
      prune_representatives(entry.representatives, options_.max_representatives);
  std::lock_guard<std::mutex> lock(mu_);
  auto existing = std::find_if(entries_.begin(), entries_.end(),
                               [&](const PoolEntry& e) { return e.donor == entry.donor; });
  if (existing != entries_.end())
    *existing = std::move(entry);
  else
    entries_.push_back(std::move(entry));
  while (entries_.size() > options_.max_entries) entries_.erase(entries_.begin());
  publishes.add(1);
  entries_gauge().set(static_cast<double>(entries_.size()));
}

std::optional<PoolMatch> KnowledgePool::lookup(const features::FeatureVector& fv) const {
  static Counter& hits = MetricsRegistry::global().counter("server.pool_hits");
  static Counter& misses = MetricsRegistry::global().counter("server.pool_misses");
  std::lock_guard<std::mutex> lock(mu_);
  const PoolEntry* best = nullptr;
  double best_distance = std::numeric_limits<double>::infinity();
  for (const auto& e : entries_) {
    const double d = feature_distance(fv, e.features);
    if (d < best_distance) {  // strict: ties go to the earliest publish
      best_distance = d;
      best = &e;
    }
  }
  if (best == nullptr || best_distance > options_.distance_threshold) {
    misses.add(1);
    return std::nullopt;
  }
  ChaosEngine& chaos = ChaosEngine::global();
  if (chaos.enabled() && chaos.corrupt_pool("server.pool")) {
    // An injected corrupt entry: the match is voided and the caller
    // cold-starts — the contract a real damaged entry must also meet.
    corrupt_counter().add(1);
    misses.add(1);
    return std::nullopt;
  }
  hits.add(1);
  return PoolMatch{*best, best_distance};
}

std::size_t KnowledgePool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

double KnowledgePool::feature_distance(const features::FeatureVector& a,
                                       const features::FeatureVector& b) {
  const auto& indices = cobayn::CobaynModel::model_feature_indices();
  double sum_sq = 0.0;
  for (const std::size_t idx : indices) {
    const double va = a[idx];
    const double vb = b[idx];
    if (!std::isfinite(va) || !std::isfinite(vb))
      return std::numeric_limits<double>::infinity();
    const double rel = std::abs(va - vb) / (1.0 + std::abs(va) + std::abs(vb));
    sum_sq += rel * rel;
  }
  return std::sqrt(sum_sq / static_cast<double>(indices.size()));
}

margot::KnowledgeBase KnowledgePool::prune_representatives(
    const margot::KnowledgeBase& kb, std::size_t cap) {
  if (cap == 0 || kb.size() <= cap) return kb;
  // Order by the first metric's mean — in the server's schema that is
  // the primary EFP (e.g. exec time) — and keep both extremes plus an
  // evenly spaced spread between them.  Deterministic: stable sort,
  // index tie-break, integer position arithmetic.
  std::vector<std::size_t> order(kb.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (!kb.metric_names().empty()) {
    const double* means = kb.metric_means(0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return means[a] < means[b]; });
  }
  margot::KnowledgeBase pruned(kb.knob_names(), kb.metric_names());
  if (cap == 1) {
    pruned.add(kb[order.front()]);
    return pruned;
  }
  for (std::size_t k = 0; k < cap; ++k) {
    const std::size_t pos = k * (kb.size() - 1) / (cap - 1);
    pruned.add(kb[order[pos]]);
  }
  return pruned;
}

}  // namespace socrates::server
