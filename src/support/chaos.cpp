#include "support/chaos.hpp"

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "observability/metrics.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"
#include "support/number.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace socrates {

namespace {

// parse_strict_double, not std::stod: stod honours the global C locale,
// so under a comma-decimal locale "0.5" silently parses as 0 and the
// injected fault rates change behind the caller's back.  The strict
// grammar also rejects stod laxities (hex floats, "inf"/"nan", leading
// '+') that were never meant to be part of the spec language.

double parse_probability(const std::string& key, const std::string& value) {
  const auto p = parse_strict_double(value);
  if (!p)
    throw Error("chaos spec: non-numeric value '" + value + "' for " + key);
  if (*p < 0.0 || *p > 1.0)
    throw Error("chaos spec: probability " + value + " for " + key +
                " outside [0, 1]");
  return *p;
}

double parse_millis(const std::string& key, const std::string& value) {
  const auto ms = parse_strict_double(value);
  if (!ms)
    throw Error("chaos spec: non-numeric value '" + value + "' for " + key);
  if (*ms < 0.0 || *ms > 60000.0)
    throw Error("chaos spec: duration '" + value + "' for " + key +
                " must be in [0, 60000] ms");
  return *ms;
}

double parse_count(const std::string& key, const std::string& value) {
  const auto n = parse_strict_double(value);
  if (!n)
    throw Error("chaos spec: non-numeric value '" + value + "' for " + key);
  if (*n < 1.0 || *n > 4096.0)
    throw Error("chaos spec: count '" + value + "' for " + key +
                " must be in [1, 4096]");
  return *n;
}

/// Parses a crash-at value "<site>[:<n>]" into the spec.
void parse_crash_at(ChaosSpec& spec, const std::string& value) {
  std::string site = value;
  std::uint64_t count = 1;
  if (const auto colon = value.find(':'); colon != std::string::npos) {
    site = trim(value.substr(0, colon));
    const std::string count_text = trim(value.substr(colon + 1));
    char* end = nullptr;
    count = std::strtoull(count_text.c_str(), &end, 10);
    if (count_text.empty() || end == count_text.c_str() || *end != '\0' ||
        count < 1 || count > 1u << 20)
      throw Error("chaos spec: crash-at occurrence '" + count_text +
                  "' must be a count in [1, 1048576]");
  }
  if (!ChaosSpec::is_crash_site(site))
    throw Error("chaos spec: unknown crash-at site '" + site + "'");
  spec.crash_site = site;
  spec.crash_after = count;
}

}  // namespace

bool ChaosSpec::is_crash_site(std::string_view site) {
  return site == "journal-append" || site == "journal-flush" ||
         site == "snapshot-header" || site == "snapshot-body" ||
         site == "snapshot-rename" || site == "journal-truncate";
}

ChaosSpec ChaosSpec::parse(std::string_view text) {
  ChaosSpec spec;
  std::string body(trim(text));
  if (body.empty()) return spec;

  // Optional ":<seed>" suffix — unless the text ends in
  // "crash-at=<site>:<n>", where the last colon belongs to the
  // crash-at occurrence count, not the seed.
  auto colon = body.rfind(':');
  if (colon != std::string::npos) {
    const auto comma = body.rfind(',');
    const std::string last_entry =
        trim(comma == std::string::npos ? body : body.substr(comma + 1));
    const std::string crash_prefix = "crash-at=";
    if (last_entry.rfind(crash_prefix, 0) == 0) {
      const std::string value = last_entry.substr(crash_prefix.size());
      // "crash-at=site:2" -> the colon is the count; "crash-at=site:2:7"
      // -> the first colon is the count, the last one the seed.
      if (value.find(':') == value.rfind(':')) colon = std::string::npos;
    }
  }
  if (colon != std::string::npos) {
    const std::string seed_text = trim(body.substr(colon + 1));
    char* end = nullptr;
    const unsigned long long seed = std::strtoull(seed_text.c_str(), &end, 10);
    if (seed_text.empty() || end == seed_text.c_str() || *end != '\0')
      throw Error("chaos spec: seed '" + seed_text + "' is not a number");
    spec.seed = seed;
    body = body.substr(0, colon);
  }

  for (const auto& entry : split(body, ',')) {
    const std::string item = trim(entry);
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos)
      throw Error("chaos spec: entry '" + item + "' is not key=value");
    const std::string key = trim(item.substr(0, eq));
    const std::string value = trim(item.substr(eq + 1));
    if (key == "stage-fail")
      spec.stage_fail = parse_probability(key, value);
    else if (key == "stage-hang")
      spec.stage_hang = parse_probability(key, value);
    else if (key == "stage-slow")
      spec.stage_slow = parse_probability(key, value);
    else if (key == "cache-read")
      spec.cache_read = parse_probability(key, value);
    else if (key == "cache-write")
      spec.cache_write = parse_probability(key, value);
    else if (key == "cache-tmp")
      spec.cache_tmp = parse_probability(key, value);
    else if (key == "shard-stall")
      spec.shard_stall = parse_probability(key, value);
    else if (key == "ingest-flood")
      spec.ingest_flood = parse_probability(key, value);
    else if (key == "journal-fail")
      spec.journal_fail = parse_probability(key, value);
    else if (key == "dse-explore")
      spec.dse_explore = parse_probability(key, value);
    else if (key == "disk-full")
      spec.disk_full = parse_probability(key, value);
    else if (key == "pool-corrupt")
      spec.pool_corrupt = parse_probability(key, value);
    else if (key == "crash-at")
      parse_crash_at(spec, value);
    else if (key == "hang-ms")
      spec.hang_ms = parse_millis(key, value);
    else if (key == "slow-ms")
      spec.slow_ms = parse_millis(key, value);
    else if (key == "stall-ms")
      spec.stall_ms = parse_millis(key, value);
    else if (key == "flood-burst")
      spec.flood_burst = parse_count(key, value);
    else
      throw Error("chaos spec: unknown key '" + key + "'");
  }
  return spec;
}

void ChaosEngine::install(const ChaosSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  spec_ = spec;
  site_counters_.clear();
  injected_.store(0, std::memory_order_relaxed);
  enabled_.store(spec.any(), std::memory_order_relaxed);
}

void ChaosEngine::disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_.store(false, std::memory_order_relaxed);
  site_counters_.clear();
}

ChaosEngine& ChaosEngine::global() {
  static ChaosEngine* kEngine = [] {
    auto* engine = new ChaosEngine();
    if (const auto text = env::raw("SOCRATES_CHAOS"); text && !text->empty()) {
      try {
        engine->install(ChaosSpec::parse(*text));
        log_warn() << "SOCRATES_CHAOS armed: " << *text;
      } catch (const Error& e) {
        log_warn() << "SOCRATES_CHAOS ignored: " << e.what();
      }
    }
    return engine;
  }();
  return *kEngine;
}

double ChaosEngine::draw(std::string_view site) {
  std::uint64_t n = 0;
  std::uint64_t seed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    n = site_counters_[std::string(site)]++;
    seed = spec_.seed;
  }
  Rng rng(derive_stream(hash_combine(seed, stable_hash64(site)), n));
  return rng.uniform();
}

bool ChaosEngine::decide(std::string_view site, double probability,
                         const char* counter_name) {
  if (probability <= 0.0) return false;
  const bool fire = draw(site) < probability;
  if (fire) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::global().counter(counter_name).add(1);
  }
  return fire;
}

void ChaosEngine::on_stage(std::string_view site) {
  if (!enabled()) return;
  const ChaosSpec snap = spec();
  if (decide(site, snap.stage_hang, "chaos.stage_hangs")) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<std::int64_t>(snap.hang_ms * 1000.0)));
  } else if (decide(site, snap.stage_slow, "chaos.stage_slowdowns")) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<std::int64_t>(snap.slow_ms * 1000.0)));
  }
  if (decide(site, snap.stage_fail, "chaos.stage_faults")) {
    std::ostringstream os;
    os << "injected chaos fault at " << site;
    throw ChaosFault(os.str());
  }
}

bool ChaosEngine::corrupt_read(std::string_view site) {
  if (!enabled()) return false;
  return decide(site, spec().cache_read, "chaos.cache_read_faults");
}

bool ChaosEngine::fail_write(std::string_view site) {
  if (!enabled()) return false;
  return decide(site, spec().cache_write, "chaos.cache_write_faults");
}

bool ChaosEngine::drop_rename(std::string_view site) {
  if (!enabled()) return false;
  return decide(site, spec().cache_tmp, "chaos.cache_stale_tmps");
}

bool ChaosEngine::stall_shard(std::string_view site) {
  if (!enabled()) return false;
  return decide(site, spec().shard_stall, "chaos.shard_stalls");
}

bool ChaosEngine::flood_ingest(std::string_view site) {
  if (!enabled()) return false;
  return decide(site, spec().ingest_flood, "chaos.ingest_floods");
}

bool ChaosEngine::fail_journal(std::string_view site) {
  if (!enabled()) return false;
  return decide(site, spec().journal_fail, "chaos.journal_faults");
}

bool ChaosEngine::fail_disk(std::string_view site) {
  if (!enabled()) return false;
  return decide(site, spec().disk_full, "chaos.disk_full_faults");
}

bool ChaosEngine::corrupt_pool(std::string_view site) {
  if (!enabled()) return false;
  return decide(site, spec().pool_corrupt, "chaos.pool_corruptions");
}

bool ChaosEngine::crash_now(std::string_view site) {
  if (!enabled()) return false;
  std::uint64_t arrival = 0;
  std::uint64_t crash_after = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (spec_.crash_site.empty() || site != spec_.crash_site) return false;
    crash_after = spec_.crash_after;
    arrival = ++site_counters_[std::string("crash.").append(site)];
  }
  if (arrival != crash_after) return false;
  injected_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::global().counter("chaos.crash_points").add(1);
  return true;
}

bool ChaosEngine::fire_indexed(std::string_view site, std::uint64_t index) const {
  if (!enabled()) return false;
  return fire_indexed(site, index, spec().stage_fail, "chaos.point_faults");
}

bool ChaosEngine::fire_indexed(std::string_view site, std::uint64_t index,
                               double probability, const char* counter_name) const {
  if (!enabled() || probability <= 0.0) return false;
  std::uint64_t seed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seed = spec_.seed;
  }
  Rng rng(derive_stream(hash_combine(seed, stable_hash64(site)), index));
  const bool fire = rng.uniform() < probability;
  if (fire) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::global().counter(counter_name).add(1);
  }
  return fire;
}

}  // namespace socrates
