// Tests for cross-tenant knowledge sharing (server/knowledge_pool.hpp
// and the Server::create_tenant warm-start path): feature distance,
// publish/lookup/eviction, deterministic representative pruning,
// crash-safe persistence with generation fallback, the "server.pool"
// chaos site, and the slot-boundary exception-safety contract of
// tenant creation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "cobayn/cobayn.hpp"
#include "margot/asrtm.hpp"
#include "server/knowledge_pool.hpp"
#include "server/server.hpp"
#include "support/chaos.hpp"
#include "support/error.hpp"
#include "support/sealed_file.hpp"

namespace socrates::server {
namespace {

namespace fs = std::filesystem;
using margot::KnowledgeBase;
using margot::OperatingPoint;
using margot::Rank;

KnowledgeBase make_kb(std::size_t points = 4) {
  KnowledgeBase kb({"threads"}, {"exec_time_s", "power_w"});
  for (std::size_t i = 0; i < points; ++i) {
    OperatingPoint op;
    op.knobs = {static_cast<int>(i + 1)};
    op.metrics = {{1.0 + 0.1 * static_cast<double>(i), 0.01},
                  {50.0 + static_cast<double>(i), 0.5}};
    kb.add(std::move(op));
  }
  return kb;
}

void configure_min_time(margot::Asrtm& asrtm) {
  asrtm.set_rank(Rank::minimize_exec_time(0));
}

/// A feature vector whose model-relevant entries all equal `level`.
features::FeatureVector make_fv(double level) {
  features::FeatureVector fv;
  for (const std::size_t idx : cobayn::CobaynModel::model_feature_indices())
    fv.values[idx] = level;
  return fv;
}

PoolEntry make_entry(const std::string& donor, double level,
                     std::size_t points = 4) {
  PoolEntry e;
  e.donor = donor;
  e.features = make_fv(level);
  e.representatives = make_kb(points);
  e.feedback_updates = 100;
  return e;
}

class KnowledgePoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ChaosEngine::global().disarm();
    dir_ = fs::temp_directory_path() /
           ("socrates_pool." + std::to_string(::getpid()) + "." +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    ChaosEngine::global().disarm();
    fs::remove_all(dir_);
  }

  std::string pool_path() const { return (dir_ / "pool.kp").string(); }

  fs::path dir_;
};

// ---- feature distance --------------------------------------------------------------

TEST_F(KnowledgePoolTest, DistanceIsZeroForIdenticalAndGrowsWithSeparation) {
  const auto a = make_fv(4.0);
  EXPECT_DOUBLE_EQ(KnowledgePool::feature_distance(a, a), 0.0);
  const double near = KnowledgePool::feature_distance(a, make_fv(4.5));
  const double far = KnowledgePool::feature_distance(a, make_fv(40.0));
  EXPECT_GT(near, 0.0);
  EXPECT_GT(far, near);
  EXPECT_LT(far, 1.0);  // normalized: bounded even for wildly different kernels
}

TEST_F(KnowledgePoolTest, DistanceToNonFiniteFeaturesIsInfinite) {
  auto bad = make_fv(4.0);
  bad.values[cobayn::CobaynModel::model_feature_indices().front()] =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isinf(KnowledgePool::feature_distance(make_fv(4.0), bad)));
}

// ---- publish / lookup --------------------------------------------------------------

TEST_F(KnowledgePoolTest, LookupReturnsNearestWithinThresholdOnly) {
  KnowledgePool pool({.distance_threshold = 0.1});
  pool.publish(make_entry("near", 4.0));
  pool.publish(make_entry("far", 400.0));
  const auto hit = pool.lookup(make_fv(4.01));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entry.donor, "near");
  EXPECT_LT(hit->distance, 0.1);
  EXPECT_FALSE(pool.lookup(make_fv(40.0)).has_value());  // between, out of range
}

TEST_F(KnowledgePoolTest, RepublishReplacesSameDonorAndEvictionIsFifo) {
  KnowledgePool pool({.max_entries = 2});
  pool.publish(make_entry("a", 1.0));
  pool.publish(make_entry("b", 1000.0));
  pool.publish(make_entry("a", 2.0, 3));  // replace, not append
  EXPECT_EQ(pool.size(), 2u);
  ASSERT_TRUE(pool.lookup(make_fv(2.0)).has_value());
  EXPECT_EQ(pool.lookup(make_fv(2.0))->entry.representatives.size(), 3u);
  pool.publish(make_entry("c", 2000000.0));  // evicts the oldest ("a")
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_FALSE(pool.lookup(make_fv(2.0)).has_value());
  EXPECT_TRUE(pool.lookup(make_fv(1000.0)).has_value());
}

TEST_F(KnowledgePoolTest, LookupTieBreaksTowardEarliestPublish) {
  KnowledgePool pool({.distance_threshold = 1.0});
  // Two donors with identical features: both at distance 0 from the
  // query — the strict < in the scan keeps the earliest publish.
  pool.publish(make_entry("first", 5.0));
  pool.publish(make_entry("second", 5.0));
  const auto hit = pool.lookup(make_fv(5.0));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entry.donor, "first");
}

// ---- representative pruning --------------------------------------------------------

TEST_F(KnowledgePoolTest, PruneKeepsExtremesAndIsDeterministic) {
  KnowledgeBase kb = make_kb(10);  // exec_time means 1.0 .. 1.9
  const KnowledgeBase a = KnowledgePool::prune_representatives(kb, 4);
  const KnowledgeBase b = KnowledgePool::prune_representatives(kb, 4);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(static_cast<std::vector<int>>(a[i].knobs),
              static_cast<std::vector<int>>(b[i].knobs));
  }
  // Both extremes of the first metric survive.
  EXPECT_TRUE(a.find(std::vector<int>{1}).has_value());
  EXPECT_TRUE(a.find(std::vector<int>{10}).has_value());
  // A small KB passes through untouched.
  EXPECT_EQ(KnowledgePool::prune_representatives(kb, 16).size(), 10u);
}

// ---- persistence -------------------------------------------------------------------

TEST_F(KnowledgePoolTest, SaveAndReloadRoundTripsEntries) {
  KnowledgePool::Options opts{.path = pool_path()};
  KnowledgePool pool(opts);
  PoolEntry e = make_entry("donor", 4.0);
  e.posterior = {0.5, 0.25, 0.125, 0.125};
  e.posterior_weight = 48.0;
  pool.publish(std::move(e));
  ASSERT_TRUE(pool.save());

  KnowledgePool reloaded(opts);
  EXPECT_EQ(reloaded.size(), 1u);
  const auto hit = reloaded.lookup(make_fv(4.0));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entry.donor, "donor");
  EXPECT_EQ(hit->entry.feedback_updates, 100u);
  EXPECT_EQ(hit->entry.posterior, (std::vector<double>{0.5, 0.25, 0.125, 0.125}));
  EXPECT_DOUBLE_EQ(hit->entry.posterior_weight, 48.0);
  EXPECT_EQ(hit->entry.representatives.size(), 4u);
  EXPECT_DOUBLE_EQ(hit->entry.representatives[0].metrics[0].mean, 1.0);
}

TEST_F(KnowledgePoolTest, CorruptNewestGenerationFallsBackToOlder) {
  KnowledgePool::Options opts{.path = pool_path(), .generations = 2};
  {
    KnowledgePool pool(opts);
    pool.publish(make_entry("gen1", 4.0));
    ASSERT_TRUE(pool.save());
    pool.publish(make_entry("gen0", 1000.0));
    ASSERT_TRUE(pool.save());  // rotates the first save to pool.kp.1
  }
  ASSERT_TRUE(fs::exists(pool_path() + ".1"));
  {  // torch the newest generation mid-payload: a well-formed header
     // that claims more payload bytes than the file holds
    std::ofstream out(pool_path(), std::ios::binary | std::ios::trunc);
    out << "socrates-pool v2 0 999999 3039\ngarbage";
  }
  KnowledgePool recovered(opts);
  EXPECT_EQ(recovered.size(), 1u);
  EXPECT_TRUE(recovered.lookup(make_fv(4.0)).has_value());

  {  // torch both generations: the pool degrades to empty, no throw
    std::ofstream out(pool_path() + ".1", std::ios::binary | std::ios::trunc);
    out << "not a pool file";
  }
  KnowledgePool empty(opts);
  EXPECT_EQ(empty.size(), 0u);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST_F(KnowledgePoolTest, FailedSaveKeepsEveryGeneration) {
  KnowledgePool::Options opts{.path = pool_path(), .generations = 2};
  KnowledgePool pool(opts);
  pool.publish(make_entry("first", 4.0));
  ASSERT_TRUE(pool.save());
  pool.publish(make_entry("second", 1000.0));
  ASSERT_TRUE(pool.save());
  const std::string newest = file_bytes(pool_path());
  const std::string older = file_bytes(pool_path() + ".1");
  ASSERT_FALSE(older.empty());

  // The temp file cannot be opened: a non-empty directory holds its name.
  const fs::path blocker = sealed::tmp_path(pool_path());
  fs::create_directories(blocker / "occupied");
  pool.publish(make_entry("third", 2000000.0));
  EXPECT_FALSE(pool.save());
  EXPECT_EQ(file_bytes(pool_path()), newest);
  EXPECT_EQ(file_bytes(pool_path() + ".1"), older);
  fs::remove_all(blocker);
}

TEST_F(KnowledgePoolTest, StaleTempFilesAreSweptAtConstruction) {
  // A process killed mid-save left its temp file; another pool's temp
  // in the same directory is not this pool's to remove.
  const std::string stale = pool_path() + ".tmp.4242";
  const std::string other = (dir_ / "xpool.kp.tmp.4242").string();
  std::ofstream(stale, std::ios::binary) << "socrates-pool v2 0 999 1\ntorn";
  std::ofstream(other, std::ios::binary) << "someone else's";
  KnowledgePool pool({.path = pool_path()});
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(other));
  EXPECT_EQ(pool.size(), 0u);
}

// ---- chaos -------------------------------------------------------------------------

TEST_F(KnowledgePoolTest, ChaosPoolCorruptionDegradesHitsToMisses) {
  KnowledgePool pool({});
  pool.publish(make_entry("donor", 4.0));
  ChaosSpec spec;
  spec.pool_corrupt = 1.0;
  ChaosEngine::global().install(spec);
  EXPECT_FALSE(pool.lookup(make_fv(4.0)).has_value());  // voided, not crashed
  ChaosEngine::global().disarm();
  EXPECT_TRUE(pool.lookup(make_fv(4.0)).has_value());
}

// ---- arrival-order determinism -----------------------------------------------------

TEST_F(KnowledgePoolTest, SamePublishHistoryGivesIdenticalLookups) {
  const auto run = [](KnowledgePool& pool) {
    pool.publish(make_entry("a", 2.0));
    pool.publish(make_entry("b", 2.2));
    pool.publish(make_entry("c", 8.0));
    std::vector<std::string> donors;
    for (const double q : {2.05, 2.15, 7.9, 2.1}) {
      const auto hit = pool.lookup(make_fv(q));
      donors.push_back(hit ? hit->entry.donor : "<miss>");
    }
    return donors;
  };
  KnowledgePool p1({.distance_threshold = 0.25});
  KnowledgePool p2({.distance_threshold = 0.25});
  EXPECT_EQ(run(p1), run(p2));
}

// ---- server integration ------------------------------------------------------------

class PoolServerTest : public KnowledgePoolTest {
 protected:
  ServerOptions base_options() {
    ServerOptions o;
    o.shards = 2;
    o.ring_capacity = 64;
    o.batch_drain = 16;
    o.max_tenants = 8;
    o.shard_stall_deadline_s = 60.0;  // watchdog effectively off
    o.pool_publish_after = 4;
    return o;
  }
};

TEST_F(PoolServerTest, ConvergedDonorWarmStartsASimilarTenant) {
  Server server(base_options());
  ASSERT_NE(server.knowledge_pool(), nullptr);

  TenantProfile donor_profile;
  donor_profile.features = make_fv(4.0);
  const CreateResult donor = server.create_tenant("donor", make_kb(), configure_min_time,
                                                  donor_profile);
  ASSERT_TRUE(donor.created);
  EXPECT_FALSE(donor.warm_started);  // empty pool: cold start

  // Converge: enough applied feedback to cross pool_publish_after, with
  // observations 2x the design-time estimate so the correction learns.
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(server.submit_feedback(donor.handle, 0, 0, 2.0), Admission::kAccepted);
  }
  ASSERT_TRUE(server.drain(5.0));
  // The shard worker publishes on convergence; poll briefly for it.
  for (int i = 0; i < 100 && server.stats().pool_entries == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(server.stats().pool_entries, 1u);

  // A new tenant nearby: knows knobs {1,2} only — the donor's {3,4}
  // configurations are appended, its {1,2} metrics replaced by the
  // corrected (scaled) values.
  TenantProfile warm_profile;
  warm_profile.features = make_fv(4.05);
  const CreateResult warm =
      server.create_tenant("warm", make_kb(2), configure_min_time, warm_profile);
  ASSERT_TRUE(warm.created);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.donor, "donor");
  EXPECT_GT(warm.seeded_points, 0u);
  EXPECT_LT(warm.pool_distance, server.options().pool_distance_threshold);
  EXPECT_EQ(server.stats().warm_started, 1u);

  // The appended donor points widened the tenant's op range: op 3 would
  // be kInvalid against the 2-point cold KB.
  EXPECT_EQ(server.submit_feedback(warm.handle, 3, 0, 2.0), Admission::kAccepted);
  // And the seeded metrics carry the donor's learned correction (~2x).
  server.with_tenant(warm.handle, [](margot::Asrtm& asrtm) {
    EXPECT_GT(asrtm.knowledge()[0].metrics[0].mean, 1.5);
  });
}

TEST_F(PoolServerTest, SharingDisabledAndFeaturelessTenantsStayCold) {
  ServerOptions off = base_options();
  off.share_knowledge = false;
  Server server(off);
  EXPECT_EQ(server.knowledge_pool(), nullptr);
  TenantProfile profile;
  profile.features = make_fv(4.0);
  const CreateResult r = server.create_tenant("t", make_kb(), configure_min_time, profile);
  ASSERT_TRUE(r.created);
  EXPECT_FALSE(r.warm_started);
  EXPECT_EQ(server.stats().pool_entries, 0u);

  Server on(base_options());
  on.create_tenant("donor", make_kb(), configure_min_time,
                   TenantProfile{.features = make_fv(4.0)});
  on.checkpoint_all();  // donates even below the convergence threshold
  ASSERT_GE(on.stats().pool_entries, 1u);
  // No features in the profile: never probes the pool.
  const CreateResult cold = on.create_tenant("cold", make_kb(), configure_min_time);
  ASSERT_TRUE(cold.created);
  EXPECT_FALSE(cold.warm_started);
}

TEST_F(PoolServerTest, SchemaMismatchFallsBackToColdStart) {
  Server server(base_options());
  server.create_tenant("donor", make_kb(), configure_min_time,
                       TenantProfile{.features = make_fv(4.0)});
  server.checkpoint_all();
  ASSERT_GE(server.stats().pool_entries, 1u);

  KnowledgeBase other({"blocks"}, {"exec_time_s"});
  OperatingPoint op;
  op.knobs = {1};
  op.metrics = {{1.0, 0.0}};
  other.add(std::move(op));
  const CreateResult r = server.create_tenant(
      "mismatch", std::move(other), configure_min_time,
      TenantProfile{.features = make_fv(4.0)});
  ASSERT_TRUE(r.created);
  EXPECT_FALSE(r.warm_started);
  EXPECT_EQ(r.seeded_points, 0u);
}

TEST_F(PoolServerTest, ChaosCorruptPoolEntryColdStartsWithoutCrashing) {
  Server server(base_options());
  server.create_tenant("donor", make_kb(), configure_min_time,
                       TenantProfile{.features = make_fv(4.0)});
  server.checkpoint_all();
  ASSERT_GE(server.stats().pool_entries, 1u);
  ChaosSpec spec;
  spec.pool_corrupt = 1.0;
  ChaosEngine::global().install(spec);
  const CreateResult r = server.create_tenant("victim", make_kb(), configure_min_time,
                                              TenantProfile{.features = make_fv(4.0)});
  ChaosEngine::global().disarm();
  ASSERT_TRUE(r.created);
  EXPECT_FALSE(r.warm_started);
}

TEST_F(PoolServerTest, WarmPosteriorMergesDonorAndOwnWeights) {
  Server server(base_options());
  {
    PoolEntry e = make_entry("donor", 4.0);
    e.posterior = {1.0, 0.0};
    e.posterior_weight = 1.0;
    server.knowledge_pool()->publish(std::move(e));
  }
  TenantProfile profile;
  profile.features = make_fv(4.0);
  profile.posterior = {0.0, 1.0};
  profile.posterior_weight = 3.0;
  const CreateResult r =
      server.create_tenant("warm", make_kb(), configure_min_time, profile);
  ASSERT_TRUE(r.created);
  ASSERT_TRUE(r.warm_started);
  ASSERT_EQ(r.warm_posterior.size(), 2u);
  EXPECT_DOUBLE_EQ(r.warm_posterior[0], 0.25);  // donor weight 1 of 4
  EXPECT_DOUBLE_EQ(r.warm_posterior[1], 0.75);  // own weight 3 of 4

  // A donor posterior of a different size cannot merge: keep our own.
  {
    PoolEntry e = make_entry("donor", 4.0);
    e.posterior = {0.5, 0.25, 0.25};
    server.knowledge_pool()->publish(std::move(e));
  }
  const CreateResult kept =
      server.create_tenant("warm2", make_kb(), configure_min_time, profile);
  ASSERT_TRUE(kept.warm_started);
  EXPECT_EQ(kept.warm_posterior, profile.posterior);
}

TEST_F(PoolServerTest, PoolPersistsAcrossServerRestart) {
  ServerOptions opts = base_options();
  opts.checkpoint_dir = dir_.string();
  {
    Server server(opts);
    server.create_tenant("donor", make_kb(), configure_min_time,
                         TenantProfile{.features = make_fv(4.0)});
    server.checkpoint_all();
  }
  Server revived(opts);
  EXPECT_GE(revived.stats().pool_entries, 1u);
  const CreateResult r = revived.create_tenant(
      "warm", make_kb(2), configure_min_time, TenantProfile{.features = make_fv(4.0)});
  ASSERT_TRUE(r.created);
  EXPECT_TRUE(r.warm_started);
  EXPECT_EQ(r.donor, "donor");
}

// ---- slot-boundary exception safety ------------------------------------------------

TEST_F(PoolServerTest, FailedRegistrationReleasesItsSlot) {
  ServerOptions opts = base_options();
  opts.max_tenants = 2;
  Server server(opts);
  ASSERT_TRUE(server.create_tenant("ok", make_kb(), configure_min_time).created);
  // A configure functor that throws must not consume the last slot.
  const auto boom = [](margot::Asrtm&) { throw std::runtime_error("boom"); };
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(server.create_tenant("bad", make_kb(), boom).created);
    EXPECT_EQ(server.tenant_count(), 1u);
  }
  const CreateResult last = server.create_tenant("last", make_kb(), configure_min_time);
  ASSERT_TRUE(last.created);
  EXPECT_EQ(last.handle, 1u);
  EXPECT_EQ(server.tenant_count(), 2u);
  // Cap reached: further creations are rejected, count stable.
  EXPECT_FALSE(server.create_tenant("over", make_kb(), configure_min_time).created);
  EXPECT_EQ(server.tenant_count(), 2u);
}

TEST_F(PoolServerTest, ConcurrentRegistrationFillsExactlyMaxTenants) {
  ServerOptions opts = base_options();
  opts.max_tenants = 4;
  Server server(opts);
  constexpr int kThreads = 8;
  std::atomic<int> created{0};
  std::vector<Server::TenantHandle> handles(kThreads,
                                            std::numeric_limits<std::uint64_t>::max());
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const CreateResult r = server.create_tenant(
          "t" + std::to_string(i), make_kb(), configure_min_time);
      if (r.created) {
        handles[static_cast<std::size_t>(i)] = r.handle;
        created.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(created.load(), 4);
  EXPECT_EQ(server.tenant_count(), 4u);
  std::vector<Server::TenantHandle> won;
  for (const auto h : handles)
    if (h != std::numeric_limits<std::uint64_t>::max()) won.push_back(h);
  std::sort(won.begin(), won.end());
  EXPECT_EQ(won, (std::vector<Server::TenantHandle>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace socrates::server
