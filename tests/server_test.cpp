// Tests for the overload-safe multi-tenant AS-RTM server
// (server/server.hpp): token-bucket and circuit-breaker ingress
// control, SOCRATES_SERVER_* knob parsing, feedback routing through
// the sharded rings, watchdog-driven shard restarts with checkpoint
// recovery, crash-equivalent destruction, the published decisions
// that decide_batch/decide_shard serve (checked against the
// synchronous reference in server_reference.hpp), and the programmatic
// chaos sites (ServerChaos*, also run by the chaos-smoke CTest preset).
#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "margot/asrtm.hpp"
#include "observability/metrics.hpp"
#include "server/circuit_breaker.hpp"
#include "server/server.hpp"
#include "server/token_bucket.hpp"
#include "server_reference.hpp"
#include "support/chaos.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace socrates::server {
namespace {

namespace fs = std::filesystem;
using margot::KnowledgeBase;
using margot::OperatingPoint;
using margot::Rank;
using margot::RankDirection;

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

// ---- token bucket ------------------------------------------------------------------

TEST(TokenBucket, DefaultIsUnlimited) {
  TokenBucket bucket;
  EXPECT_TRUE(bucket.unlimited());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(bucket.admit(0.0));
}

TEST(TokenBucket, BurstThenRefusal) {
  TokenBucket bucket(10.0, 4.0);  // 10/s, burst 4, starts full
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(bucket.admit(0.0));
  EXPECT_FALSE(bucket.admit(0.0));  // burst exhausted, no time passed
}

TEST(TokenBucket, RefillsWithTime) {
  TokenBucket bucket(10.0, 4.0);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(bucket.admit(0.0));
  EXPECT_FALSE(bucket.admit(0.05));  // 0.5 tokens refilled: not enough
  EXPECT_TRUE(bucket.admit(0.2));    // 2 tokens by now
  EXPECT_TRUE(bucket.admit(100.0));  // refill caps at burst, still admits
}

TEST(TokenBucket, RejectsNonsenseParameters) {
  EXPECT_THROW(TokenBucket(-1.0, 4.0), ContractViolation);
  EXPECT_THROW(TokenBucket(10.0, 0.5), ContractViolation);
}

// ---- circuit breaker ---------------------------------------------------------------

CircuitBreaker::Options small_breaker() {
  CircuitBreaker::Options o;
  o.error_threshold = 4;
  o.window_s = 1.0;
  o.base_cooldown_s = 0.5;
  o.max_cooldown_s = 8.0;
  o.probe_quota = 2;
  return o;
}

TEST(CircuitBreaker, TripsAfterThresholdErrorsInWindow) {
  CircuitBreaker breaker(small_breaker());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  for (int i = 0; i < 3; ++i) breaker.record_error(0.1);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.record_error(0.2);  // 4th error inside the window
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_FALSE(breaker.allow(0.3));  // cooling down
}

TEST(CircuitBreaker, SlidingWindowForgetsOldErrors) {
  CircuitBreaker breaker(small_breaker());
  for (int i = 0; i < 3; ++i) breaker.record_error(0.1);
  // The window expires; the next error starts a fresh count.
  breaker.record_error(2.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, HalfOpenProbesCloseTheBreaker) {
  CircuitBreaker breaker(small_breaker());
  for (int i = 0; i < 4; ++i) breaker.record_error(0.0);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow(0.1));
  EXPECT_TRUE(breaker.allow(0.6));  // cooldown (0.5s) elapsed -> half-open
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.record_ok(0.7);
  breaker.record_ok(0.8);  // probe quota 2 reached
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, FailedProbeReopensWithDoubledCooldown) {
  CircuitBreaker breaker(small_breaker());
  for (int i = 0; i < 4; ++i) breaker.record_error(0.0);
  ASSERT_TRUE(breaker.allow(0.6));  // half-open
  breaker.record_error(0.7);        // probe failed
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_DOUBLE_EQ(breaker.cooldown_s(), 1.0);  // 0.5 * 2^1
  EXPECT_FALSE(breaker.allow(1.2));   // the first cooldown would have elapsed
  EXPECT_TRUE(breaker.allow(1.8));    // the doubled one has
}

TEST(CircuitBreaker, ClosingResetsTheBackoff) {
  CircuitBreaker breaker(small_breaker());
  for (int i = 0; i < 4; ++i) breaker.record_error(0.0);
  ASSERT_TRUE(breaker.allow(0.6));
  breaker.record_ok(0.7);
  breaker.record_ok(0.8);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_DOUBLE_EQ(breaker.cooldown_s(), 0.5);  // back to the base
}

TEST(CircuitBreaker, CooldownIsCapped) {
  CircuitBreaker breaker(small_breaker());
  double now = 0.0;
  for (int trip = 0; trip < 10; ++trip) {
    while (breaker.state() != CircuitBreaker::State::kOpen) breaker.record_error(now);
    now += breaker.cooldown_s() + 0.1;
    ASSERT_TRUE(breaker.allow(now));  // half-open
    breaker.record_error(now);        // fail the probe -> re-trip
  }
  EXPECT_DOUBLE_EQ(breaker.cooldown_s(), 8.0);  // max_cooldown_s
}

// ---- SOCRATES_SERVER_* knobs -------------------------------------------------------

class ServerEnvTest : public ::testing::Test {
 protected:
  void SetUp() override { clear(); }
  void TearDown() override { clear(); }
  static void clear() {
    for (const char* name :
         {"SOCRATES_SERVER_SHARDS", "SOCRATES_SERVER_RING", "SOCRATES_SERVER_BATCH",
          "SOCRATES_SERVER_MAX_TENANTS", "SOCRATES_SERVER_GROUP_COMMIT",
          "SOCRATES_SERVER_JOURNAL_CAP", "SOCRATES_SERVER_POLICY",
          "SOCRATES_CHECKPOINT_GENERATIONS", "SOCRATES_CHECKPOINT_FSYNC",
          "SOCRATES_CHECKPOINT_PROBE_MS"}) {
      ::unsetenv(name);
    }
    env::reset_warnings();
  }
};

TEST_F(ServerEnvTest, DefaultsWhenUnset) {
  const ServerOptions o = ServerOptions::from_env();
  const ServerOptions d;
  EXPECT_EQ(o.shards, d.shards);
  EXPECT_EQ(o.ring_capacity, d.ring_capacity);
  EXPECT_EQ(o.batch_drain, d.batch_drain);
  EXPECT_EQ(o.max_tenants, d.max_tenants);
  EXPECT_EQ(o.checkpoint.group_commit, d.checkpoint.group_commit);
  EXPECT_EQ(o.policy, BackpressurePolicy::kBlock);
}

TEST_F(ServerEnvTest, ValidKnobsPassThrough) {
  ::setenv("SOCRATES_SERVER_SHARDS", "3", 1);
  ::setenv("SOCRATES_SERVER_RING", "512", 1);
  ::setenv("SOCRATES_SERVER_BATCH", "32", 1);
  ::setenv("SOCRATES_SERVER_GROUP_COMMIT", "16", 1);
  ::setenv("SOCRATES_SERVER_POLICY", "drop-oldest", 1);
  const ServerOptions o = ServerOptions::from_env();
  EXPECT_EQ(o.shards, 3u);
  EXPECT_EQ(o.ring_capacity, 512u);
  EXPECT_EQ(o.batch_drain, 32u);
  EXPECT_EQ(o.checkpoint.group_commit, 16u);
  EXPECT_EQ(o.policy, BackpressurePolicy::kDropOldest);
}

TEST_F(ServerEnvTest, BadValuesClampOrFallBackInsteadOfMisparsing) {
  ::setenv("SOCRATES_SERVER_SHARDS", "0", 1);        // below minimum -> clamp to 1
  ::setenv("SOCRATES_SERVER_RING", "banana", 1);     // garbage -> default
  ::setenv("SOCRATES_SERVER_GROUP_COMMIT", "-4", 1); // negative -> clamp to 1
  ::setenv("SOCRATES_SERVER_POLICY", "newest-wins", 1);  // unknown -> block
  const ServerOptions o = ServerOptions::from_env();
  const ServerOptions d;
  EXPECT_EQ(o.shards, 1u);
  EXPECT_EQ(o.ring_capacity, d.ring_capacity);
  EXPECT_EQ(o.checkpoint.group_commit, 1u);
  EXPECT_EQ(o.policy, BackpressurePolicy::kBlock);
}

TEST_F(ServerEnvTest, RejectPolicyParses) {
  ::setenv("SOCRATES_SERVER_POLICY", "reject", 1);
  EXPECT_EQ(ServerOptions::from_env().policy, BackpressurePolicy::kReject);
}

TEST_F(ServerEnvTest, CheckpointResilienceKnobsFlowThroughTheCheckpointEnv) {
  // One setting governs embedded and served AS-RTMs: the server reads
  // the checkpoint layer's own SOCRATES_CHECKPOINT_* knobs.
  ::setenv("SOCRATES_CHECKPOINT_GENERATIONS", "4", 1);
  ::setenv("SOCRATES_CHECKPOINT_FSYNC", "1", 1);
  ::setenv("SOCRATES_CHECKPOINT_PROBE_MS", "500", 1);
  const ServerOptions o = ServerOptions::from_env();
  EXPECT_EQ(o.checkpoint.generations, 4u);
  EXPECT_TRUE(o.checkpoint.fsync_on_commit);
  EXPECT_DOUBLE_EQ(o.checkpoint.probe_base_s, 0.5);
}

// ---- the server itself -------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ChaosEngine::global().disarm();
    dir_ = fs::temp_directory_path() /
           ("socrates_server." + std::to_string(::getpid()) + "." +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    ChaosEngine::global().disarm();
    fs::remove_all(dir_);
  }

  /// Small, watchdog-quiet options for functional tests.
  ServerOptions base_options() {
    ServerOptions o;
    o.shards = 2;
    o.ring_capacity = 64;
    o.batch_drain = 16;
    o.max_tenants = 8;
    o.shard_stall_deadline_s = 60.0;  // watchdog effectively off
    return o;
  }

  fs::path dir_;
};

TEST_F(ServerTest, FeedbackFlowsThroughToTheTenantAsrtm) {
  Server server(base_options());
  Server::TenantHandle a = 0;
  Server::TenantHandle b = 0;
  ASSERT_TRUE(server.register_tenant("alpha", make_kb(), configure_min_time, &a));
  ASSERT_TRUE(server.register_tenant("beta", make_kb(), configure_min_time, &b));
  EXPECT_EQ(server.tenant_count(), 2u);
  EXPECT_NE(server.shard_of(a), server.shard_of(b));  // round-robin over 2 shards

  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(server.submit_feedback(a, 0, 0, 1.3), Admission::kAccepted);
  }
  ASSERT_TRUE(server.drain(5.0));

  EXPECT_EQ(server.tenant_status(a).applied, 10u);
  EXPECT_EQ(server.tenant_status(b).applied, 0u);  // isolation
  server.with_tenant(a, [](margot::Asrtm& asrtm) {
    EXPECT_GT(asrtm.correction(0), 1.0);  // observed 1.3 vs expected 1.0
  });
  server.with_tenant(b, [](margot::Asrtm& asrtm) {
    EXPECT_DOUBLE_EQ(asrtm.correction(0), 1.0);
  });
  EXPECT_LT(server.decide(a), make_kb().size());

  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.accepted, 10u);
  EXPECT_EQ(stats.drained, 10u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST_F(ServerTest, AdmissionCapRejectsTenantsBeyondMax) {
  ServerOptions options = base_options();
  options.max_tenants = 2;
  Server server(options);
  Server::TenantHandle h = 0;
  EXPECT_TRUE(server.register_tenant("t0", make_kb(), {}, &h));
  EXPECT_TRUE(server.register_tenant("t1", make_kb(), {}, &h));
  EXPECT_FALSE(server.register_tenant("t2", make_kb(), {}, &h));
  EXPECT_EQ(server.tenant_count(), 2u);
}

TEST_F(ServerTest, TokenBucketRateLimitsATenant) {
  ServerOptions options = base_options();
  options.rate_limit_per_s = 10.0;
  options.rate_burst = 4.0;
  Server server(options);
  std::atomic<double> now{0.0};
  server.set_time_source([&now] { return now.load(); });
  Server::TenantHandle h = 0;
  ASSERT_TRUE(server.register_tenant("limited", make_kb(), {}, &h));

  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(server.submit_feedback(h, 0, 0, 1.2), Admission::kAccepted);
  }
  EXPECT_EQ(server.submit_feedback(h, 0, 0, 1.2), Admission::kRateLimited);
  now.store(1.0);  // 10 tokens refill (capped at burst 4)
  EXPECT_EQ(server.submit_feedback(h, 0, 0, 1.2), Admission::kAccepted);
  EXPECT_GE(server.stats().rate_limited, 1u);
}

TEST_F(ServerTest, NonFiniteFeedbackFloodTripsTheBreaker) {
  ServerOptions options = base_options();
  options.breaker.error_threshold = 8;
  options.breaker.base_cooldown_s = 0.5;
  options.breaker.probe_quota = 2;
  Server server(options);
  std::atomic<double> now{0.0};
  server.set_time_source([&now] { return now.load(); });
  Server::TenantHandle h = 0;
  ASSERT_TRUE(server.register_tenant("nan-flood", make_kb(), {}, &h));

  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(server.submit_feedback(h, 0, 0, nan), Admission::kInvalid);
  }
  // Breaker open: even healthy feedback is quarantined now.
  EXPECT_EQ(server.submit_feedback(h, 0, 0, 1.2), Admission::kQuarantined);
  EXPECT_EQ(server.tenant_status(h).breaker, CircuitBreaker::State::kOpen);
  EXPECT_EQ(server.stats().breaker_trips, 1u);

  // After the cooldown the tenant is probed and, behaving, readmitted.
  now.store(0.6);
  EXPECT_EQ(server.submit_feedback(h, 0, 0, 1.2), Admission::kAccepted);
  EXPECT_EQ(server.submit_feedback(h, 0, 0, 1.2), Admission::kAccepted);
  EXPECT_EQ(server.tenant_status(h).breaker, CircuitBreaker::State::kClosed);
  ASSERT_TRUE(server.drain(5.0));
}

TEST_F(ServerTest, OutOfRangeOpOrMetricIsRefusedAtIngressNotTheWorker) {
  // Regression: these used to be enqueued verbatim and trip
  // Asrtm::send_feedback's contract on the shard worker thread, where
  // the escaping exception would std::terminate the whole server.
  ServerOptions options = base_options();
  options.breaker.error_threshold = 4;
  options.breaker.base_cooldown_s = 60.0;  // stays open for the whole test
  Server server(options);
  std::atomic<double> now{0.0};
  server.set_time_source([&now] { return now.load(); });
  Server::TenantHandle bad = 0;
  Server::TenantHandle good = 0;
  ASSERT_TRUE(server.register_tenant("malformed", make_kb(), configure_min_time, &bad));
  ASSERT_TRUE(server.register_tenant("bystander", make_kb(), configure_min_time, &good));
  const std::size_t ops = make_kb().size();

  EXPECT_EQ(server.submit_feedback(bad, ops, 0, 1.2), Admission::kInvalid);
  EXPECT_EQ(server.submit_feedback(bad, 0, 99, 1.2), Admission::kInvalid);
  EXPECT_EQ(server.submit_feedback(bad, ops + 7, 99, 1.2), Admission::kInvalid);
  // The flood trips the breaker like non-finite feedback does.
  EXPECT_EQ(server.submit_feedback(bad, ops, 0, 1.2), Admission::kInvalid);
  EXPECT_EQ(server.submit_feedback(bad, 0, 0, 1.2), Admission::kQuarantined);
  EXPECT_EQ(server.tenant_status(bad).breaker, CircuitBreaker::State::kOpen);

  // The server (and the bad tenant's shard) is alive and isolated:
  // other tenants' feedback still flows end to end.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(server.submit_feedback(good, 0, 0, 1.3), Admission::kAccepted);
  }
  ASSERT_TRUE(server.drain(5.0));
  EXPECT_EQ(server.tenant_status(good).applied, 5u);
  EXPECT_EQ(server.tenant_status(bad).applied, 0u);
  EXPECT_EQ(server.stats().invalid, 4u);
}

TEST_F(ServerTest, RebuildFailureQuarantinesTheTenantNotTheServer) {
  // Regression: a tenant-supplied configure functor that throws during
  // a watchdog-driven rebuild used to escape watchdog_loop and
  // terminate the process.  Now the tenant is quarantined on its old
  // runtime and every other tenant on the shard still recovers.
  ServerOptions options = base_options();
  options.shards = 1;
  options.shard_stall_deadline_s = 0.15;
  options.watchdog_period_s = 0.03;
  options.restart_backoff_base_s = 0.0;
  options.breaker.base_cooldown_s = 60.0;  // forced-open stays open
  options.checkpoint_dir = (dir_ / "ckpt").string();
  options.checkpoint.group_commit = 1;  // flush-per-event: the restart loses nothing
  Server server(options);
  std::atomic<double> now{0.0};
  server.set_time_source([&now] { return now.load(); });

  std::atomic<int> flaky_configs{0};
  const auto flaky_configure = [&flaky_configs](margot::Asrtm& asrtm) {
    if (flaky_configs.fetch_add(1) > 0) throw Error("configure broke on rebuild");
    configure_min_time(asrtm);
  };
  Server::TenantHandle flaky = 0;
  Server::TenantHandle steady = 0;
  ASSERT_TRUE(server.register_tenant("flaky", make_kb(), flaky_configure, &flaky));
  ASSERT_TRUE(server.register_tenant("steady", make_kb(), configure_min_time, &steady));

  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(server.submit_feedback(steady, 0, 0, 1.3), Admission::kAccepted);
  }
  ASSERT_TRUE(server.drain(5.0));
  double correction_before = 0.0;
  server.with_tenant(steady, [&](margot::Asrtm& asrtm) {
    correction_before = asrtm.correction(0);
  });
  ASSERT_GT(correction_before, 1.0);

  server.inject_stall(0, 1.0);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.stats().shard_restarts == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GE(server.stats().shard_restarts, 1u) << "watchdog never fired";
  EXPECT_GE(flaky_configs.load(), 2) << "rebuild never reran the configure functor";

  // The flaky tenant is quarantined but still serves reads from its
  // pre-restart runtime.
  EXPECT_EQ(server.submit_feedback(flaky, 0, 0, 1.2), Admission::kQuarantined);
  EXPECT_EQ(server.tenant_status(flaky).breaker, CircuitBreaker::State::kOpen);
  EXPECT_LT(server.decide(flaky), make_kb().size());

  // The steady tenant recovered fully: journal replayed, shard alive.
  server.with_tenant(steady, [&](margot::Asrtm& asrtm) {
    EXPECT_DOUBLE_EQ(asrtm.correction(0), correction_before);
  });
  ASSERT_EQ(server.submit_feedback(steady, 0, 0, 1.3), Admission::kAccepted);
  ASSERT_TRUE(server.drain(5.0));
}

TEST_F(ServerTest, GoalFlappingQuarantinesTheTenant) {
  ServerOptions options = base_options();
  options.goal_update_threshold = 4;
  options.goal_window_s = 1.0;
  options.breaker.error_threshold = 4;
  Server server(options);
  std::atomic<double> now{0.0};
  server.set_time_source([&now] { return now.load(); });
  Server::TenantHandle h = 0;
  ASSERT_TRUE(server.register_tenant("flapper", make_kb(),
                                     [](margot::Asrtm& asrtm) {
                                       asrtm.set_rank(Rank::minimize_exec_time(0));
                                       asrtm.add_constraint(
                                           {0, margot::ComparisonOp::kLess, 2.0, 0, 0.0});
                                     },
                                     &h));

  // 4 updates inside the window are within contract...
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(server.update_goal(h, 0, 1.5 + 0.1 * i), Admission::kAccepted);
  }
  // ...every one past the threshold is a breaker error; 4 of those trip it.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(server.update_goal(h, 0, 1.5), Admission::kInvalid);
  }
  EXPECT_EQ(server.update_goal(h, 0, 1.5), Admission::kQuarantined);
  EXPECT_EQ(server.submit_feedback(h, 0, 0, 1.2), Admission::kQuarantined);
  EXPECT_GE(server.stats().breaker_trips, 1u);
}

TEST_F(ServerTest, RejectPolicyShedsWhenTheRingIsFull) {
  ServerOptions options = base_options();
  options.shards = 1;
  options.ring_capacity = 16;
  options.policy = BackpressurePolicy::kReject;
  Server server(options);
  Server::TenantHandle h = 0;
  ASSERT_TRUE(server.register_tenant("bursty", make_kb(), {}, &h));
  // Stall the lone shard so nothing drains while we overfill the ring.
  server.inject_stall(0, 0.5);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::size_t accepted = 0;
  std::size_t shed = 0;
  for (int i = 0; i < 64; ++i) {
    const Admission result = server.submit_feedback(h, 0, 0, 1.2);
    if (result == Admission::kAccepted) ++accepted;
    if (result == Admission::kShed) ++shed;
  }
  EXPECT_GT(shed, 0u) << "a full ring under kReject must refuse events";
  EXPECT_LE(accepted, 16u + 1u);
  ASSERT_TRUE(server.drain(5.0));
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.accepted, accepted);
  EXPECT_EQ(stats.drained, accepted);  // accepted events all land eventually
}

TEST_F(ServerTest, RejectPolicyDrainWaitsForPoppedButUnappliedEvents) {
  // Regression: refused events were counted against the accepted ones,
  // so drain() returned while the shard still held the accepted events
  // it had popped but not yet applied.
  ServerOptions options = base_options();
  options.shards = 1;
  options.ring_capacity = 16;
  options.policy = BackpressurePolicy::kReject;
  Server server(options);
  Server::TenantHandle h = 0;
  ASSERT_TRUE(server.register_tenant("bursty", make_kb(), {}, &h));
  server.inject_stall(0, 0.2);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (int i = 0; i < 64; ++i) (void)server.submit_feedback(h, 0, 0, 1.2);

  // Hold the tenant lock: once the stall ends, the shard pops the
  // accepted events and blocks on the lock before applying them.
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    server.with_tenant(h, [&](margot::Asrtm&) {
      holding.store(true);
      while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  });
  while (!holding.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_FALSE(server.drain(0.1)) << "drain returned with popped events unapplied";
  release.store(true);
  holder.join();

  ASSERT_TRUE(server.drain(5.0));
  const Server::Stats stats = server.stats();
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_EQ(stats.drained, stats.accepted);
  EXPECT_EQ(stats.accepted + stats.shed, 64u);
}

TEST_F(ServerTest, DropOldestPolicyBoundsTheRingWithoutBlocking) {
  ServerOptions options = base_options();
  options.shards = 1;
  options.ring_capacity = 16;
  options.policy = BackpressurePolicy::kDropOldest;
  Server server(options);
  Server::TenantHandle h = 0;
  ASSERT_TRUE(server.register_tenant("telemetry", make_kb(), {}, &h));
  server.inject_stall(0, 0.5);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(server.submit_feedback(h, 0, 0, 1.2), Admission::kAccepted)
        << "drop-oldest never refuses the newest event";
  }
  ASSERT_TRUE(server.drain(5.0));
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.accepted, 64u);
  EXPECT_GT(stats.shed, 0u);
  EXPECT_EQ(stats.drained + stats.shed, stats.accepted);  // conservation
}

// ---- admission: the lock-free fast path against the locked reference -------------

/// A small breaker and flap window, so a short seeded trace crosses
/// every breaker state.
ServerOptions admission_options(ServerOptions o, double rate_limit_per_s) {
  o.ring_capacity = 1024;
  o.rate_limit_per_s = rate_limit_per_s;
  o.rate_burst = 6.0;
  o.breaker.error_threshold = 4;
  o.breaker.window_s = 1.0;
  o.breaker.base_cooldown_s = 0.5;
  o.breaker.max_cooldown_s = 4.0;
  o.breaker.probe_quota = 2;
  o.goal_update_threshold = 4;
  o.goal_window_s = 1.0;
  return o;
}

void configure_goal(margot::Asrtm& asrtm) {
  asrtm.set_rank(Rank::minimize_exec_time(0));
  asrtm.add_constraint({0, margot::ComparisonOp::kLess, 2.0, 0, 0.0});
}

TEST_F(ServerTest, AdmissionMatchesTheLockedReferenceOnSeededTraces) {
  constexpr std::size_t kTenants = 3;
  constexpr std::size_t kMetrics = 2;
  constexpr int kSteps = 600;
  const std::size_t ops = make_kb().size();
  for (const double rate : {0.0, 20.0}) {
    for (const std::uint64_t seed : {21u, 22u, 23u}) {
      SCOPED_TRACE(testing::Message() << "rate " << rate << ", seed " << seed);
      const ServerOptions options = admission_options(base_options(), rate);
      Server server(options);
      std::atomic<double> now{0.0};
      server.set_time_source([&now] { return now.load(); });
      reference::ReferenceAdmission ref(options, [&now] { return now.load(); });
      std::vector<Server::TenantHandle> handles;
      for (std::size_t t = 0; t < kTenants; ++t) {
        Server::TenantHandle h = 0;
        ASSERT_TRUE(server.register_tenant(std::to_string(t), make_kb(), configure_goal, &h));
        ASSERT_EQ(ref.add_tenant(ops, kMetrics), h);
        handles.push_back(h);
      }

      Rng rng(seed);
      const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      };
      for (int step = 0; step < kSteps; ++step) {
        const std::size_t t = pick(kTenants);
        const std::size_t kind = pick(8);
        SCOPED_TRACE(testing::Message() << "step " << step << ", kind " << kind << ", tenant " << t);
        const auto submit = [&](std::size_t op, std::size_t metric, double value) {
          EXPECT_EQ(server.submit_feedback(handles[t], op, metric, value),
                    ref.submit_feedback(t, op, metric, value));
        };
        switch (kind) {
          case 0:
          case 1:
          case 2:  // a burst of well-formed events
            for (std::size_t k = pick(6) + 1; k > 0; --k)
              submit(pick(ops), pick(kMetrics), rng.uniform(0.5, 2.0));
            break;
          case 3:  // non-finite
            submit(pick(ops), pick(kMetrics),
                   pick(2) == 0 ? std::numeric_limits<double>::quiet_NaN()
                                : std::numeric_limits<double>::infinity());
            break;
          case 4:  // zero or negative
            submit(pick(ops), pick(kMetrics), pick(2) == 0 ? 0.0 : -rng.uniform(0.1, 5.0));
            break;
          case 5:  // op or metric out of range
            if (pick(2) == 0) {
              submit(ops + pick(3), pick(kMetrics), 1.0);
            } else {
              submit(pick(ops), kMetrics + pick(3), 1.0);
            }
            break;
          case 6:  // a goal flood
            for (std::size_t k = pick(8) + 1; k > 0; --k)
              EXPECT_EQ(server.update_goal(handles[t], 0, rng.uniform(1.5, 2.5)),
                        ref.update_goal(t));
            break;
          default:  // the clock moves
            now.store(now.load() + rng.uniform(0.0, 0.6));
            break;
        }
        if (HasFailure()) return;
      }

      ASSERT_TRUE(server.drain(10.0));
      const Server::Stats stats = server.stats();
      const reference::ReferenceAdmission::Counts expected = ref.counts();
      EXPECT_EQ(stats.submitted, expected.submitted);
      EXPECT_EQ(stats.accepted, expected.accepted);
      EXPECT_EQ(stats.rate_limited, expected.rate_limited);
      EXPECT_EQ(stats.quarantined, expected.quarantined);
      EXPECT_EQ(stats.invalid, expected.invalid);
      EXPECT_EQ(stats.breaker_trips, expected.breaker_trips);
      EXPECT_EQ(stats.drained, stats.accepted);
      // The trace reached every outcome it is meant to cover.
      EXPECT_GT(expected.accepted, 0u);
      EXPECT_GT(expected.quarantined, 0u);
      EXPECT_GT(expected.invalid, 0u);
      EXPECT_GT(expected.breaker_trips, 0u);
      EXPECT_EQ(expected.rate_limited > 0, rate > 0.0);
    }
  }
}

TEST_F(ServerTest, ClosedUnlimitedTenantAdmitsWithoutTheClock) {
  ServerOptions options = base_options();
  options.breaker.error_threshold = 4;
  options.breaker.base_cooldown_s = 60.0;  // stays open for the rest of the test
  Server server(options);
  std::atomic<std::uint64_t> clock_calls{0};
  server.set_time_source([&clock_calls] {
    ++clock_calls;
    return 0.0;
  });
  Counter& locked = MetricsRegistry::global().counter("server.ingress_locked");
  Server::TenantHandle h = 0;
  ASSERT_TRUE(server.register_tenant("steady", make_kb(), configure_min_time, &h));
  const std::uint64_t clock0 = clock_calls.load();
  const std::uint64_t locked0 = locked.value();

  for (int i = 0; i < 100; ++i)
    ASSERT_EQ(server.submit_feedback(h, 0, 0, 1.2), Admission::kAccepted);
  EXPECT_EQ(clock_calls.load() - clock0, 0u)
      << "well-formed feedback to a closed, unlimited tenant read the clock";
  EXPECT_EQ(locked.value() - locked0, 0u);

  // Malformed events take the locked path, read the clock, and trip the
  // breaker; from then on well-formed events take the locked path too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(server.submit_feedback(h, 0, 0, nan), Admission::kInvalid);
  EXPECT_EQ(clock_calls.load() - clock0, 4u);
  EXPECT_EQ(server.submit_feedback(h, 0, 0, 1.2), Admission::kQuarantined);
  EXPECT_EQ(clock_calls.load() - clock0, 5u);
  EXPECT_EQ(locked.value() - locked0, 5u);
  ASSERT_TRUE(server.drain(5.0));
  EXPECT_EQ(server.tenant_status(h).applied, 100u);
}

TEST_F(ServerTest, BreakerTripsRaceLockFreeAdmission) {
  // One thread floods malformed events until the breaker trips, then
  // moves the clock past the cooldown, so that the next locked submit
  // half-opens it and the probes close it again.  Two threads submit
  // well-formed events all along, mostly on the lock-free fast path.
  constexpr int kCycles = 4;
  constexpr int kSubmitters = 2;
  ServerOptions options = base_options();
  options.ring_capacity = 256;
  options.breaker.error_threshold = 8;
  options.breaker.base_cooldown_s = 0.5;
  options.breaker.max_cooldown_s = 0.5;
  options.breaker.probe_quota = 2;
  Server server(options);
  std::atomic<double> now{0.0};
  server.set_time_source([&now] { return now.load(); });
  Server::TenantHandle h = 0;
  ASSERT_TRUE(server.register_tenant("raced", make_kb(), configure_min_time, &h));
  Counter& half_opens = MetricsRegistry::global().counter("server.breaker_half_opens");
  const std::uint64_t half_opens0 = half_opens.value();

  std::atomic<bool> flood_done{false};
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> disallowed{0};
  std::vector<std::thread> submitters;
  for (int i = 0; i < kSubmitters; ++i) {
    submitters.emplace_back([&] {
      // Keep submitting after the flood, so the last cycle closes.
      std::uint64_t after_flood = 0;
      while (after_flood < 500) {
        const Admission admission = server.submit_feedback(h, 0, 0, 1.2);
        ++submitted;
        if (admission == Admission::kAccepted) {
          ++accepted;
        } else if (admission != Admission::kQuarantined) {
          ++disallowed;
        }
        if (flood_done.load()) ++after_flood;
      }
    });
  }
  std::thread flood([&] {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      while (submitted.load() < 200 * static_cast<std::uint64_t>(cycle + 1))
        std::this_thread::yield();
      while (true) {
        const Admission admission = server.submit_feedback(h, 0, 0, nan);
        if (admission == Admission::kQuarantined) break;  // tripped
        if (admission != Admission::kInvalid) ++disallowed;
      }
      now.store(now.load() + 1.0);
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (server.tenant_status(h).breaker != CircuitBreaker::State::kClosed &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    }
    flood_done.store(true);
  });
  flood.join();
  for (auto& thread : submitters) thread.join();

  EXPECT_EQ(disallowed.load(), 0u) << "an outcome outside the admission contract";
  EXPECT_EQ(server.tenant_status(h).breaker, CircuitBreaker::State::kClosed);
  EXPECT_GE(half_opens.value() - half_opens0, static_cast<std::uint64_t>(kCycles));
  ASSERT_TRUE(server.drain(20.0));
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.breaker_trips, static_cast<std::uint64_t>(kCycles));
  EXPECT_EQ(stats.accepted, accepted.load());
  EXPECT_EQ(stats.drained + stats.shed, stats.accepted);
}

TEST_F(ServerTest, WatchdogRestartsAStalledShardAndRecoversItsTenants) {
  ServerOptions options = base_options();
  options.shards = 1;
  options.shard_stall_deadline_s = 0.15;
  options.watchdog_period_s = 0.03;
  options.restart_backoff_base_s = 0.0;
  options.checkpoint_dir = (dir_ / "ckpt").string();
  options.checkpoint.group_commit = 1;  // flush-per-event: the restart loses nothing
  Server server(options);
  Server::TenantHandle h = 0;
  ASSERT_TRUE(server.register_tenant("survivor", make_kb(), configure_min_time, &h));

  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(server.submit_feedback(h, 0, 0, 1.3), Admission::kAccepted);
  }
  ASSERT_TRUE(server.drain(5.0));
  double correction_before = 0.0;
  server.with_tenant(h, [&](margot::Asrtm& asrtm) {
    correction_before = asrtm.correction(0);
  });
  ASSERT_GT(correction_before, 1.0);

  // Park the worker far past the watchdog deadline and wait for the
  // restart to be detected and completed.
  server.inject_stall(0, 1.0);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.stats().shard_restarts == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GE(server.stats().shard_restarts, 1u) << "watchdog never fired";

  // The rebuilt tenant replayed its journal: learned state intact.
  server.with_tenant(h, [&](margot::Asrtm& asrtm) {
    EXPECT_DOUBLE_EQ(asrtm.correction(0), correction_before);
  });
  // And the shard is alive again: new feedback still flows.
  ASSERT_EQ(server.submit_feedback(h, 0, 0, 1.3), Admission::kAccepted);
  ASSERT_TRUE(server.drain(5.0));
}

TEST_F(ServerTest, CrashAndResumeRecoversEveryTenant) {
  ServerOptions options = base_options();
  options.checkpoint_dir = (dir_ / "ckpt").string();
  options.checkpoint.group_commit = 4;
  constexpr int kTenants = 4;
  constexpr int kEventsPerTenant = 10;  // 2 committed batches + 2 buffered
  double corrections[kTenants] = {};

  {
    Server server(options);
    for (int t = 0; t < kTenants; ++t) {
      Server::TenantHandle h = 0;
      ASSERT_TRUE(server.register_tenant("tenant" + std::to_string(t), make_kb(),
                                         configure_min_time, &h));
      for (int i = 0; i < kEventsPerTenant; ++i) {
        ASSERT_EQ(server.submit_feedback(h, 0, 0, 1.4), Admission::kAccepted);
      }
    }
    ASSERT_TRUE(server.drain(10.0));
    for (int t = 0; t < kTenants; ++t) {
      const auto status = server.tenant_status(static_cast<std::uint64_t>(t));
      EXPECT_EQ(status.applied, static_cast<std::uint64_t>(kEventsPerTenant));
      EXPECT_LT(status.buffered_events, options.checkpoint.group_commit)
          << "a crash may lose at most one uncommitted batch";
      server.with_tenant(static_cast<std::uint64_t>(t), [&](margot::Asrtm& asrtm) {
        corrections[t] = asrtm.correction(0);
      });
    }
    // Destructor without checkpoint_all(): crash-equivalent.
  }

  Server resumed(options);
  for (int t = 0; t < kTenants; ++t) {
    Server::TenantHandle h = 0;
    ASSERT_TRUE(resumed.register_tenant("tenant" + std::to_string(t), make_kb(),
                                        configure_min_time, &h));
    // The journal replays the committed prefix (8 of 10 events); the
    // learned state must match a run that saw exactly that prefix.
    margot::Asrtm reference(make_kb());
    for (int i = 0; i < 8; ++i) reference.send_feedback(0, 0, 1.4);
    resumed.with_tenant(h, [&](margot::Asrtm& asrtm) {
      EXPECT_DOUBLE_EQ(asrtm.correction(0), reference.correction(0)) << "tenant " << t;
      EXPECT_GT(asrtm.correction(0), 1.0);
      EXPECT_LE(asrtm.correction(0), corrections[t]);
    });
  }
}

TEST_F(ServerTest, CheckpointAllMakesShutdownLossless) {
  ServerOptions options = base_options();
  options.checkpoint_dir = (dir_ / "ckpt").string();
  options.checkpoint.group_commit = 64;  // large batches: everything would sit buffered
  double correction_before = 0.0;
  {
    Server server(options);
    Server::TenantHandle h = 0;
    ASSERT_TRUE(server.register_tenant("clean", make_kb(), configure_min_time, &h));
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(server.submit_feedback(h, 0, 0, 1.5), Admission::kAccepted);
    }
    ASSERT_TRUE(server.drain(5.0));
    server.with_tenant(h, [&](margot::Asrtm& asrtm) {
      correction_before = asrtm.correction(0);
    });
    server.checkpoint_all();  // clean shutdown point
  }
  Server resumed(options);
  Server::TenantHandle h = 0;
  ASSERT_TRUE(resumed.register_tenant("clean", make_kb(), configure_min_time, &h));
  resumed.with_tenant(h, [&](margot::Asrtm& asrtm) {
    EXPECT_DOUBLE_EQ(asrtm.correction(0), correction_before);
  });
}

// ---- published decisions ----------------------------------------------------------

/// 16 points: more threads run faster and draw more power.  Every mean
/// time is below 1 s, so an observation of DBL_MAX overflows its ratio.
KnowledgeBase make_tradeoff_kb() {
  KnowledgeBase kb({"threads"}, {"exec_time_s", "power_w"});
  for (std::size_t i = 0; i < 16; ++i) {
    OperatingPoint op;
    op.knobs = {static_cast<int>(i + 1)};
    const double x = static_cast<double>(i);
    op.metrics = {{0.9 - 0.05 * x, 0.01}, {40.0 + 4.0 * x, 0.5}};
    kb.add(std::move(op));
  }
  return kb;
}

/// The fastest point under a 70 W cap (constraint 0).
void configure_capped(margot::Asrtm& asrtm) {
  asrtm.set_rank(Rank::minimize_exec_time(0));
  asrtm.add_constraint({1, margot::ComparisonOp::kLess, 70.0, 0, 1.0});
}

/// Durable (group_commit = 1, so a restart loses no event), goal
/// updates never count as flapping, and the watchdog fires only on an
/// injected stall.
ServerOptions publishing_options(ServerOptions o, const fs::path& checkpoint_dir) {
  o.checkpoint_dir = checkpoint_dir.string();
  o.checkpoint.group_commit = 1;
  o.goal_update_threshold = std::size_t{1} << 20;
  o.shard_stall_deadline_s = 0.3;
  o.watchdog_period_s = 0.02;
  o.restart_backoff_base_s = 0.0;
  return o;
}

/// Stalls `shard` past the watchdog deadline and waits until its
/// restart is counted.  The rebuilds run after the count; only the
/// respawned worker proves them done.
void force_restart(Server& server, std::size_t shard) {
  const std::uint64_t restarts = server.stats().shard_restarts;
  server.inject_stall(shard, 0.6);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.stats().shard_restarts == restarts &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(server.stats().shard_restarts, restarts) << "watchdog never fired";
}

/// decide_batch, decide_shard and decide all serve the reference's
/// decision, and every correction matches it bit for bit.
void expect_matches_reference(Server& server, const reference::ReferenceServer& ref,
                              const std::vector<Server::TenantHandle>& handles) {
  std::vector<std::size_t> batch(handles.size());
  EXPECT_EQ(server.decide_batch(handles, batch), handles.size());
  for (std::size_t t = 0; t < handles.size(); ++t) {
    const margot::Asrtm& expected = ref.asrtm(t);
    const std::size_t best = expected.find_best_operating_point();
    EXPECT_EQ(batch[t], best) << "decide_batch, tenant " << t;
    EXPECT_EQ(server.decide(handles[t]), best) << "decide, tenant " << t;
    server.with_tenant(handles[t], [&](margot::Asrtm& asrtm) {
      for (std::size_t m = 0; m < asrtm.knowledge().metric_names().size(); ++m)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(asrtm.correction(m)),
                  std::bit_cast<std::uint64_t>(expected.correction(m)))
            << "correction " << m << ", tenant " << t;
    });
  }
  std::vector<Server::TenantHandle> shard_handles(handles.size());
  std::vector<std::size_t> shard_best(handles.size());
  std::size_t served = 0;
  for (std::size_t s = 0; s < server.options().shards; ++s) {
    const std::size_t n = server.decide_shard(s, shard_handles, shard_best);
    for (std::size_t k = 0; k < n; ++k)
      EXPECT_EQ(shard_best[k], ref.asrtm(shard_handles[k]).find_best_operating_point())
          << "decide_shard " << s << ", tenant " << shard_handles[k];
    served += n;
  }
  EXPECT_EQ(served, handles.size());
}

TEST_F(ServerTest, PublishedDecisionsMatchTheSynchronousReference) {
  constexpr std::size_t kTenants = 4;
  constexpr int kSteps = 48;
  const KnowledgeBase kb = make_tradeoff_kb();
  const std::array<Rank, 3> ranks = {Rank::minimize_exec_time(0),
                                     Rank::minimize_energy(0, 1),
                                     Rank::minimize_energy_delay(0, 1)};
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Server server(publishing_options(base_options(), dir_ / ("seed" + std::to_string(seed))));
    reference::ReferenceServer ref;
    std::vector<Server::TenantHandle> handles;
    for (std::size_t t = 0; t < kTenants; ++t) {
      Server::TenantHandle h = 0;
      ASSERT_TRUE(server.register_tenant(std::to_string(t), kb, configure_capped, &h));
      ASSERT_EQ(ref.add_tenant(kb, configure_capped), h);
      handles.push_back(h);
    }
    expect_matches_reference(server, ref, handles);

    Rng rng(seed);
    const auto pick = [&rng](std::size_t n) {
      return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    const auto feed = [&](std::size_t t, std::size_t op, std::size_t metric, double value) {
      ASSERT_EQ(server.submit_feedback(handles[t], op, metric, value), Admission::kAccepted);
      ref.submit_feedback(t, op, metric, value);
    };
    const auto mean = [&kb](std::size_t op, std::size_t metric) {
      return kb.metric_means(metric)[op];
    };
    for (int step = 0; step < kSteps; ++step) {
      const std::size_t t = pick(kTenants);
      // Two fixed steps restart a shard; the rest draw their kind.
      const std::size_t kind = step == 16 || step == 32 ? 6 : pick(6);
      SCOPED_TRACE(testing::Message() << "step " << step << ", kind " << kind << ", tenant " << t);
      switch (kind) {
        case 0:  // feedback equal to the knowledge mean
          for (std::size_t k = pick(8) + 1; k > 0; --k) {
            const std::size_t op = pick(kb.size());
            const std::size_t metric = pick(2);
            feed(t, op, metric, mean(op, metric));
          }
          break;
        case 1:  // noisy feedback
          for (std::size_t k = pick(24) + 1; k > 0; --k) {
            const std::size_t op = pick(kb.size());
            const std::size_t metric = pick(2);
            feed(t, op, metric, mean(op, metric) * rng.uniform(0.7, 1.5));
          }
          break;
        case 2:  // finite, so accepted at ingress; its ratio overflows, so
                 // the AS-RTM rejects it and no epoch moves
          feed(t, pick(kb.size()), 0, std::numeric_limits<double>::max());
          break;
        case 3: {
          const double goal = rng.uniform(50.0, 100.0);
          ASSERT_EQ(server.update_goal(handles[t], 0, goal), Admission::kAccepted);
          ref.update_goal(t, 0, goal);
          break;
        }
        case 4: {
          const Rank rank = ranks[pick(ranks.size())];
          const auto set_rank = [&rank](margot::Asrtm& asrtm) { asrtm.set_rank(rank); };
          server.with_tenant(handles[t], set_rank);
          ref.with_tenant(t, set_rank);
          break;
        }
        case 5: {
          const auto invalidate = [](margot::Asrtm& asrtm) { asrtm.invalidate_decision_cache(); };
          server.with_tenant(handles[t], invalidate);
          ref.with_tenant(t, invalidate);
          break;
        }
        default: {
          const std::size_t shard = server.shard_of(handles[t]);
          force_restart(server, shard);
          for (std::size_t u = 0; u < kTenants; ++u)
            if (server.shard_of(handles[u]) == shard) ref.restart(u);
          // The respawned worker applies this event only after every
          // rebuild on its shard, so the drain below waits for them.
          const std::size_t op = pick(kb.size());
          feed(t, op, 1, mean(op, 1) * 1.1);
          break;
        }
      }
      ASSERT_TRUE(server.drain(10.0));
      expect_matches_reference(server, ref, handles);
      if (HasFailure()) return;
    }
  }
}

TEST_F(ServerTest, ThrowingWithTenantFunctorStillRepublishes) {
  Server server(base_options());
  Server::TenantHandle h = 0;
  ASSERT_TRUE(server.register_tenant("thrower", make_tradeoff_kb(), configure_capped, &h));
  const std::array<Server::TenantHandle, 1> handles = {h};
  std::array<std::size_t, 1> best = {0};
  server.decide_batch(handles, best);
  ASSERT_EQ(best[0], 7u);  // the fastest point under 70 W
  // The functor lowers the cap to 50 W and then throws; the lower cap
  // stays, so the sweep must serve its decision.
  EXPECT_THROW(server.with_tenant(h,
                                  [](margot::Asrtm& asrtm) {
                                    asrtm.set_constraint_goal(0, 50.0);
                                    throw Error("functor failed after mutating");
                                  }),
               Error);
  server.decide_batch(handles, best);
  EXPECT_EQ(best[0], 2u);
  EXPECT_EQ(best[0], server.decide(h));
}

TEST_F(ServerTest, ServerSweepsStayValidUnderConcurrentWritesAndRestarts) {
  constexpr std::size_t kTenants = 6;
  const KnowledgeBase kb = make_tradeoff_kb();
  ServerOptions options = publishing_options(base_options(), dir_ / "ckpt");
  options.ring_capacity = 256;
  options.checkpoint.group_commit = 4;
  Server server(options);
  std::vector<Server::TenantHandle> handles;
  for (std::size_t t = 0; t < kTenants; ++t) {
    Server::TenantHandle h = 0;
    ASSERT_TRUE(server.register_tenant(std::to_string(t), kb, configure_capped, &h));
    handles.push_back(h);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sweeps{0};
  std::atomic<std::uint64_t> out_of_range{0};
  std::thread reader([&] {
    std::vector<std::size_t> best(kTenants);
    std::vector<Server::TenantHandle> shard_handles(kTenants);
    while (!stop.load()) {
      server.decide_batch(handles, best);
      for (const std::size_t b : best) out_of_range += b >= kb.size();
      for (std::size_t s = 0; s < options.shards; ++s) {
        const std::size_t n = server.decide_shard(s, shard_handles, best);
        for (std::size_t k = 0; k < n; ++k) out_of_range += best[k] >= kb.size();
      }
      ++sweeps;
    }
  });

  // Flood noisy feedback and goal changes while shard 0 stalls into a
  // watchdog restart; kBlock producers wait out the stall.
  Rng rng(2026);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const std::uint64_t restarts = server.stats().shard_restarts;
  for (int round = 0; round < 300; ++round) {
    if (round == 100) server.inject_stall(0, 0.6);
    const std::size_t t = pick(kTenants);
    for (int k = 0; k < 16; ++k) {
      const std::size_t op = pick(kb.size());
      const std::size_t metric = pick(2);
      EXPECT_EQ(server.submit_feedback(handles[t], op, metric,
                                       kb.metric_means(metric)[op] * rng.uniform(0.7, 1.5)),
                Admission::kAccepted);
    }
    if (round % 8 == 0) {
      EXPECT_EQ(server.update_goal(handles[t], 0, rng.uniform(50.0, 100.0)),
                Admission::kAccepted);
    }
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.stats().shard_restarts == restarts &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(server.stats().shard_restarts, restarts) << "watchdog never fired";
  // Applied only by the respawned worker, after every rebuild.
  ASSERT_EQ(server.submit_feedback(handles[0], 0, 0, kb.metric_means(0)[0]),
            Admission::kAccepted);
  ASSERT_TRUE(server.drain(20.0));
  stop.store(true);
  reader.join();
  EXPECT_GT(sweeps.load(), 0u);
  EXPECT_EQ(out_of_range.load(), 0u) << "a sweep served an index outside the knowledge base";

  // Quiescent: every sweep serves exactly what the AS-RTM decides.
  std::vector<std::size_t> batch(kTenants);
  server.decide_batch(handles, batch);
  std::vector<std::size_t> expected(kTenants);
  for (std::size_t t = 0; t < kTenants; ++t) {
    server.with_tenant(handles[t], [&](margot::Asrtm& asrtm) {
      expected[t] = asrtm.find_best_operating_point();
    });
    EXPECT_EQ(batch[t], expected[t]) << "decide_batch, tenant " << t;
  }
  std::vector<Server::TenantHandle> shard_handles(kTenants);
  std::vector<std::size_t> shard_best(kTenants);
  for (std::size_t s = 0; s < options.shards; ++s) {
    const std::size_t n = server.decide_shard(s, shard_handles, shard_best);
    for (std::size_t k = 0; k < n; ++k)
      EXPECT_EQ(shard_best[k], expected[shard_handles[k]]) << "decide_shard, tenant "
                                                           << shard_handles[k];
  }
}

TEST_F(ServerTest, DecisionsArePublishedOnlyWhenAWriteMovesTheDecision) {
  Counter& published = MetricsRegistry::global().counter("server.decisions_published");
  ServerOptions options = base_options();
  options.shards = 1;
  Server server(options);
  const KnowledgeBase kb = make_tradeoff_kb();
  Server::TenantHandle h = 0;
  ASSERT_TRUE(server.register_tenant("drifting", kb, configure_capped, &h));
  const double mean = kb.metric_means(0)[3];

  // Feedback equal to the knowledge mean leaves the correction
  // bit-identical: no epoch moves, so nothing is re-decided.
  std::uint64_t before = published.value();
  for (int i = 0; i < 32; ++i)
    ASSERT_EQ(server.submit_feedback(h, 3, 0, mean), Admission::kAccepted);
  ASSERT_TRUE(server.drain(5.0));
  EXPECT_EQ(published.value() - before, 0u);

  // Each drifting event applied on its own is one re-decision.
  constexpr std::uint64_t kDrifting = 8;
  before = published.value();
  for (std::uint64_t i = 0; i < kDrifting; ++i) {
    ASSERT_EQ(server.submit_feedback(h, 3, 0, mean * (1.2 + 0.05 * static_cast<double>(i))),
              Admission::kAccepted);
    ASSERT_TRUE(server.drain(5.0));
  }
  EXPECT_EQ(published.value() - before, kDrifting);

  // Queued behind a stalled shard, the events reach the AS-RTM in
  // groups of at most batch_drain, and a group re-decides once.
  constexpr std::size_t kQueued = 40;
  server.inject_stall(0, 0.3);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  before = published.value();
  for (std::size_t i = 0; i < kQueued; ++i) {
    ASSERT_EQ(server.submit_feedback(h, 3, 0, mean * (1.6 + 0.05 * static_cast<double>(i))),
              Admission::kAccepted);
  }
  ASSERT_TRUE(server.drain(5.0));
  const std::uint64_t groups = published.value() - before;
  EXPECT_GE(groups, 1u);
  EXPECT_LE(groups, (kQueued + options.batch_drain - 1) / options.batch_drain);
}

// ---- programmatic chaos sites (run by the chaos-smoke preset too) ------------------

TEST_F(ServerTest, ServerChaosIngestFloodIsShedNotFatal) {
  ChaosSpec spec;
  spec.ingest_flood = 0.5;
  spec.flood_burst = 8.0;
  spec.seed = 2024;
  ChaosEngine::global().install(spec);

  ServerOptions options = base_options();
  options.shards = 1;
  options.ring_capacity = 32;
  options.policy = BackpressurePolicy::kDropOldest;
  Server server(options);
  Server::TenantHandle h = 0;
  ASSERT_TRUE(server.register_tenant("flooded", make_kb(), {}, &h));

  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(server.submit_feedback(h, 0, 0, 1.2), Admission::kAccepted);
  }
  ChaosEngine::global().disarm();
  ASSERT_TRUE(server.drain(10.0));
  const Server::Stats stats = server.stats();
  EXPECT_GT(stats.accepted, 200u) << "floods amplify accepted events";
  EXPECT_EQ(stats.drained + stats.shed, stats.accepted);  // conservation holds
}

TEST_F(ServerTest, ServerChaosShardStallRecoversThroughTheWatchdog) {
  ChaosSpec spec;
  spec.shard_stall = 0.02;
  spec.stall_ms = 400.0;  // well past the 150ms deadline below
  spec.seed = 7;
  ChaosEngine::global().install(spec);

  ServerOptions options = base_options();
  options.shards = 1;
  options.shard_stall_deadline_s = 0.15;
  options.watchdog_period_s = 0.03;
  options.restart_backoff_base_s = 0.0;
  options.checkpoint_dir = (dir_ / "ckpt").string();
  options.checkpoint.group_commit = 1;
  Server server(options);
  Server::TenantHandle h = 0;
  ASSERT_TRUE(server.register_tenant("chaotic", make_kb(), configure_min_time, &h));

  std::uint64_t sent = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.stats().shard_restarts == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    if (server.submit_feedback(h, 0, 0, 1.3) == Admission::kAccepted) ++sent;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ChaosEngine::global().disarm();
  ASSERT_GE(server.stats().shard_restarts, 1u) << "chaos stall never tripped";
  ASSERT_TRUE(server.drain(20.0));

  // The server survived: feedback still flows and decisions still serve.
  ASSERT_EQ(server.submit_feedback(h, 0, 0, 1.3), Admission::kAccepted);
  ASSERT_TRUE(server.drain(5.0));
  EXPECT_LT(server.decide(h), make_kb().size());
}

TEST_F(ServerTest, ServerChaosJournalFailLosesAtMostTheFailedBatches) {
  ChaosSpec spec;
  spec.journal_fail = 0.3;
  spec.seed = 11;
  ChaosEngine::global().install(spec);

  ServerOptions options = base_options();
  options.checkpoint_dir = (dir_ / "ckpt").string();
  options.checkpoint.group_commit = 4;
  constexpr std::uint64_t kEvents = 40;
  {
    Server server(options);
    Server::TenantHandle h = 0;
    ASSERT_TRUE(server.register_tenant("lossy", make_kb(), configure_min_time, &h));
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      ASSERT_EQ(server.submit_feedback(h, 0, 0, 1.4), Admission::kAccepted);
    }
    ASSERT_TRUE(server.drain(10.0));
    EXPECT_EQ(server.tenant_status(h).applied, kEvents);
  }
  ChaosEngine::global().disarm();

  // Resume: some batches were dropped by the injected I/O failures, but
  // what replays is a clean prefix-of-batches subset — never corruption.
  Server resumed(options);
  Server::TenantHandle h = 0;
  ASSERT_TRUE(resumed.register_tenant("lossy", make_kb(), configure_min_time, &h));
  resumed.with_tenant(h, [](margot::Asrtm& asrtm) {
    EXPECT_GE(asrtm.correction(0), 1.0);
    (void)asrtm.find_best_operating_point();  // decisions still serve
  });
}

TEST_F(ServerTest, ServerChaosDiskFullDegradesThenRecoversDurability) {
  ServerOptions options = base_options();
  options.shards = 1;
  options.checkpoint_dir = (dir_ / "ckpt").string();
  options.checkpoint.group_commit = 1;  // every drained event commits immediately
  options.checkpoint.probe_base_s = 0.01;
  options.checkpoint.probe_max_s = 0.05;
  Server server(options);
  Server::TenantHandle h = 0;
  ASSERT_TRUE(server.register_tenant("enospc", make_kb(), configure_min_time, &h));

  ASSERT_EQ(server.submit_feedback(h, 0, 0, 1.2), Admission::kAccepted);
  ASSERT_TRUE(server.drain(5.0));
  ASSERT_GE(server.tenant_status(h).journaled_events, 1u);

  // The disk fills: every checkpoint-layer write fails with ENOSPC.
  ChaosSpec spec;
  spec.disk_full = 1.0;
  spec.seed = 5;
  ChaosEngine::global().install(spec);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(server.submit_feedback(h, 0, 0, 1.3), Admission::kAccepted);
  }
  ASSERT_TRUE(server.drain(5.0));

  // Degraded durability, but the MAPE-K loop never stopped: feedback
  // keeps applying in memory and decisions keep serving.
  Server::TenantStatus status = server.tenant_status(h);
  EXPECT_TRUE(status.durability_degraded);
  EXPECT_NE(status.disk_last_error.find("enospc"), std::string::npos)
      << status.disk_last_error;
  EXPECT_GE(status.disk_io_errors, 1u);
  EXPECT_EQ(status.applied, 5u);
  EXPECT_LT(server.decide(h), make_kb().size());
  EXPECT_EQ(server.stats().durability_degraded, 1u);

  // The clean-shutdown point must survive a full disk too.
  server.checkpoint_all();
  EXPECT_TRUE(server.tenant_status(h).durability_degraded);

  // The disk clears: traffic after the re-probe backoff restores
  // durability with a full snapshot covering everything applied in
  // memory while degraded.
  ChaosEngine::global().disarm();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.tenant_status(h).durability_degraded &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(server.submit_feedback(h, 0, 0, 1.25), Admission::kAccepted);
    ASSERT_TRUE(server.drain(5.0));
  }
  status = server.tenant_status(h);
  ASSERT_FALSE(status.durability_degraded) << "never recovered: "
                                           << status.disk_last_error;
  EXPECT_GE(status.disk_recoveries, 1u);
  EXPECT_EQ(server.stats().durability_degraded, 0u);

  // Durability is real again: a crash-equivalent restart replays the
  // recovery snapshot + journal to the exact live state (group_commit=1,
  // so nothing sits buffered).
  double correction_live = 0.0;
  server.with_tenant(h, [&](margot::Asrtm& asrtm) {
    correction_live = asrtm.correction(0);
  });
  Server resumed(options);
  Server::TenantHandle r = 0;
  ASSERT_TRUE(resumed.register_tenant("enospc", make_kb(), configure_min_time, &r));
  resumed.with_tenant(r, [&](margot::Asrtm& asrtm) {
    EXPECT_DOUBLE_EQ(asrtm.correction(0), correction_live);
  });
}

}  // namespace
}  // namespace socrates::server
