#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <tuple>

#include "oracle/packet_engine.h"
#include "sim/network.h"
#include "sim/queue.h"
#include "sim/traffic.h"
#include "util/check.h"
#include "util/rng.h"

namespace ixp::sim {
namespace {

// ---------------------------------------------------------------------------
// Clock, and the oracle's event loop

TEST(Simulator, AdvanceToSkipsForward) {
  Simulator sim;
  sim.advance_to(TimePoint(kHour));
  EXPECT_EQ(sim.now(), TimePoint(kHour));
  sim.advance_to(TimePoint(kMinute));  // backwards is a no-op
  EXPECT_EQ(sim.now(), TimePoint(kHour));
}

using oracle::EventLoop;
using oracle::mismatch;
using oracle::PacketEngine;

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(kSecond * 3, [&] { order.push_back(3); });
  loop.schedule(kSecond * 1, [&] { order.push_back(1); });
  loop.schedule(kSecond * 2, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), TimePoint(kSecond * 3));
}

TEST(EventLoop, TiesBreakInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule(kSecond, [&order, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, RunUntilStopsAtBoundary) {
  EventLoop loop;
  int fired = 0;
  loop.schedule(kSecond * 1, [&] { ++fired; });
  loop.schedule(kSecond * 5, [&] { ++fired; });
  loop.run_until(TimePoint(kSecond * 2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), TimePoint(kSecond * 2));
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, NestedScheduling) {
  EventLoop loop;
  int depth = 0;
  loop.schedule(kSecond, [&] {
    ++depth;
    loop.schedule(kSecond, [&] { ++depth; });
  });
  loop.run();
  EXPECT_EQ(depth, 2);
  EXPECT_EQ(loop.now(), TimePoint(kSecond * 2));
}

TEST(EventLoop, ClearResetsState) {
  EventLoop loop;
  loop.schedule(kSecond, [] {});
  loop.schedule(kSecond * 2, [] {});
  loop.run();
  EXPECT_EQ(loop.now(), TimePoint(kSecond * 2));
  EXPECT_EQ(loop.executed(), 2u);
  EXPECT_EQ(loop.scheduled(), 2u);

  loop.schedule(kSecond, [] {});  // left pending across the clear
  loop.clear();
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.now(), TimePoint{});
  EXPECT_EQ(loop.executed(), 0u);

  // A cleared loop must behave like a fresh one: an event scheduled one
  // second out fires at t=1s, not one second past the stale clock.
  TimePoint fired_at{};
  loop.schedule(kSecond, [&] { fired_at = loop.now(); });
  loop.run();
  EXPECT_EQ(fired_at, TimePoint(kSecond));
  EXPECT_EQ(loop.executed(), 1u);
}

// Scheduling into the past is a causality violation.  Under IXP_PARANOID
// it must check-fail with the offending delta; with checks off it clamps
// to now.
TEST(EventLoopDeathTest, PastTimeScheduleFailsUnderParanoid) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The child process re-executes this test and inherits the environment,
  // so the paranoid branch is armed before its first check runs.
  setenv("IXP_PARANOID", "1", 1);
  EventLoop loop;
  loop.run_until(TimePoint(kMinute));
  EXPECT_DEATH(loop.schedule_at(TimePoint(kSecond), [] {}), "schedule_at into the past");
  unsetenv("IXP_PARANOID");
}

TEST(EventLoop, PastTimeScheduleClampsWhenChecksOff) {
  if (paranoid_checks_enabled()) {
    GTEST_SKIP() << "paranoid build: past-time scheduling aborts instead";
  }
  EventLoop loop;
  loop.run_until(TimePoint(kMinute));
  TimePoint fired{};
  loop.schedule_at(TimePoint(kSecond), [&] { fired = loop.now(); });
  loop.run();
  EXPECT_EQ(fired, TimePoint(kMinute));  // clamped to now(), not t=1s
  EXPECT_EQ(loop.now(), TimePoint(kMinute));
}

// ---------------------------------------------------------------------------
// Traffic profiles

TEST(Traffic, DiurnalPeaksAtPeakHour) {
  DiurnalProfile::Config cfg;
  cfg.base_bps = 10e6;
  cfg.peak_bps = 90e6;
  cfg.peak_hour = 14.0;
  cfg.peak_half_width_hours = 6.0;
  DiurnalProfile p(cfg);
  const double at_peak = p.bps(TimePoint(kHour * 14));
  const double at_night = p.bps(TimePoint(kHour * 3));
  EXPECT_NEAR(at_peak, 100e6, 1e3);
  EXPECT_NEAR(at_night, 10e6, 1e3);
  EXPECT_GT(p.bps(TimePoint(kHour * 12)), p.bps(TimePoint(kHour * 9)));
}

TEST(Traffic, WeekendScaling) {
  DiurnalProfile::Config cfg;
  cfg.base_bps = 10e6;
  cfg.peak_bps = 90e6;
  cfg.weekend_scale = 0.5;
  DiurnalProfile p(cfg);
  const double weekday = p.bps(TimePoint(kHour * 14));             // Monday
  const double weekend = p.bps(TimePoint(kDay * 5 + kHour * 14));  // Saturday
  EXPECT_NEAR(weekend, weekday * 0.5, 1e3);
}

TEST(Traffic, MidnightDip) {
  DiurnalProfile::Config cfg;
  cfg.base_bps = 50e6;
  cfg.peak_bps = 0;
  cfg.midnight_dip_frac = 0.9;
  cfg.midnight_dip_half_width_hours = 1.5;
  DiurnalProfile p(cfg);
  EXPECT_NEAR(p.bps(TimePoint(Duration(0))), 5e6, 1e3);       // full dip at 00:00
  EXPECT_NEAR(p.bps(TimePoint(kHour * 12)), 50e6, 1e3);       // no dip at noon
}

TEST(Traffic, PiecewiseSwitchesAtBoundaries) {
  auto a = std::make_shared<ConstantProfile>(1e6);
  auto b = std::make_shared<ConstantProfile>(2e6);
  std::vector<PiecewiseProfile::Piece> pieces;
  pieces.push_back({TimePoint(kDay * 10), a});
  PiecewiseProfile p(std::move(pieces), b);
  EXPECT_DOUBLE_EQ(p.bps(TimePoint(kDay * 5)), 1e6);
  EXPECT_DOUBLE_EQ(p.bps(TimePoint(kDay * 10)), 2e6);  // boundary exclusive
  EXPECT_DOUBLE_EQ(p.bps(TimePoint(kDay * 20)), 2e6);
}

TEST(Traffic, JitterBoundedAndDeterministic) {
  auto base = std::make_shared<ConstantProfile>(100e6);
  JitteredProfile p(base, 0.1, 42);
  JitteredProfile q(base, 0.1, 42);
  for (int h = 0; h < 48; ++h) {
    const TimePoint t(kHour * h);
    EXPECT_DOUBLE_EQ(p.bps(t), q.bps(t));
    EXPECT_GE(p.bps(t), 100e6 * 0.89);
    EXPECT_LE(p.bps(t), 100e6 * 1.11);
  }
}

TEST(Traffic, MaxBpsBoundsObservedLoad) {
  DiurnalProfile::Config cfg;
  cfg.base_bps = 10e6;
  cfg.peak_bps = 90e6;
  cfg.weekday_scale = 1.2;
  cfg.weekend_scale = 0.7;
  cfg.midnight_dip_frac = 0.3;
  auto diurnal = std::make_shared<DiurnalProfile>(cfg);
  EXPECT_DOUBLE_EQ(diurnal->max_bps(), 1.2 * 100e6);

  auto jitter = std::make_shared<JitteredProfile>(diurnal, 0.1, 7);
  EXPECT_DOUBLE_EQ(jitter->max_bps(), 1.2 * 100e6 * 1.1);

  std::vector<PiecewiseProfile::Piece> pieces;
  pieces.push_back({TimePoint(kDay), std::make_shared<ConstantProfile>(30e6)});
  PiecewiseProfile pw(std::move(pieces), diurnal);
  EXPECT_DOUBLE_EQ(pw.max_bps(), 1.2 * 100e6);

  // The bound must dominate the profile everywhere it is sampled.
  for (int h = 0; h < 24 * 14; ++h) {
    EXPECT_LE(jitter->bps(TimePoint(kHour * h)), jitter->max_bps());
  }
  // An unbounded base propagates "unknown".
  struct Unbounded final : TrafficProfile {
    [[nodiscard]] double bps(TimePoint) const override { return 1.0; }
  };
  JitteredProfile unknown(std::make_shared<Unbounded>(), 0.1, 7);
  EXPECT_TRUE(std::isinf(unknown.max_bps()));
}

// ---------------------------------------------------------------------------
// Fluid queue

TEST(FluidQueue, EmptyWithoutOverload) {
  FluidQueue q({100e6, 350e3, std::make_shared<ConstantProfile>(50e6), kMinute, 0.0});
  EXPECT_NEAR(q.backlog_bytes(TimePoint(kHour)), 0.0, 1.0);
  EXPECT_EQ(q.queuing_delay(TimePoint(kHour * 2)).count(), 0);
  EXPECT_DOUBLE_EQ(q.drop_probability(TimePoint(kHour * 3)), 0.0);
}

TEST(FluidQueue, FillsUnderOverloadAndCapsAtBuffer) {
  // 120 Mb/s offered on a 100 Mb/s link: +20 Mb/s = 2.5 MB/s of backlog
  // growth, so a 350 kB buffer fills in 0.14 s.
  FluidQueue q({100e6, 350e3, std::make_shared<ConstantProfile>(120e6), kSecond, 0.0});
  EXPECT_NEAR(q.backlog_bytes(TimePoint(kSecond * 10)), 350e3, 1.0);
  // Full buffer at 100 Mb/s is 28 ms of queueing delay.
  EXPECT_NEAR(to_ms(q.queuing_delay(TimePoint(kSecond * 11))), 28.0, 0.1);
  // Drop probability is the overflow fraction (20/120).
  EXPECT_NEAR(q.drop_probability(TimePoint(kSecond * 12)), 20.0 / 120.0, 1e-6);
}

TEST(FluidQueue, DrainsWhenLoadDrops) {
  std::vector<PiecewiseProfile::Piece> pieces;
  pieces.push_back({TimePoint(kSecond * 10), std::make_shared<ConstantProfile>(120e6)});
  auto profile = std::make_shared<PiecewiseProfile>(std::move(pieces),
                                                    std::make_shared<ConstantProfile>(10e6));
  FluidQueue q({100e6, 350e3, profile, kSecond, 0.0});
  EXPECT_GT(q.backlog_bytes(TimePoint(kSecond * 10)), 300e3);
  EXPECT_NEAR(q.backlog_bytes(TimePoint(kSecond * 20)), 0.0, 1.0);
}

TEST(FluidQueue, BufferSizeIsAw) {
  // The paper's GIXA-GHANATEL numbers: A_w = 27.9 ms at 100 Mb/s.
  const double buffer = 27.9e-3 * 100e6 / 8.0;
  FluidQueue q({100e6, buffer, std::make_shared<ConstantProfile>(130e6), kSecond, 0.0});
  EXPECT_NEAR(to_ms(q.queuing_delay(TimePoint(kMinute))), 27.9, 0.1);
}

TEST(FluidQueue, BaseLossFloor) {
  FluidQueue q({100e6, 350e3, nullptr, kMinute, 0.001});
  EXPECT_DOUBLE_EQ(q.drop_probability(TimePoint(kMinute)), 0.001);
}

TEST(FluidQueue, CapacityUpgradeClearsCongestion) {
  FluidQueue q({10e6, 43.75e3, std::make_shared<ConstantProfile>(12e6), kSecond, 0.0});
  EXPECT_GT(q.backlog_bytes(TimePoint(kMinute)), 40e3);
  q.set_capacity(TimePoint(kMinute), 1e9, 31.25e6);
  EXPECT_NEAR(q.backlog_bytes(TimePoint(kMinute + kSecond)), 0.0, 100.0);
}

TEST(FluidQueue, EnqueueTailDrop) {
  FluidQueue q({100e6, 1000, nullptr, kMinute, 0.0});
  EXPECT_TRUE(q.enqueue(TimePoint{}, 600));
  EXPECT_FALSE(q.enqueue(TimePoint{}, 600));  // would exceed the buffer
}

TEST(FluidQueue, ConservationUnderVaryingLoad) {
  // The backlog never exceeds the buffer, never goes negative, and matches
  // an independent integration of the documented scheme (midpoint rule at
  // the configured max_step) exactly.
  DiurnalProfile::Config cfg;
  cfg.base_bps = 60e6;
  cfg.peak_bps = 70e6;  // peak total 130 Mb/s on a 100 Mb/s link
  cfg.peak_hour = 14.0;
  auto profile = std::make_shared<DiurnalProfile>(cfg);
  FluidQueue q({100e6, 500e3, profile, kMinute, 0.0});

  double ref = 0.0;
  double peak_backlog = 0.0;
  for (int s = 0; s < 24 * 3600; s += 60) {
    const double lam = profile->bps(TimePoint(kSecond * s + kSecond * 30));  // midpoint
    ref = std::clamp(ref + (lam - 100e6) * 60.0 / 8.0, 0.0, 500e3);
    const double got = q.backlog_bytes(TimePoint(kSecond * (s + 60)));
    EXPECT_GE(got, 0.0);
    EXPECT_LE(got, 500e3 + 1);
    EXPECT_NEAR(got, ref, 1e3) << "at t=" << s;
    peak_backlog = std::max(peak_backlog, got);
  }
  // The backlog must have filled to the buffer around the peak, and must
  // fully drain overnight (queries are forward-only: the queue is lazy).
  EXPECT_NEAR(peak_backlog, 500e3, 1e3);
  EXPECT_NEAR(q.backlog_bytes(TimePoint(kHour * 47)), 0.0, 1e3);
}

TEST(FluidQueue, HeadroomSkipTracksProfileSwap) {
  // A provably-uncongested queue takes the empty-backlog fast path; swapping
  // in an overloading profile must re-arm full integration, and swapping the
  // light profile back must drain and re-enable the skip.
  FluidQueue q({100e6, 350e3, std::make_shared<ConstantProfile>(50e6), kSecond, 0.0});
  EXPECT_NEAR(q.backlog_bytes(TimePoint(kHour)), 0.0, 1.0);
  q.set_cross_traffic(TimePoint(kHour), std::make_shared<ConstantProfile>(120e6));
  EXPECT_NEAR(q.backlog_bytes(TimePoint(kHour + kSecond * 10)), 350e3, 1.0);
  q.set_cross_traffic(TimePoint(kHour + kSecond * 10), std::make_shared<ConstantProfile>(10e6));
  EXPECT_NEAR(q.backlog_bytes(TimePoint(kHour * 2)), 0.0, 1.0);
}

TEST(FluidQueue, ProbeBytesDrainWithoutIntegrating) {
  // A probe's bytes on a lightly loaded link drain within microseconds; the
  // drain proof settles the next query without evaluating the profile.
  auto profile = std::make_shared<JitteredProfile>(std::make_shared<ConstantProfile>(15e6), 0.1, 3);
  FluidQueue q({100e6, 350e3, profile, kMinute, 0.0});
  ASSERT_TRUE(q.enqueue(TimePoint(kHour), 64));
  const FluidQueue::Stats before = q.stats();
  EXPECT_EQ(q.backlog_bytes(TimePoint(kHour + kMillisecond * 10)), 0.0);
  EXPECT_EQ(q.stats().headroom_skips, before.headroom_skips + 1);
  EXPECT_EQ(q.stats().integration_steps, before.integration_steps);
}

// Sum of two profiles: a composite shape for the fuzz below, which holds
// FluidQueue to its contract for any TrafficProfile, not just the built-in
// ones.
struct SumOfTwo final : TrafficProfile {
  SumOfTwo(TrafficProfilePtr a, TrafficProfilePtr b) : a(std::move(a)), b(std::move(b)) {}
  [[nodiscard]] double bps(TimePoint t) const override { return a->bps(t) + b->bps(t); }
  [[nodiscard]] double max_bps() const override { return a->max_bps() + b->max_bps(); }
  TrafficProfilePtr a, b;
};

// Random profile whose max_bps() stays within `budget` bps.
TrafficProfilePtr random_bounded_profile(Rng& rng, double budget, int depth = 0) {
  switch (rng.uniform_int(0, depth < 2 ? 4 : 2)) {
    case 0:
      return std::make_shared<ConstantProfile>(budget * rng.uniform(0.0, 1.0));
    case 1: {
      const double amp = rng.uniform(0.0, 0.5);
      return std::make_shared<JitteredProfile>(
          random_bounded_profile(rng, budget / (1.0 + amp), depth + 1), amp,
          static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)));
    }
    case 2: {
      DiurnalProfile::Config cfg;
      cfg.weekday_scale = rng.uniform(0.5, 1.0);
      cfg.weekend_scale = rng.uniform(0.5, 1.0);
      const double peak_total = budget / std::max(cfg.weekday_scale, cfg.weekend_scale);
      cfg.base_bps = peak_total * rng.uniform(0.0, 0.5);
      cfg.peak_bps = (peak_total - cfg.base_bps) * rng.uniform(0.5, 1.0);
      cfg.peak_hour = rng.uniform(0.0, 24.0);
      cfg.midnight_dip_frac = rng.uniform(0.0, 0.5);
      return std::make_shared<DiurnalProfile>(cfg);
    }
    case 3: {
      std::vector<PiecewiseProfile::Piece> pieces;
      TimePoint until{};
      for (std::int64_t i = rng.uniform_int(1, 3); i > 0; --i) {
        until += Duration(rng.uniform_int(1, kDay.count()));
        pieces.push_back({until, random_bounded_profile(rng, budget, depth + 1)});
      }
      return std::make_shared<PiecewiseProfile>(std::move(pieces),
                                                random_bounded_profile(rng, budget, depth + 1));
    }
    default: {
      const double split = rng.uniform(0.1, 0.9);
      // Sequenced: the two draws must happen in this order.
      TrafficProfilePtr first = random_bounded_profile(rng, budget * split, depth + 1);
      TrafficProfilePtr second = random_bounded_profile(rng, budget * (1.0 - split), depth + 1);
      return std::make_shared<SumOfTwo>(std::move(first), std::move(second));
    }
  }
}

TEST(FluidQueue, DrainProofMatchesFullIntegrationBitForBit) {
  // Reference: the documented midpoint scheme with FluidQueue's sub-step
  // widening, integrated over every sub-step with no headroom shortcut.
  struct Reference {
    double capacity;
    double buffer;
    TrafficProfilePtr profile;
    std::int64_t max_step_ns;
    TimePoint last{};
    double backlog = 0.0;

    void advance(TimePoint t) {
      std::int64_t remaining = (t - last).count();
      std::int64_t step = max_step_ns;
      if (remaining / step > 4096) step = remaining / 4096;
      while (remaining > 0) {
        const std::int64_t dt = std::min(remaining, step);
        const double lambda = profile->bps(last + Duration(dt / 2));
        const double dq = (lambda - capacity) * (static_cast<double>(dt) / 1e9) / 8.0;
        backlog = std::clamp(backlog + dq, 0.0, buffer);
        last += Duration(dt);
        remaining -= dt;
      }
    }
  };

  Rng rng(0xd2a1);
  std::uint64_t skips = 0;
  std::uint64_t steps = 0;
  for (int trial = 0; trial < 48; ++trial) {
    const double capacity = std::exp(rng.uniform(std::log(1e6), std::log(10e9)));
    const double buffer = capacity * rng.uniform(0.005, 0.1) / 8.0;
    const TrafficProfilePtr profile =
        random_bounded_profile(rng, capacity * rng.uniform(0.05, 0.999));
    ASSERT_LT(profile->max_bps(), capacity * (1.0 - 1e-9));
    const Duration max_step = rng.uniform_int(0, 1) == 0 ? kSecond : kMinute;
    FluidQueue q({capacity, buffer, profile, max_step, 0.0});
    Reference ref{capacity, buffer, profile, max_step.count()};

    TimePoint t{};
    for (int op = 0; op < 120; ++op) {
      // Log-uniform gaps from 1 ns to past the 4096-step widening threshold.
      const double span = static_cast<double>(max_step.count()) * 5000.0;
      t += Duration(static_cast<std::int64_t>(std::exp(rng.uniform(0.0, std::log(span)))));
      ref.advance(t);
      switch (rng.uniform_int(0, 2)) {
        case 0: {
          const auto size = static_cast<std::uint32_t>(rng.uniform_int(28, 1500));
          const bool fits = ref.backlog + size <= buffer;
          if (fits) ref.backlog += size;
          EXPECT_EQ(q.enqueue(t, size), fits);
          break;
        }
        case 1:
          (void)q.queuing_delay(t);
          break;
        default:
          (void)q.backlog_bytes(t);
          break;
      }
      ASSERT_EQ(std::bit_cast<std::uint64_t>(q.backlog_bytes(t)),
                std::bit_cast<std::uint64_t>(ref.backlog))
          << "trial " << trial << " op " << op << ": " << q.backlog_bytes(t) << " vs "
          << ref.backlog;
      ASSERT_EQ(q.queuing_delay(t), seconds(ref.backlog * 8.0 / capacity))
          << "trial " << trial << " op " << op;
    }
    skips += q.stats().headroom_skips;
    steps += q.stats().integration_steps;
  }
  // Both the proof and the integration loop were exercised.
  EXPECT_GT(skips, 0u);
  EXPECT_GT(steps, 0u);
}

// ---------------------------------------------------------------------------
// Packet-level network semantics

struct TestNet {
  Network net;
  NodeId host;
  NodeId r1;
  NodeId r2;
  net::Ipv4Address host_addr{net::Ipv4Address(10, 0, 0, 2)};
  net::Ipv4Address r1_host_if{net::Ipv4Address(10, 0, 0, 1)};
  net::Ipv4Address r1_r2_if{net::Ipv4Address(10, 0, 1, 1)};
  net::Ipv4Address r2_r1_if{net::Ipv4Address(10, 0, 1, 2)};
  net::Ipv4Address r2_lo{net::Ipv4Address(10, 0, 2, 2)};

  TestNet() {
    auto& h = net.add_host("host");
    auto& a = net.add_router("r1", {});
    auto& b = net.add_router("r2", {});
    host = h.id();
    r1 = a.id();
    r2 = b.id();
    LinkConfig lan;
    lan.capacity_bps = 1e9;
    lan.prop_delay = milliseconds(0.1);
    net.connect(host, host_addr, r1, r1_host_if, lan, *net::Ipv4Prefix::parse("10.0.0.0/30"));
    LinkConfig core;
    core.capacity_bps = 1e9;
    core.prop_delay = milliseconds(1);
    net.connect(r1, r1_r2_if, r2, r2_r1_if, core, *net::Ipv4Prefix::parse("10.0.1.0/30"));
    // Static routes.
    a.add_route(*net::Ipv4Prefix::parse("10.0.2.0/24"), {1, r2_r1_if});
    a.add_route(*net::Ipv4Prefix::parse("10.0.0.0/30"), {0, {}});
    a.add_route(*net::Ipv4Prefix::parse("10.0.1.0/30"), {1, {}});
    b.add_route(*net::Ipv4Prefix::parse("10.0.0.0/16"), {0, r1_r2_if});
    b.add_route(*net::Ipv4Prefix::parse("10.0.1.0/30"), {0, {}});
    // r2 owns 10.0.2.1 via a stub interface (loopback-like): create a host
    // behind r2 owning it is simpler -- attach a stub host.
    auto& stub = net.add_host("stub");
    LinkConfig stub_link;
    net.connect(r2, r2_lo, stub.id(), net::Ipv4Address(10, 0, 2, 1), stub_link,
                *net::Ipv4Prefix::parse("10.0.2.0/30"));
    b.add_route(*net::Ipv4Prefix::parse("10.0.2.0/30"), {static_cast<int>(b.interfaces().size()) - 1, {}});
  }

  net::Packet probe(net::Ipv4Address dst, std::uint8_t ttl) {
    net::Packet p;
    p.src = host_addr;
    p.dst = dst;
    p.ttl = ttl;
    p.icmp_type = net::IcmpType::kEchoRequest;
    p.ident = 0x8001;
    p.seq = 1;
    p.sent_at = net.simulator().now();
    return p;
  }
};

/// vp -- a -- fabric -- b -- dst host, with a third member c on the
/// fabric: the member-to-member crossing of an IXP LAN.
struct FabricNet {
  Network net;
  NodeId host = kInvalidNode;
  Router* a = nullptr;

  FabricNet() {
    auto& h = net.add_host("vp");
    a = &net.add_router("a", {});
    auto& sw = net.add_switch("fabric");
    auto& b = net.add_router("b", {});
    auto& c = net.add_router("c", {});
    auto& dsth = net.add_host("dst");
    host = h.id();
    LinkConfig lan;
    const auto host_net = *net::Ipv4Prefix::parse("10.0.0.0/30");
    net.connect(h.id(), net::Ipv4Address(10, 0, 0, 2), a->id(), net::Ipv4Address(10, 0, 0, 1),
                lan, host_net);
    const auto peering = *net::Ipv4Prefix::parse("196.49.0.0/24");
    net.connect(a->id(), net::Ipv4Address(196, 49, 0, 1), sw.id(), {}, lan, peering);
    net.connect(b.id(), net::Ipv4Address(196, 49, 0, 2), sw.id(), {}, lan, peering);
    net.connect(c.id(), net::Ipv4Address(196, 49, 0, 3), sw.id(), {}, lan, peering);
    net.connect(b.id(), net::Ipv4Address(10, 0, 3, 1), dsth.id(), net::Ipv4Address(10, 0, 3, 2),
                lan, *net::Ipv4Prefix::parse("10.0.3.0/30"));
    a->add_route(host_net, {0, {}});
    a->add_route(peering, {1, {}});
    a->add_route(*net::Ipv4Prefix::parse("10.0.3.0/30"), {1, net::Ipv4Address(196, 49, 0, 2)});
    b.add_route(host_net, {0, net::Ipv4Address(196, 49, 0, 1)});
    b.add_route(*net::Ipv4Prefix::parse("10.0.3.0/30"), {1, {}});
    c.add_route(host_net, {0, net::Ipv4Address(196, 49, 0, 1)});
  }

  [[nodiscard]] net::Packet probe(net::Ipv4Address dst, std::uint8_t ttl) const {
    net::Packet p;
    p.src = net::Ipv4Address(10, 0, 0, 2);
    p.dst = dst;
    p.ttl = ttl;
    return p;
  }

  void zero_icmp_jitter() {
    for (std::size_t i = 0; i < net.node_count(); ++i) {
      Node& n = net.node(static_cast<NodeId>(i));
      if (n.is_router()) static_cast<Router&>(n).mutable_config().icmp_jitter = Duration(0);
    }
  }
};

TEST(NetworkFastPath, EchoReplyFromRouterAddress) {
  TestNet t;
  const auto res = t.net.probe(t.host, t.probe(t.r2_r1_if, 64));
  ASSERT_TRUE(res.answered);
  EXPECT_EQ(res.reply_type, net::IcmpType::kEchoReply);
  EXPECT_EQ(res.responder, t.r2_r1_if);
  EXPECT_GT(res.rtt.count(), 0);
}

TEST(NetworkFastPath, TtlExpiryProducesTimeExceededFromInboundInterface) {
  TestNet t;
  const auto res = t.net.probe(t.host, t.probe(net::Ipv4Address(10, 0, 2, 1), 1));
  ASSERT_TRUE(res.answered);
  EXPECT_EQ(res.reply_type, net::IcmpType::kTimeExceeded);
  EXPECT_EQ(res.responder, t.r1_host_if);  // r1's inbound interface
}

TEST(NetworkFastPath, SecondHopExpiry) {
  TestNet t;
  const auto res = t.net.probe(t.host, t.probe(net::Ipv4Address(10, 0, 2, 1), 2));
  ASSERT_TRUE(res.answered);
  EXPECT_EQ(res.reply_type, net::IcmpType::kTimeExceeded);
  EXPECT_EQ(res.responder, t.r2_r1_if);  // r2's inbound interface
}

TEST(NetworkFastPath, DestinationReachedBeforeTtlZero) {
  TestNet t;
  // TTL exactly equal to the hop count: destination ownership wins.
  const auto res = t.net.probe(t.host, t.probe(t.r2_r1_if, 2));
  ASSERT_TRUE(res.answered);
  EXPECT_EQ(res.reply_type, net::IcmpType::kEchoReply);
}

TEST(NetworkFastPath, HostEndToEnd) {
  TestNet t;
  const auto res = t.net.probe(t.host, t.probe(net::Ipv4Address(10, 0, 2, 1), 64));
  ASSERT_TRUE(res.answered);
  EXPECT_EQ(res.reply_type, net::IcmpType::kEchoReply);
  EXPECT_EQ(res.responder, net::Ipv4Address(10, 0, 2, 1));
}

TEST(NetworkEventMode, MatchesWalkExactly) {
  TestNet walked;
  TestNet packets;
  PacketEngine engine(packets.net);
  const net::Ipv4Address stub(10, 0, 2, 1);
  // Echo from a router, expiry at each router and echo from the stub host,
  // then with the record-route option (stamped both ways).  A host's echo
  // reply is a kIcmpReplyBytes message, as the walk books it, not a copy of
  // the request's size: 8 bytes more would cost 64 ns on each of the three
  // return links.
  for (const auto& [dst, ttl, rr] :
       {std::tuple{walked.r2_r1_if, 64, false}, std::tuple{stub, 1, false},
        std::tuple{stub, 2, false}, std::tuple{stub, 64, false},
        std::tuple{walked.r2_r1_if, 64, true}, std::tuple{stub, 2, true},
        std::tuple{stub, 64, true}}) {
    SCOPED_TRACE(::testing::Message() << dst.to_string() << " ttl " << ttl << " rr " << rr);
    auto a = walked.probe(dst, static_cast<std::uint8_t>(ttl));
    a.record_route = rr;
    const ProbeResult walk = walked.net.probe(walked.host, a);
    ASSERT_TRUE(walk.answered);
    EXPECT_EQ(mismatch(walk, engine.probe(packets.host, a)), "");
    EXPECT_EQ(walked.net.icmp_generated, packets.net.icmp_generated);
  }
}

TEST(Network, IcmpRateLimiting) {
  TestNet t;
  auto& r1 = dynamic_cast<Router&>(t.net.node(t.r1));
  r1.mutable_config().icmp_rate_limit_per_sec = 2.0;
  int answered = 0;
  for (int i = 0; i < 10; ++i) {
    const auto res = t.net.probe(t.host, t.probe(net::Ipv4Address(10, 0, 2, 1), 1));
    answered += res.answered ? 1 : 0;
  }
  // All ten probes fire at the same instant; the bucket only admits ~2.
  EXPECT_LE(answered, 3);
  EXPECT_GE(answered, 1);
}

TEST(Network, DownLinkDropsTraffic) {
  TestNet t;
  t.net.link(1).set_up(false);  // core link
  const auto res = t.net.probe(t.host, t.probe(t.r2_r1_if, 64));
  EXPECT_FALSE(res.answered);
  EXPECT_TRUE(res.forward_dropped);
}

TEST(Network, QueueDelayVisibleInRtt) {
  TestNet t;
  // Congest the r1->r2 direction (mild overload; probes may drop with
  // small probability, so take the first answered one).
  auto& link = t.net.link(1);
  link.queue_from(t.r1).set_cross_traffic(TimePoint{}, std::make_shared<ConstantProfile>(1.05e9));
  t.net.simulator().advance_to(TimePoint(kMinute * 5));  // let the queue fill
  Duration rtt{};
  bool answered = false;
  for (int i = 0; i < 10 && !answered; ++i) {
    const auto res = t.net.probe(t.host, t.probe(t.r2_r1_if, 64));
    answered = res.answered;
    rtt = res.rtt;
  }
  ASSERT_TRUE(answered);
  // Full 1 MB buffer at 1 Gb/s = 8 ms of extra delay.
  EXPECT_GT(to_ms(rtt), 8.0);
}

TEST(Network, L2SwitchInvisibleToTraceroute) {
  FabricNet f;
  // TTL 2 reaches b: decremented once at a, the switch does not count.
  const auto res = f.net.probe(f.host, f.probe(net::Ipv4Address(196, 49, 0, 2), 2));
  ASSERT_TRUE(res.answered);
  // Two IP hops: the switch does not decrement TTL and never answers.
  EXPECT_EQ(res.reply_type, net::IcmpType::kEchoReply);
  EXPECT_EQ(res.responder, net::Ipv4Address(196, 49, 0, 2));
}

TEST(Network, ExtraDelayIsDirectionSpecific) {
  TestNet t;
  auto& core = t.net.link(1);
  // Delay only the r1 -> r2 direction by 20 ms.
  core.set_extra_delay_from(t.r1, milliseconds(20));
  const auto res = t.net.probe(t.host, t.probe(t.r2_r1_if, 64));
  ASSERT_TRUE(res.answered);
  EXPECT_GT(to_ms(res.rtt), 20.0);
  // Probes that never cross r1 -> r2 stay fast: hop to r1 itself.
  const auto near = t.net.probe(t.host, t.probe(net::Ipv4Address(10, 0, 2, 1), 1));
  ASSERT_TRUE(near.answered);
  EXPECT_LT(to_ms(near.rtt), 5.0);
  // Clearing restores the baseline.
  core.set_extra_delay_from(t.r1, Duration(0));
  const auto after = t.net.probe(t.host, t.probe(t.r2_r1_if, 64));
  ASSERT_TRUE(after.answered);
  EXPECT_LT(to_ms(after.rtt), 6.0);
}

TEST(Network, RouterIpIdCounterShared) {
  TestNet t;
  // Two consecutive probes to r2's interface must return closely spaced,
  // increasing IP-IDs from the router-wide counter.
  const auto p1 = t.net.probe(t.host, t.probe(t.r2_r1_if, 64));
  const auto p2 = t.net.probe(t.host, t.probe(t.r2_r1_if, 64));
  ASSERT_TRUE(p1.answered);
  ASSERT_TRUE(p2.answered);
  const std::uint16_t gap = static_cast<std::uint16_t>(p2.ip_id - p1.ip_id);
  EXPECT_GE(gap, 1u);
  EXPECT_LE(gap, 4u);
}

TEST(Network, RecordRouteStampsForwardAndReverse) {
  TestNet t;
  auto pkt = t.probe(net::Ipv4Address(10, 0, 2, 1), 64);
  pkt.record_route = true;
  const auto res = t.net.probe(t.host, pkt);
  ASSERT_TRUE(res.answered);
  // Forward: r1 egress (10.0.1.1), r2 egress (10.0.2.x); reverse: r2 egress
  // toward r1 (10.0.1.2), r1 egress toward host (10.0.0.1).
  ASSERT_GE(res.record_route.size(), 4u);
  EXPECT_EQ(res.record_route[0], t.r1_r2_if);
}

TEST(Network, RecordRouteReverseStampsExactAddresses) {
  // Pins the reverse-walk RR branch hop by hop: the reply is stamped with
  // each router's egress interface on the way back, in order.
  TestNet t;
  auto pkt = t.probe(net::Ipv4Address(10, 0, 2, 1), 64);
  pkt.record_route = true;
  const auto res = t.net.probe(t.host, pkt);
  ASSERT_TRUE(res.answered);
  ASSERT_EQ(res.record_route.size(), 4u);
  EXPECT_EQ(res.record_route[0], t.r1_r2_if);    // fwd: r1 toward r2
  EXPECT_EQ(res.record_route[1], t.r2_lo);       // fwd: r2 toward the stub
  EXPECT_EQ(res.record_route[2], t.r2_r1_if);    // rev: r2 back toward r1
  EXPECT_EQ(res.record_route[3], t.r1_host_if);  // rev: r1 back toward host
}

TEST(Network, EchoReplyRateLimited) {
  // The reverse-walk admission branch for *echo replies* (destination-owned
  // address on a router) shares the ICMP token bucket with TIME_EXCEEDED.
  TestNet t;
  auto& r2 = dynamic_cast<Router&>(t.net.node(t.r2));
  r2.mutable_config().icmp_rate_limit_per_sec = 2.0;
  int answered = 0;
  for (int i = 0; i < 10; ++i) {
    answered += t.net.probe(t.host, t.probe(t.r2_r1_if, 64)).answered ? 1 : 0;
  }
  EXPECT_LE(answered, 3);
  EXPECT_GE(answered, 1);
}

TEST(NetworkFastPath, AnalyticTailDropWhenBufferFull) {
  // A full-but-not-overflowing buffer must tail-drop the probe itself: the
  // enqueue failure counts as a loss instead of being silently ignored.
  TestNet t;
  auto& q = t.net.link(0).queue_from(t.host);
  ASSERT_TRUE(q.enqueue(TimePoint{}, 1'000'000));  // fill to the 1 MB buffer
  const auto before = t.net.packets_dropped;
  const auto res = t.net.probe(t.host, t.probe(t.r2_r1_if, 64));
  EXPECT_FALSE(res.answered);
  EXPECT_TRUE(res.forward_dropped);
  EXPECT_EQ(t.net.packets_dropped, before + 1);
}

TEST(NetworkEventMode, TailDropCountedWhenBufferFull) {
  // The oracle's transmit honours the enqueue verdict the same way the
  // walk does: no delivery, and the drop shows up in the counters.
  TestNet t;
  auto& q = t.net.link(0).queue_from(t.host);
  ASSERT_TRUE(q.enqueue(TimePoint{}, 1'000'000));
  PacketEngine engine(t.net);
  bool got = false;
  engine.set_rx_callback(t.host, [&](const net::Packet&, TimePoint) { got = true; });
  const auto before = t.net.packets_dropped;
  engine.send(t.host, t.probe(t.r1_host_if, 64));
  engine.loop().run();
  EXPECT_FALSE(got);
  EXPECT_EQ(t.net.packets_dropped, before + 1);
}

TEST(NetworkFastPath, ProbeBytesJoinBacklog) {
  // Probes book their bytes into each crossed queue; both directions of the
  // first link see the traffic.
  TestNet t;
  const auto res = t.net.probe(t.host, t.probe(t.r2_r1_if, 64));
  ASSERT_TRUE(res.answered);
  const TimePoint now = t.net.simulator().now();
  EXPECT_DOUBLE_EQ(t.net.link(0).queue_from(t.host).backlog_bytes(now), 64.0);
  EXPECT_DOUBLE_EQ(t.net.link(0).queue_from(t.r1).backlog_bytes(now), 56.0);  // reply size
}

TEST(Network, TtlExpiryAcrossFabricReportsPeerAddress) {
  // TTL expiry at a router reached *through* the IXP switch must be reported
  // from that router's fabric-facing interface -- the address a real
  // traceroute across an IXP LAN records -- never 0.0.0.0.
  FabricNet f;
  // TTL 2 expires at b: decremented at a, crosses the fabric, dies.
  const auto res = f.net.probe(f.host, f.probe(net::Ipv4Address(10, 0, 3, 2), 2));
  ASSERT_TRUE(res.answered);
  EXPECT_EQ(res.reply_type, net::IcmpType::kTimeExceeded);
  EXPECT_EQ(res.responder, net::Ipv4Address(196, 49, 0, 2));

  // Control: one more TTL reaches the destination host.
  const auto through = f.net.probe(f.host, f.probe(net::Ipv4Address(10, 0, 3, 2), 3));
  ASSERT_TRUE(through.answered);
  EXPECT_EQ(through.reply_type, net::IcmpType::kEchoReply);
}

TEST(NetworkEventMode, FabricCrossingMatchesWalk) {
  // The fabric adds no latency of its own, in either transport: the walk
  // never charged one, and the goldens are pinned to it.  With the jitter
  // zeroed, expiry at b and b's echo cost the same: three default links
  // each way (6 x 0.2 ms, plus 2,880 ns to clock 64 bytes out and 56
  // back), b's 0.3 ms ICMP generation and a's 20 us forwarding each way:
  // 1,542,880 ns.
  FabricNet walked;
  FabricNet packets;
  walked.zero_icmp_jitter();
  packets.zero_icmp_jitter();
  PacketEngine engine(packets.net);
  for (const auto& [dst, ttl] : {std::pair{net::Ipv4Address(10, 0, 3, 2), 2},
                                 std::pair{net::Ipv4Address(196, 49, 0, 2), 64}}) {
    SCOPED_TRACE(::testing::Message() << dst.to_string() << " ttl " << ttl);
    const auto pkt = walked.probe(dst, static_cast<std::uint8_t>(ttl));
    const ProbeResult walk = walked.net.probe(walked.host, pkt);
    ASSERT_TRUE(walk.answered);
    EXPECT_EQ(walk.responder, net::Ipv4Address(196, 49, 0, 2));
    EXPECT_EQ(walk.rtt.count(), 1'542'880);
    EXPECT_EQ(mismatch(walk, engine.probe(packets.host, pkt)), "");
    // Let the probe's own bytes drain before the next one.
    for (FabricNet* f : {&walked, &packets}) f->net.simulator().advance_to(TimePoint(kSecond));
  }
}

// Builds host -- rs -- target, with the target routing its replies back over
// a chain of `n` extra routers (asymmetric return path).
struct AsymmetricNet {
  Network net;
  NodeId host;
  net::Ipv4Address target_addr{net::Ipv4Address(10, 1, 0, 2)};
  std::vector<Router*> chain;  ///< c1 .. cn

  explicit AsymmetricNet(int n) {
    auto& h = net.add_host("vp");
    auto& rs = net.add_router("rs", {});
    auto& target = net.add_router("target", {});
    host = h.id();
    LinkConfig lan;
    const auto host_net = *net::Ipv4Prefix::parse("10.0.0.0/30");
    net.connect(host, net::Ipv4Address(10, 0, 0, 2), rs.id(), net::Ipv4Address(10, 0, 0, 1), lan,
                host_net);
    net.connect(rs.id(), net::Ipv4Address(10, 1, 0, 1), target.id(), target_addr, lan,
                *net::Ipv4Prefix::parse("10.1.0.0/30"));
    rs.add_route(host_net, {0, {}});
    rs.add_route(*net::Ipv4Prefix::parse("10.1.0.0/30"), {1, {}});
    // Return chain: target -> c1 -> ... -> cn -> rs.
    Router* prev = &target;
    for (int i = 1; i <= n; ++i) {
      std::string cname = "c";
      cname += std::to_string(i);
      auto& c = net.add_router(cname, {});
      chain.push_back(&c);
      net.connect(prev->id(), net::Ipv4Address(10, 2, static_cast<std::uint8_t>(i), 1), c.id(),
                  net::Ipv4Address(10, 2, static_cast<std::uint8_t>(i), 2), lan,
                  *net::Ipv4Prefix::parse("10.2." + std::to_string(i) + ".0/30"));
      prev->add_route(host_net, {static_cast<int>(prev->interfaces().size()) - 1, {}});
      prev = &c;
    }
    net.connect(prev->id(), net::Ipv4Address(10, 3, 0, 1), rs.id(), net::Ipv4Address(10, 3, 0, 2),
                lan, *net::Ipv4Prefix::parse("10.3.0.0/30"));
    prev->add_route(host_net, {static_cast<int>(prev->interfaces().size()) - 1, {}});
  }

  [[nodiscard]] net::Packet packet(bool rr) const {
    net::Packet p;
    p.src = net::Ipv4Address(10, 0, 0, 2);
    p.dst = target_addr;
    p.record_route = rr;
    return p;
  }
  ProbeResult ping() { return net.probe(host, packet(false)); }
};

TEST(NetworkEventMode, RecordRouteReplyPassesFilteringRouter) {
  // The probe reaches the target straight through rs; the reply returns
  // over c1 and c2, and c1 filters record-route.  Filtering drops optioned
  // probes, never the replies they draw: both transports answer, stamped
  // over the return chain.
  AsymmetricNet walked(2);
  AsymmetricNet packets(2);
  for (AsymmetricNet* n : {&walked, &packets}) n->chain[0]->mutable_config().rr_filtered = true;
  PacketEngine engine(packets.net);
  const net::Packet pkt = walked.packet(/*rr=*/true);
  const ProbeResult walk = walked.net.probe(walked.host, pkt);
  ASSERT_TRUE(walk.answered);
  // rs toward the target; then target, c1, c2 and rs on the way back.
  EXPECT_EQ(walk.record_route.size(), 5u);
  EXPECT_EQ(mismatch(walk, engine.probe(packets.host, pkt)), "");
}

// ---------------------------------------------------------------------------
// Route-memo invalidation (regression for the memoized FIB lookup: a route
// change mid-campaign -- e.g. the reroute fault in sim/faults.h -- must never
// forward on a stale cached next hop).

TEST(Router, RouteMemoInvalidatedByRouteChange) {
  Network net;
  auto& r = net.add_router("r", {});
  const auto dst = net::Ipv4Address(10, 9, 0, 1);
  r.add_route(*net::Ipv4Prefix::parse("10.9.0.0/16"), {1, net::Ipv4Address(10, 0, 0, 1)});
  const FibEntry* e1 = r.route_lookup(dst);
  ASSERT_NE(e1, nullptr);
  EXPECT_EQ(e1->ifindex, 1);
  // Warm both the per-destination cache and the one-entry memo.
  ASSERT_EQ(r.route_lookup(dst), e1);
  // A more-specific route must take effect on the very next lookup.
  r.add_route(*net::Ipv4Prefix::parse("10.9.0.1/32"), {2, net::Ipv4Address(10, 0, 1, 1)});
  const FibEntry* e2 = r.route_lookup(dst);
  ASSERT_NE(e2, nullptr);
  EXPECT_EQ(e2->ifindex, 2);
  EXPECT_EQ(r.route_lookup(dst), e2);
  // clear_fib drops the routes *and* the memo.
  r.clear_fib();
  EXPECT_EQ(r.route_lookup(dst), nullptr);
}

TEST(Network, ProbeFollowsRouteChangeNotStaleMemo) {
  // End-to-end variant: after probes memoized the path through b, installing
  // a more-specific detour through c must redirect the very next probe.
  FabricNet f;
  const auto p = f.probe(net::Ipv4Address(10, 0, 3, 2), 2);
  for (int i = 0; i < 3; ++i) {  // warm a's lookup caches toward dst
    const auto via_b = f.net.probe(f.host, p);
    ASSERT_TRUE(via_b.answered);
    EXPECT_EQ(via_b.responder, net::Ipv4Address(196, 49, 0, 2));
  }
  f.a->add_route(*net::Ipv4Prefix::parse("10.0.3.2/32"), {1, net::Ipv4Address(196, 49, 0, 3)});
  const auto via_c = f.net.probe(f.host, p);
  ASSERT_TRUE(via_c.answered);
  EXPECT_EQ(via_c.responder, net::Ipv4Address(196, 49, 0, 3));
}

TEST(Network, ReverseTtlExpiryOnLongAsymmetricPath) {
  // Replies start at TTL 64.  A 40-router return chain survives; a 70-router
  // one expires the reply in flight: the probe is lost on the *reverse*
  // path, which only a walk budget above 64 can even observe.
  AsymmetricNet ok(40);
  const auto good = ok.ping();
  ASSERT_TRUE(good.answered);
  EXPECT_EQ(good.reply_type, net::IcmpType::kEchoReply);

  AsymmetricNet far(70);
  const auto lost = far.ping();
  EXPECT_FALSE(lost.answered);
  EXPECT_FALSE(lost.forward_dropped);
  EXPECT_TRUE(lost.reverse_dropped);
}

// ---------------------------------------------------------------------------
// Walk plans.  A plan held across probes (as the TSLP driver holds one per
// target) must behave exactly like one resolved for each probe, whatever
// happens to routes, L2 tables, link state, ICMP knobs and delays between
// probes.  Two identical fabrics receive the same probes and the same
// mutations; one re-resolves only when plan_current() says so, the other
// resolves every probe.

struct PlanFabric {
  static constexpr int kMembers = 4;
  Network net;
  NodeId host = kInvalidNode;
  Router* border = nullptr;
  L2Switch* fabric = nullptr;
  std::vector<Router*> members;
  std::vector<int> fabric_ports;  ///< switch ifindex toward each member
  std::vector<int> member_links;  ///< member <-> fabric link ids
  std::vector<int> stub_links;    ///< member <-> stub link ids
  std::vector<net::Ipv4Address> fab_addrs, far_addrs, stub_addrs;
  std::vector<net::Ipv4Prefix> far_subnets;
  const net::Ipv4Address vp_addr{10, 0, 0, 2};
  const net::Ipv4Prefix lan_subnet = *net::Ipv4Prefix::parse("10.0.0.0/30");
  const net::Ipv4Prefix peering = *net::Ipv4Prefix::parse("196.60.0.0/24");
  const net::Ipv4Address border_fab{196, 60, 0, 1};

  explicit PlanFabric(std::uint64_t seed) {
    net.seed(seed);
    auto& h = net.add_host("vp");
    host = h.id();
    border = &net.add_router("border", {});
    fabric = &net.add_switch("fabric");
    LinkConfig lan;
    lan.prop_delay = milliseconds(0.1);
    lan.base_loss = 0.003;
    net.connect(host, vp_addr, border->id(), net::Ipv4Address(10, 0, 0, 1), lan, lan_subnet);
    net.connect(border->id(), border_fab, fabric->id(), {}, lan, peering);
    for (int m = 0; m < kMembers; ++m) {
      RouterConfig rc;
      rc.icmp_rate_limit_per_sec = m == 1 ? 40.0 : 0.0;
      auto& r = net.add_router("member" + std::to_string(m), rc);
      members.push_back(&r);
      fab_addrs.emplace_back(196, 60, 0, static_cast<std::uint8_t>(10 + m));
      LinkConfig fab = lan;
      if (m == 2) fab.cross_ab = std::make_shared<ConstantProfile>(0.97e9);  // a busy port
      member_links.push_back(net.connect(r.id(), fab_addrs.back(), fabric->id(), {}, fab, peering));
      fabric_ports.push_back(net.link(member_links.back()).ifindex_at(fabric->id()));
      far_subnets.push_back(*net::Ipv4Prefix::parse("10." + std::to_string(m + 1) + ".0.0/30"));
      far_addrs.emplace_back(10, static_cast<std::uint8_t>(m + 1), 0, 1);
      stub_addrs.emplace_back(10, static_cast<std::uint8_t>(m + 1), 0, 2);
      auto& stub = net.add_host("stub" + std::to_string(m));
      stub_links.push_back(
          net.connect(r.id(), far_addrs.back(), stub.id(), stub_addrs.back(), lan, far_subnets.back()));
    }
    install_border_routes();
    for (int m = 0; m < kMembers; ++m) install_member_routes(m);
  }

  void install_border_routes() {
    border->add_route(lan_subnet, {0, {}});
    border->add_route(peering, {1, {}});
    for (int m = 0; m < kMembers; ++m) border->add_route(far_subnets[m], {1, fab_addrs[m]});
  }
  void install_member_routes(int m) {
    Router& r = *members[m];
    r.add_route(peering, {0, {}});
    r.add_route(far_subnets[m], {1, {}});
    r.add_route(lan_subnet, {0, border_fab});
    // Every member reaches the other members' stubs across the fabric, so a
    // detour through it lengthens the path by one router.
    for (int o = 0; o < kMembers; ++o) {
      if (o != m) r.add_route(far_subnets[o], {0, fab_addrs[o]});
    }
  }

  net::Packet probe(net::Ipv4Address dst, std::uint8_t ttl, bool rr) {
    net::Packet p;
    p.src = vp_addr;
    p.dst = dst;
    p.ttl = ttl;
    p.record_route = rr;
    p.icmp_type = net::IcmpType::kEchoRequest;
    p.sent_at = net.simulator().now();
    return p;
  }
};

/// One change to a fabric, drawn once and applied to both twins.
struct Mutation {
  int kind = 0;
  int m = 0;           ///< member it touches
  int o = 0;           ///< another member (the detour's next hop)
  bool coin = false;   ///< which link / which delay direction
  double a_ms = 0.0;   ///< forwarding latency
  double b_ms = 0.0;   ///< extra one-way delay
};

Mutation draw_mutation(Rng& script) {
  Mutation mu;
  mu.kind = static_cast<int>(script.uniform_int(0, 12));
  mu.m = static_cast<int>(script.uniform_int(0, PlanFabric::kMembers - 1));
  mu.o = (mu.m + 1 + static_cast<int>(script.uniform_int(0, PlanFabric::kMembers - 2))) %
         PlanFabric::kMembers;
  mu.coin = script.chance(0.5);
  mu.a_ms = script.uniform(0.0, 5.0);
  mu.b_ms = script.uniform(0.05, 20.0);
  return mu;
}

void apply(PlanFabric& f, const Mutation& mu) {
  Router& member = *f.members[mu.m];
  switch (mu.kind) {
    case 0:  // detour: the border reaches stub m through member o
      f.border->add_route(*net::Ipv4Prefix::parse(f.stub_addrs[mu.m].to_string() + "/32"),
                          {1, f.fab_addrs[mu.o]});
      break;
    case 1:  // the border's FIB is flushed and rebuilt (drops the detours)
      f.border->clear_fib();
      f.install_border_routes();
      break;
    case 2:  // a member's FIB is flushed; rebuilt by kind 3
      member.clear_fib();
      break;
    case 3:
      member.clear_fib();
      f.install_member_routes(mu.m);
      break;
    case 4:  // the fabric forgets a member's port ...
      f.fabric->forget(f.fab_addrs[mu.m]);
      break;
    case 5:  // ... and learns it again
      f.fabric->learn(f.fab_addrs[mu.m], f.fabric_ports[mu.m], member.id());
      break;
    case 6: {  // link down/up
      DuplexLink& l = f.net.link(mu.coin ? f.member_links[mu.m] : f.stub_links[mu.m]);
      l.set_up(!l.is_up());
      break;
    }
    case 7:  // ICMP generation switched off/on
      member.mutable_config().icmp_disabled = !member.config().icmp_disabled;
      break;
    case 8:  // record-route filtering switched on/off
      member.mutable_config().rr_filtered = !member.config().rr_filtered;
      break;
    case 9: {  // a reroute adds one-way delay to one direction of the uplink
      DuplexLink& l = f.net.link(f.member_links[mu.m]);
      l.set_extra_delay_from(mu.coin ? member.id() : l.other(member.id()),
                             milliseconds(mu.b_ms));
      break;
    }
    case 10:  // forwarding latency changes (read live, never re-resolved)
      member.mutable_config().forward_delay = milliseconds(mu.a_ms / 25.0);
      break;
    default:  // everything repaired, so breakage does not pile up
      for (int i = 0; i < PlanFabric::kMembers; ++i) {
        f.fabric->learn(f.fab_addrs[i], f.fabric_ports[i], f.members[i]->id());
        f.net.link(f.member_links[i]).set_up(true);
        f.net.link(f.stub_links[i]).set_up(true);
        f.members[i]->mutable_config().icmp_disabled = false;
        f.members[i]->mutable_config().rr_filtered = false;
        f.members[i]->clear_fib();
        f.install_member_routes(i);
      }
      break;
  }
}

TEST(WalkPlan, CachedPlanMatchesFreshResolution) {
  PlanFabric held(91);
  PlanFabric fresh(91);
  Rng script(5);
  std::map<std::tuple<std::uint32_t, int, bool>, WalkPlan> plans;  // held's cache
  std::uint64_t mutations = 0, probes = 0, echoes = 0, expiries = 0, fwd_drops = 0,
                rev_drops = 0;
  for (int step = 0; step < 20000; ++step) {
    if (script.chance(0.01)) {
      const Mutation mu = draw_mutation(script);
      apply(held, mu);
      apply(fresh, mu);
      ++mutations;
      continue;
    }
    const int m = static_cast<int>(script.uniform_int(0, PlanFabric::kMembers - 1));
    const int which = static_cast<int>(script.uniform_int(0, 2));
    const auto ttl = static_cast<std::uint8_t>(script.uniform_int(1, 6));
    const bool rr = script.chance(0.25);
    const Duration gap = milliseconds(script.uniform(0.01, 30.0));
    const net::Ipv4Address dst =
        which == 0 ? held.fab_addrs[m] : which == 1 ? held.far_addrs[m] : held.stub_addrs[m];

    const net::Packet pkt = held.probe(dst, ttl, rr);
    WalkPlan& plan = plans[{dst.value(), ttl, rr}];
    if (!held.net.plan_current(plan, held.host, pkt)) held.net.resolve_plan(held.host, pkt, plan);
    const ProbeResult a = held.net.probe(plan, pkt);
    WalkPlan once;
    fresh.net.resolve_plan(fresh.host, pkt, once);
    const ProbeResult b = fresh.net.probe(once, pkt);
    ++probes;
    SCOPED_TRACE(::testing::Message() << "step " << step << " dst " << dst.to_string()
                                      << " ttl " << int(ttl) << " rr " << rr);
    // Link state is read at execution, never baked into a plan: an answered
    // probe crossed only links that are up now.
    for (const auto* leg : {&once.forward, &once.reverse}) {
      for (const PlanCrossing& c : *leg) ASSERT_TRUE(!b.answered || c.link->is_up());
    }
    echoes += a.answered && a.reply_type == net::IcmpType::kEchoReply ? 1 : 0;
    expiries += a.answered && a.reply_type == net::IcmpType::kTimeExceeded ? 1 : 0;
    fwd_drops += a.forward_dropped ? 1 : 0;
    rev_drops += a.reverse_dropped ? 1 : 0;
    ASSERT_EQ(a.answered, b.answered);
    ASSERT_EQ(a.responder, b.responder);
    ASSERT_EQ(a.responder_node, b.responder_node);
    ASSERT_EQ(a.reply_type, b.reply_type);
    ASSERT_EQ(a.rtt.count(), b.rtt.count());
    ASSERT_EQ(a.ip_id, b.ip_id);
    ASSERT_EQ(a.record_route, b.record_route);
    ASSERT_EQ(a.forward_dropped, b.forward_dropped);
    ASSERT_EQ(a.reverse_dropped, b.reverse_dropped);
    ASSERT_EQ(held.net.hops_walked, fresh.net.hops_walked);
    ASSERT_EQ(held.net.packets_dropped, fresh.net.packets_dropped);
    ASSERT_EQ(held.net.icmp_generated, fresh.net.icmp_generated);
    const FluidQueue::Stats qa = held.net.queue_stats(), qb = fresh.net.queue_stats();
    ASSERT_EQ(qa.headroom_skips, qb.headroom_skips);
    ASSERT_EQ(qa.integration_steps, qb.integration_steps);
    ASSERT_EQ(qa.tail_drops, qb.tail_drops);
    Rng next_a = held.net.rng(), next_b = fresh.net.rng();
    ASSERT_EQ(next_a.next(), next_b.next());

    held.net.simulator().advance_to(held.net.simulator().now() + gap);
    fresh.net.simulator().advance_to(fresh.net.simulator().now() + gap);
  }
  // The run exercised reuse, re-resolution, and every outcome.
  EXPECT_GT(mutations, 150u);
  EXPECT_EQ(fresh.net.plans_resolved, probes);
  EXPECT_LT(held.net.plans_resolved * 2, probes);
  EXPECT_GT(held.net.plans_resolved, plans.size() + mutations);
  EXPECT_GT(echoes, 0u);
  EXPECT_GT(expiries, 0u);
  EXPECT_GT(fwd_drops, 0u);
  EXPECT_GT(rev_drops, 0u);
}

TEST(PacketOracle, MatchesWalkThroughMutations) {
  // The same scripted fabric life as above, walked on one twin and moved
  // as scheduled packets on the other: lossy links, a rate-limited member,
  // a busy port, detours, flushed FIBs, forgotten L2 ports, links down,
  // silent and RR-filtering routers, delay steps and forwarding-latency
  // changes.  Every probe agrees in every field, and both sides leave
  // their random streams in the same state.
  PlanFabric walked(17);
  PlanFabric packets(17);
  PacketEngine engine(packets.net);
  Rng script(23);
  std::uint64_t answered = 0, lost = 0;
  for (int step = 0; step < 6000; ++step) {
    if (script.chance(0.01)) {
      const Mutation mu = draw_mutation(script);
      apply(walked, mu);
      apply(packets, mu);
      continue;
    }
    const int m = static_cast<int>(script.uniform_int(0, PlanFabric::kMembers - 1));
    const int which = static_cast<int>(script.uniform_int(0, 2));
    const auto ttl = static_cast<std::uint8_t>(script.uniform_int(1, 6));
    const bool rr = script.chance(0.25);
    const Duration gap = milliseconds(script.uniform(0.01, 30.0));
    const net::Ipv4Address dst =
        which == 0 ? walked.fab_addrs[m] : which == 1 ? walked.far_addrs[m] : walked.stub_addrs[m];
    SCOPED_TRACE(::testing::Message() << "step " << step << " dst " << dst.to_string()
                                      << " ttl " << int(ttl) << " rr " << rr);
    const net::Packet pkt = walked.probe(dst, ttl, rr);
    const ProbeResult walk = walked.net.probe(walked.host, pkt);
    EXPECT_EQ(mismatch(walk, engine.probe(packets.host, pkt)), "");
    if (::testing::Test::HasFailure()) return;
    Rng next_a = walked.net.rng(), next_b = packets.net.rng();
    ASSERT_EQ(next_a.next(), next_b.next());
    ASSERT_EQ(walked.net.packets_dropped, packets.net.packets_dropped);
    ASSERT_EQ(walked.net.hops_walked, packets.net.hops_walked);
    ASSERT_EQ(walked.net.icmp_generated, packets.net.icmp_generated);
    (walk.answered ? answered : lost) += 1;
    walked.net.simulator().advance_to(walked.net.simulator().now() + gap);
    packets.net.simulator().advance_to(packets.net.simulator().now() + gap);
  }
  EXPECT_GT(answered, 3000u);
  EXPECT_GT(lost, 300u);
}

}  // namespace
}  // namespace ixp::sim
