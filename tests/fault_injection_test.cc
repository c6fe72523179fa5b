/**
 * @file
 * Fault-injection framework tests: injector determinism, the
 * lost-notification ledger, the watchdog sweep, graceful degradation to
 * software polling, and full seeded fault campaigns (with a negative
 * control demonstrating that recovery is what keeps queues unstuck).
 */

#include <gtest/gtest.h>

#include <vector>

#include "dp/sdp_system.hh"
#include "fault/fallback_set.hh"
#include "fault/fault_injector.hh"
#include "fault/watchdog.hh"
#include "queueing/task_queue.hh"
#include "sim/event_queue.hh"

namespace hyperplane {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;

// ---------------------------------------------------------------------
// FaultInjector units
// ---------------------------------------------------------------------

TEST(FaultInjector, SameSeedSamePlanIsBitIdentical)
{
    FaultPlan plan;
    plan.dropSnoopRate = 0.2;
    plan.delaySnoopRate = 0.1;
    FaultInjector a(plan, 42), b(plan, 42);
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(a.rollDropSnoop(), b.rollDropSnoop());
        const auto da = a.rollDelaySnoop();
        const auto db = b.rollDelaySnoop();
        EXPECT_EQ(da.has_value(), db.has_value());
        if (da && db) {
            EXPECT_EQ(*da, *db);
        }
    }
    EXPECT_EQ(a.snoopsDropped.value(), b.snoopsDropped.value());
    EXPECT_GT(a.snoopsDropped.value(), 0u);
}

TEST(FaultInjector, ConcernsDrawFromIndependentStreams)
{
    // Enabling a second fault dimension must not perturb the first
    // one's draw sequence (each concern owns an Rng stream, and
    // zero-rate rolls consume no draws).
    FaultPlan dropOnly;
    dropOnly.dropSnoopRate = 0.3;
    FaultPlan dropPlusSuppress = dropOnly;
    dropPlusSuppress.suppressWakeRate = 0.7;

    FaultInjector a(dropOnly, 7), b(dropPlusSuppress, 7);
    for (int i = 0; i < 300; ++i) {
        // Interleave suppress rolls on b only.
        b.rollSuppressWake();
        EXPECT_EQ(a.rollDropSnoop(), b.rollDropSnoop()) << "roll " << i;
        a.rollSuppressWake(); // rate 0: must consume nothing
    }
    EXPECT_EQ(a.wakesSuppressed.value(), 0u);
    EXPECT_GT(b.wakesSuppressed.value(), 0u);
}

TEST(FaultInjector, LedgerBalancesAcrossEpisodes)
{
    FaultInjector inj(FaultPlan{}, 1);
    EXPECT_TRUE(inj.recordLost(3));
    EXPECT_FALSE(inj.recordLost(3)); // same open episode, not a new one
    EXPECT_TRUE(inj.recordLost(4));
    EXPECT_EQ(inj.lostInjected.value(), 2u);
    EXPECT_EQ(inj.outstandingLost(), 2u);
    EXPECT_TRUE(inj.isLost(3));

    EXPECT_TRUE(inj.recordWatchdogRecovery(3));
    EXPECT_FALSE(inj.recordWatchdogRecovery(3)); // already recovered
    EXPECT_TRUE(inj.recordSelfRecovery(4));
    EXPECT_FALSE(inj.recordSelfRecovery(9)); // never lost

    EXPECT_EQ(inj.outstandingLost(), 0u);
    EXPECT_EQ(inj.lostInjected.value(),
              inj.watchdogRecovered.value() + inj.selfRecovered.value() +
                  inj.outstandingLost());

    // A queue can be lost again after recovery: a fresh episode.
    EXPECT_TRUE(inj.recordLost(3));
    EXPECT_EQ(inj.lostInjected.value(), 3u);
}

TEST(FallbackSet, MembershipAndCountersTrack)
{
    fault::FallbackSet fb;
    EXPECT_TRUE(fb.empty());
    EXPECT_TRUE(fb.add(5));
    EXPECT_FALSE(fb.add(5)); // already demoted
    EXPECT_TRUE(fb.add(2));
    EXPECT_TRUE(fb.contains(5));
    EXPECT_EQ(fb.size(), 2u);
    // Insertion (demotion) order drives deterministic sweeps.
    EXPECT_EQ(fb.queues(), (std::vector<QueueId>{5, 2}));
    EXPECT_TRUE(fb.remove(5));
    EXPECT_FALSE(fb.remove(5));
    EXPECT_EQ(fb.demotions.value(), 2u);
    EXPECT_EQ(fb.promotions.value(), 1u);
}

// ---------------------------------------------------------------------
// Watchdog sweep against bare components
// ---------------------------------------------------------------------

TEST(Watchdog, SweepRescuesStrandedQueue)
{
    EventQueue eq;
    queueing::QueueSet queues(4);
    core::QwaitConfig qcfg;
    qcfg.ready.capacity = 4;
    core::QwaitUnit unit(qcfg);
    for (QueueId q = 0; q < 4; ++q) {
        ASSERT_EQ(unit.qwaitAdd(q, queues[q].doorbellAddr()),
                  core::AddResult::Ok);
    }

    int wakes = 0;
    fault::WatchdogCluster wc;
    wc.unit = &unit;
    for (QueueId q = 0; q < 4; ++q)
        wc.qids.push_back(q);
    wc.deliverWake = [&wakes] {
        ++wakes;
        return true;
    };
    fault::RecoveryConfig rcfg;
    rcfg.watchdog = true;
    rcfg.watchdogPeriodUs = 10.0;
    fault::Watchdog dog(eq, queues, {wc}, nullptr, rcfg);

    // Strand queue 2: the producer enqueues (ringing the doorbell) but
    // the write-transaction snoop never reaches the unit.
    queues[2].enqueue({0, 2, 0, 64, 0});
    EXPECT_FALSE(unit.qwait().has_value());

    dog.sweepOnce();
    EXPECT_EQ(dog.recoveries.value() + dog.earlyRecoveries.value(), 1u);
    EXPECT_EQ(*unit.qwait(), 2u);
    EXPECT_GE(wakes, 1);

    // A healthy sweep finds nothing.
    dog.sweepOnce();
    EXPECT_EQ(dog.recoveries.value() + dog.earlyRecoveries.value(), 1u);
}

TEST(Watchdog, PeriodicSweepFiresUntilStopped)
{
    EventQueue eq;
    queueing::QueueSet queues(1);
    core::QwaitConfig qcfg;
    qcfg.ready.capacity = 1;
    core::QwaitUnit unit(qcfg);
    ASSERT_EQ(unit.qwaitAdd(0, queues[0].doorbellAddr()),
              core::AddResult::Ok);

    fault::WatchdogCluster wc;
    wc.unit = &unit;
    wc.qids.push_back(0);
    fault::RecoveryConfig rcfg;
    rcfg.watchdog = true;
    rcfg.watchdogPeriodUs = 10.0;
    fault::Watchdog dog(eq, queues, {wc}, nullptr, rcfg);
    dog.start();
    eq.run(usToTicks(95.0));
    EXPECT_EQ(dog.sweeps.value(), 9u); // one per 10 us
    dog.stop();
    eq.run(usToTicks(200.0));
    EXPECT_EQ(dog.sweeps.value(), 9u);
}

// ---------------------------------------------------------------------
// Graceful degradation through the full system
// ---------------------------------------------------------------------

dp::SdpConfig
hyperBase()
{
    dp::SdpConfig cfg;
    cfg.plane = dp::PlaneKind::HyperPlane;
    cfg.numCores = 2;
    cfg.numQueues = 48;
    cfg.offeredRatePerSec = 2e5;
    cfg.warmupUs = 500.0;
    cfg.measureUs = 5000.0;
    cfg.seed = 11;
    return cfg;
}

TEST(GracefulDegradation, SaturatedMonitoringSetDemotesAndStillServes)
{
    // Pin the monitoring set far below the queue count: most queues
    // cannot bind and must degrade to software polling — yet every
    // queue keeps making progress and none strands.
    dp::SdpConfig cfg = hyperBase();
    cfg.monitoringCapacity = 16; // 48 queues into 16 entries
    cfg.monitoringMaxWalkSteps = 8;
    cfg.recovery.gracefulDegradation = true;
    cfg.recovery.watchdog = true;

    dp::SdpSystem sys(cfg);
    const dp::SdpResults r = sys.run();

    EXPECT_GT(r.demotions, 0u);
    EXPECT_GT(r.fallbackTasks, 0u);
    EXPECT_GT(r.completions, 0u);
    EXPECT_EQ(sys.stuckQueues(), 0u);
}

TEST(GracefulDegradation, WatchdogPromotesWhenCapacityFrees)
{
    dp::SdpConfig cfg = hyperBase();
    cfg.recovery.gracefulDegradation = true;
    cfg.recovery.watchdog = true;
    dp::SdpSystem sys(cfg);

    core::QwaitUnit *unit = sys.qwaitUnit(0);
    ASSERT_NE(unit, nullptr);
    ASSERT_NE(sys.fallbackSet(0), nullptr);

    // Manually demote queue 5 (as a capacity-exhaustion event would).
    ASSERT_TRUE(unit->qwaitRemove(5));
    sys.fallbackSet(0)->add(5);
    EXPECT_TRUE(sys.fallbackSet(0)->contains(5));

    // The sweep retries QWAIT-ADD and promotes it back.
    sys.watchdog()->sweepOnce();
    EXPECT_FALSE(sys.fallbackSet(0)->contains(5));
    EXPECT_TRUE(unit->doorbellOf(5).has_value());
    EXPECT_EQ(sys.watchdog()->promotions.value(), 1u);
}

TEST(GracefulDegradation, BindFailureWithoutRecoveryIsFatalOnlyThere)
{
    // With degradation off the same saturated config would hp_fatal at
    // build time; this test only checks the recovering path constructs.
    dp::SdpConfig cfg = hyperBase();
    cfg.monitoringCapacity = 16;
    cfg.monitoringMaxWalkSteps = 8;
    cfg.recovery.gracefulDegradation = true;
    EXPECT_NO_THROW(dp::SdpSystem sys(cfg));
}

// ---------------------------------------------------------------------
// Seeded fault campaigns (the acceptance scenario)
// ---------------------------------------------------------------------

dp::SdpConfig
campaignConfig(bool recovery)
{
    dp::SdpConfig cfg = hyperBase();
    cfg.fault.dropSnoopRate = 0.10;
    cfg.recovery.watchdog = recovery;
    cfg.recovery.gracefulDegradation = recovery;
    cfg.recovery.watchdogPeriodUs = 25.0;
    return cfg;
}

TEST(FaultCampaign, RecoveredRunIsDeterministicAndBalancesLedger)
{
    std::vector<dp::SdpResults> runs;
    for (int i = 0; i < 2; ++i) {
        dp::SdpSystem sys(campaignConfig(true));
        runs.push_back(sys.run());
        EXPECT_EQ(sys.stuckQueues(), 0u);
    }
    const dp::SdpResults &a = runs[0], &b = runs[1];

    // Faults actually fired, and every lost notification is accounted
    // for: injected == watchdog-recovered + self-recovered + open.
    EXPECT_GT(a.snoopsDropped, 0u);
    EXPECT_GT(a.lostInjected, 0u);
    EXPECT_GT(a.watchdogRecoveries, 0u);
    EXPECT_EQ(a.lostInjected,
              a.watchdogRecoveries + a.selfRecoveries + a.lostOutstanding);

    // Same seed, same plan: bit-identical campaign.
    EXPECT_EQ(a.completions, b.completions);
    EXPECT_EQ(a.snoopsDropped, b.snoopsDropped);
    EXPECT_EQ(a.lostInjected, b.lostInjected);
    EXPECT_EQ(a.watchdogRecoveries, b.watchdogRecoveries);
    EXPECT_EQ(a.selfRecoveries, b.selfRecoveries);
    EXPECT_EQ(a.watchdogSweeps, b.watchdogSweeps);
    EXPECT_EQ(a.p99LatencyUs, b.p99LatencyUs);
    EXPECT_EQ(a.avgLatencyUs, b.avgLatencyUs);
}

TEST(FaultCampaign, RecoveredRunDrainsEveryTask)
{
    // Manual drive: inject 10% lost doorbells for a window, stop the
    // source, and keep the clock running (watchdog included) — every
    // injected task must complete and the ledger must close.
    dp::SdpSystem sys(campaignConfig(true));
    for (unsigned i = 0; i < sys.config().numCores; ++i)
        sys.core(i).start();
    sys.source().start();
    sys.eventQueue().run(usToTicks(5000.0));
    sys.source().stop();

    for (int spin = 0; spin < 100 && sys.queues().totalBacklog() > 0;
         ++spin) {
        sys.eventQueue().run(sys.eventQueue().now() + usToTicks(100.0));
    }

    EXPECT_EQ(sys.queues().totalBacklog(), 0u);
    EXPECT_EQ(sys.stuckQueues(), 0u);
    ASSERT_NE(sys.faultInjector(), nullptr);
    EXPECT_EQ(sys.faultInjector()->outstandingLost(), 0u);
    EXPECT_GT(sys.faultInjector()->lostInjected.value(), 0u);
    EXPECT_EQ(sys.faultInjector()->lostInjected.value(),
              sys.faultInjector()->watchdogRecovered.value() +
                  sys.faultInjector()->selfRecovered.value());
}

TEST(FaultCampaign, NoRecoveryStrandsQueues)
{
    // Negative control: same faults, recovery off.  Dropped doorbells
    // permanently strand queues (armed + nonempty + never ready).
    dp::SdpSystem sys(campaignConfig(false));
    for (unsigned i = 0; i < sys.config().numCores; ++i)
        sys.core(i).start();
    sys.source().start();
    sys.eventQueue().run(usToTicks(5000.0));
    sys.source().stop();
    // Generous drain: without a watchdog nothing rescues the strands.
    sys.eventQueue().run(sys.eventQueue().now() + usToTicks(20000.0));

    EXPECT_GT(sys.stuckQueues(), 0u);
    EXPECT_GT(sys.queues().totalBacklog(), 0u);
    ASSERT_NE(sys.faultInjector(), nullptr);
    EXPECT_GT(sys.faultInjector()->outstandingLost(), 0u);
}

TEST(FaultCampaign, SuppressedWakesAreRefiredByWatchdog)
{
    // Swallow every wake callback: cores would sleep forever on the
    // first empty ready set.  The watchdog's re-fire path (which
    // bypasses the suppression) keeps the plane alive.
    dp::SdpConfig cfg = hyperBase();
    cfg.fault.suppressWakeRate = 1.0;
    cfg.recovery.watchdog = true;
    cfg.recovery.watchdogPeriodUs = 25.0;

    dp::SdpSystem sys(cfg);
    const dp::SdpResults r = sys.run();
    EXPECT_GT(r.wakesSuppressed, 0u);
    EXPECT_GT(r.wakeRefires, 0u);
    EXPECT_GT(r.completions, 0u);
    EXPECT_EQ(sys.stuckQueues(), 0u);
}

TEST(FaultCampaign, StormsAndSpuriousWakesAreFilteredHarmlessly)
{
    dp::SdpConfig cfg = hyperBase();
    cfg.fault.spuriousWakesPerSec = 5e4;
    cfg.fault.stormRatePerSec = 5e3;
    cfg.fault.stormBurst = 8;
    cfg.recovery.watchdog = true;

    dp::SdpSystem sys(cfg);
    const dp::SdpResults r = sys.run();
    EXPECT_GT(r.spuriousInjected, 0u);
    EXPECT_GT(r.stormWrites, 0u);
    // QWAIT-VERIFY filtered the noise; the plane still completes work
    // and nothing strands.
    EXPECT_GT(r.spuriousWakeups, 0u);
    EXPECT_GT(r.completions, 0u);
    EXPECT_EQ(sys.stuckQueues(), 0u);
}

TEST(FaultCampaign, DelayedSnoopsSelfHealOrAreRescued)
{
    dp::SdpConfig cfg = hyperBase();
    cfg.fault.delaySnoopRate = 0.2;
    cfg.fault.delayMeanUs = 5.0;
    cfg.recovery.watchdog = true;

    dp::SdpSystem sys(cfg);
    const dp::SdpResults r = sys.run();
    EXPECT_GT(r.snoopsDelayed, 0u);
    // Delays never enter the lost ledger (the snoop still arrives).
    EXPECT_EQ(r.lostInjected, 0u);
    EXPECT_GT(r.completions, 0u);
    EXPECT_EQ(sys.stuckQueues(), 0u);
}

} // namespace
} // namespace hyperplane
