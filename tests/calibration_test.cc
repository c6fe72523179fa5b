/**
 * @file
 * Calibration regression tests: the end-to-end simulation must keep
 * producing numbers in the bands the reproduction is calibrated to
 * (DESIGN.md Section 8).  These tests are the guard rail against
 * timing-model drift: if a refactor silently changes a cost model,
 * they fail before the figure benches quietly go off-shape.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <ostream>

#include "dp/sdp_system.hh"
#include "harness/runner.hh"

namespace hyperplane {
namespace dp {
namespace {

/** Figure 8 single-core peak-throughput targets, million tasks/s. */
struct PeakBand
{
    workloads::Kind kind;
    double lo;
    double hi;
};

/**
 * gtest names each instance (and gtest_discover_tests each ctest) by
 * its printed parameter.  The default printer dumps the raw object,
 * padding after `kind` included, and those bytes hold whatever the
 * stack did, so the test names changed from run to run.  Print the
 * same byte dump with the padding zeroed so the names are stable.
 */
void
PrintTo(const PeakBand &band, std::ostream *os)
{
    unsigned char bytes[sizeof(PeakBand)] = {};
    std::memcpy(bytes + offsetof(PeakBand, kind), &band.kind,
                sizeof band.kind);
    std::memcpy(bytes + offsetof(PeakBand, lo), &band.lo, sizeof band.lo);
    std::memcpy(bytes + offsetof(PeakBand, hi), &band.hi, sizeof band.hi);
    ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

class PeakCalibration : public ::testing::TestWithParam<PeakBand>
{
};

TEST_P(PeakCalibration, HyperPlanePeakInPaperBand)
{
    const PeakBand band = GetParam();
    SdpConfig cfg;
    cfg.plane = PlaneKind::HyperPlane;
    cfg.numCores = 1;
    cfg.numQueues = 100;
    cfg.workload = band.kind;
    cfg.shape = traffic::Shape::SQ;
    cfg.seed = 201;
    cfg.warmupUs = 500.0;
    cfg.measureUs = 4000.0;
    const auto r = harness::measureAtSaturation(cfg);
    EXPECT_GE(r.throughputMtps, band.lo)
        << workloads::toString(band.kind);
    EXPECT_LE(r.throughputMtps, band.hi)
        << workloads::toString(band.kind);
}

INSTANTIATE_TEST_SUITE_P(
    Fig8Axes, PeakCalibration,
    ::testing::Values(
        PeakBand{workloads::Kind::PacketEncapsulation, 0.45, 0.95},
        PeakBand{workloads::Kind::CryptoForwarding, 0.09, 0.20},
        PeakBand{workloads::Kind::PacketSteering, 0.25, 0.52},
        PeakBand{workloads::Kind::ErasureCoding, 0.07, 0.16},
        PeakBand{workloads::Kind::RaidProtection, 0.15, 0.33},
        PeakBand{workloads::Kind::RequestDispatching, 0.42, 0.90}));

TEST(Calibration, SpinningZeroLoadSlopeMatchesFig9Anchor)
{
    // The Figure 9(a) anchor: ~60 us average / ~160 us p99 at 1000
    // queues for a light workload (we accept a generous band).
    SdpConfig cfg;
    cfg.plane = PlaneKind::Spinning;
    cfg.numCores = 1;
    cfg.numQueues = 1000;
    cfg.workload = workloads::Kind::PacketEncapsulation;
    cfg.shape = traffic::Shape::SQ;
    cfg.jitter = ServiceJitter::None;
    cfg.seed = 202;
    cfg = harness::zeroLoadConfig(cfg, 600);
    const auto r = runSdp(cfg);
    EXPECT_GT(r.avgLatencyUs, 40.0);
    EXPECT_LT(r.avgLatencyUs, 100.0);
    EXPECT_GT(r.p99LatencyUs, 90.0);
    EXPECT_LT(r.p99LatencyUs, 220.0);
}

TEST(Calibration, HyperPlaneZeroLoadLatencyUnderTenMicroseconds)
{
    // Figure 9(b): HyperPlane stays below 10 us at 1000 queues for
    // every workload.
    for (auto kind : workloads::allKinds()) {
        SdpConfig cfg;
        cfg.plane = PlaneKind::HyperPlane;
        cfg.numCores = 1;
        cfg.numQueues = 1000;
        cfg.workload = kind;
        cfg.shape = traffic::Shape::SQ;
        cfg.jitter = ServiceJitter::None;
        cfg.seed = 203;
        cfg = harness::zeroLoadConfig(cfg, 300);
        const auto r = runSdp(cfg);
        EXPECT_LT(r.avgLatencyUs, 10.0) << workloads::toString(kind);
    }
}

TEST(Calibration, SpinningIdleIpcNearPaperFigure11)
{
    SdpConfig cfg;
    cfg.plane = PlaneKind::Spinning;
    cfg.numCores = 1;
    cfg.numQueues = 100;
    cfg.workload = workloads::Kind::PacketEncapsulation;
    cfg.shape = traffic::Shape::PC;
    cfg.offeredRatePerSec = 2000.0; // ~0 load
    cfg.warmupUs = 500.0;
    cfg.measureUs = 4000.0;
    cfg.seed = 204;
    const auto r = runSdp(cfg);
    EXPECT_GT(r.ipc, 1.3);
    EXPECT_LT(r.ipc, 2.8);
}

TEST(Calibration, PowerOptimizedIdleNearSixteenPercent)
{
    // Figure 12(a): power-optimized HyperPlane idles at ~16% of the
    // spinning plane's saturation power.
    SdpConfig cfg;
    cfg.plane = PlaneKind::Spinning;
    cfg.numCores = 1;
    cfg.numQueues = 100;
    cfg.workload = workloads::Kind::PacketEncapsulation;
    cfg.shape = traffic::Shape::PC;
    cfg.seed = 205;
    cfg.warmupUs = 500.0;
    cfg.measureUs = 4000.0;
    const auto sat = harness::measureAtSaturation(cfg);

    cfg.plane = PlaneKind::HyperPlane;
    cfg.powerOptimized = true;
    cfg.offeredRatePerSec = 2000.0;
    const auto idle = runSdp(cfg);
    const double frac = idle.avgCorePowerW / sat.avgCorePowerW;
    EXPECT_GT(frac, 0.12);
    EXPECT_LT(frac, 0.22);
}

} // namespace
} // namespace dp
} // namespace hyperplane
