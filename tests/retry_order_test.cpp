/**
 * @file
 * Golden digests of contended timing systems. Each case is a small
 * machine whose caches or PV proxies refuse requests under load:
 * a one-tick L2 tag stage, L1s with two MSHRs, a 4-MSHR L2 that
 * refuses PvProxy sends, next-line instruction prefetch into 3-MSHR
 * L1s, and a DRAM channel whose responses land on both sides of the
 * event queue's wheel horizon. The digest is FNV-1a over the full
 * dumpStats() text of the measured phase, so any change to when or
 * in which order a refused request is re-attempted shows up as a
 * mismatch. The first four digests were recorded with a simulator
 * that re-asked a refusing device every cycle: the reference the
 * retry lane (sim/event_queue.hh) must reproduce. The pvbench
 * reference seeds never reach these paths.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "config/fields.hh"
#include "core/pv_proxy.hh"
#include "harness/system.hh"

using namespace pvsim;

namespace {

struct GoldenCase {
    const char *name;
    /** SystemConfig JSON (timing mode is forced). */
    const char *system;
    uint64_t warmupRecords;
    uint64_t measureRecords;
    /** The L2 refuses requests during the measured phase (the
     *  two-MSHR L1 case backs up in the L1s instead). */
    bool l2Refuses;
    /** fingerprintHex(fnv1a(dumpStats())) after the measured phase. */
    const char *digest;
};

const GoldenCase kCases[] = {
    {"one_tick_l2_tag",
     R"({"num_cores": 8,
         "workload_mix": ["apache", "qry2", "db2", "zeus"],
         "l2_tag_latency": 1, "l2_banks": 2, "l2_mshrs": 8})",
     500, 1500, true, "55a1f4be9db4238c"},
    {"l1_two_mshrs",
     R"({"num_cores": 8,
         "workload_mix": ["apache", "qry2", "db2", "zeus"],
         "l1_mshrs": 2, "l2_mshrs": 16})",
     1000, 2000, false, "f71bc9ad08044a98"},
    {"l2_refuses_pv_proxy",
     R"({"num_cores": 4,
         "workload_mix": ["apache", "oracle", "qry2", "zeus"],
         "l2_mshrs": 4,
         "branch_profile": {"enabled": true, "bb_mean_records": 1,
             "routine_blocks": 8, "num_routines": 384,
             "call_depth": 16, "call_fraction": 0.35,
             "loop_fraction": 0.1, "loop_trip_mean": 2,
             "edge_stability": 0.93},
         "btb_mispredict_penalty": 8,
         "prefetch": "sms_virtualized",
         "pv_cache_entries": 16, "pv_prefetch": 2,
         "victim_entries": 8,
         "btb": {"mode": "virtualized", "num_sets": 128, "assoc": 8,
                 "qos": {"weight": 4}},
         "virt_engines": [{"kind": "agt", "name": "aggressor",
             "num_sets": 512, "assoc": 4, "tag_bits": 12,
             "qos": {"weight": 1}}],
         "pv_bytes_per_core": 131072})",
     500, 1500, true, "4621e69147ccbc01"},
    {"next_line_l1i_three_mshrs",
     R"({"num_cores": 8,
         "workload_mix": ["apache", "qry2", "db2", "zeus"],
         "next_line_l1i": true, "l1_mshrs": 3, "l2_mshrs": 8})",
     500, 1500, true, "dc2e59229e72a123"},
    // A slow, narrow DRAM channel queues some responses past the
    // event queue's wheel (EventQueue::kWheelTicks or more ahead):
    // they wait in the overflow heap, then migrate onto the wheel.
    // Its digest was recorded with one binary heap of all events,
    // not with the polling reference.
    {"dram_beyond_wheel",
     R"({"num_cores": 8,
         "workload_mix": ["apache", "qry2", "db2", "zeus"],
         "l2_mshrs": 8, "mem_latency": 1000,
         "mem_service_interval": 16})",
     500, 1500, true, "e1338481d36c79c5"},
};

class RetryOrder : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(RetryOrder, StatsDigestMatchesGolden)
{
    const GoldenCase &gc = GetParam();
    SystemConfig cfg = config::parseConfig<SystemConfig>(gc.system);
    cfg.mode = SimMode::Timing;
    System sys(cfg);
    sys.runTiming(gc.warmupRecords);
    sys.resetStats();
    sys.runTiming(gc.measureRecords);
    EXPECT_TRUE(sys.quiesced());
    if (gc.l2Refuses) {
        EXPECT_GT(sys.l2().mshrRejects.value(), 0u)
            << "the case must contend for the L2";
    }
    // The lane wakes a parked send only when its device may take
    // it: no resumed drain is refused again.
    uint64_t refused_resumes = sys.l2().sendQueue().refusedResumes();
    for (int c = 0; c < sys.numCores(); ++c) {
        refused_resumes += sys.l1d(c).sendQueue().refusedResumes() +
                           sys.l1i(c).sendQueue().refusedResumes();
        if (PvProxy *proxy = sys.pvProxy(c))
            refused_resumes += proxy->sendQueue().refusedResumes();
    }
    EXPECT_EQ(refused_resumes, 0u);

    std::ostringstream dump;
    sys.ctx().dumpStats(dump);
    EXPECT_EQ(config::fingerprintHex(config::fnv1a(dump.str())),
              gc.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Golden, RetryOrder, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
