// Determinism and latch semantics of the operational fault injector.
#include <gtest/gtest.h>

#include "faults/op_faults.h"

namespace faultyrank {
namespace {

OpFaultConfig eio_config(double rate) {
  OpFaultConfig config;
  config.seed = 7;
  config.transient_eio_rate = rate;
  config.max_fault_attempts = 2;
  return config;
}

TEST(OpFaultsTest, ProbeIsPureInSeedLabelSlotAttempt) {
  const OpFaultConfig config = eio_config(0.5);
  const ServerFaultSchedule a(config, "oss0");
  const ServerFaultSchedule b(config, "oss0");
  for (std::uint64_t slot = 0; slot < 512; ++slot) {
    for (std::uint32_t attempt = 1; attempt <= 3; ++attempt) {
      const ReadFault fa = a.probe(slot, attempt);
      const ReadFault fb = b.probe(slot, attempt);
      EXPECT_EQ(fa.transient_eio, fb.transient_eio);
      EXPECT_EQ(fa.torn_ea, fb.torn_ea);
      EXPECT_EQ(fa.extra_latency_seconds, fb.extra_latency_seconds);
      EXPECT_EQ(a.jitter_unit(slot, attempt), b.jitter_unit(slot, attempt));
    }
  }
}

TEST(OpFaultsTest, DifferentServersSeeDifferentSchedules) {
  const OpFaultConfig config = eio_config(0.5);
  const ServerFaultSchedule a(config, "oss0");
  const ServerFaultSchedule b(config, "oss1");
  int differing = 0;
  for (std::uint64_t slot = 0; slot < 512; ++slot) {
    if (a.probe(slot, 1).transient_eio != b.probe(slot, 1).transient_eio) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(OpFaultsTest, TransientFaultsClearWithinTheFaultBudget) {
  const OpFaultConfig config = eio_config(1.0);  // every inode faulted
  const ServerFaultSchedule sched(config, "oss0");
  for (std::uint64_t slot = 0; slot < 256; ++slot) {
    EXPECT_TRUE(sched.probe(slot, 1).transient_eio);
    // fail_attempts is 1..max_fault_attempts, so attempt
    // max_fault_attempts + 1 always reads clean.
    EXPECT_FALSE(sched.probe(slot, config.max_fault_attempts + 1)
                     .transient_eio);
  }
}

TEST(OpFaultsTest, ZeroRatesNeverFault) {
  const OpFaultConfig config;  // all rates zero, no crashes
  ServerFaultSchedule sched(config, "mds0");
  for (std::uint64_t slot = 0; slot < 256; ++slot) {
    EXPECT_NO_THROW(sched.on_read());
    const ReadFault fault = sched.probe(slot, 1);
    EXPECT_FALSE(fault.transient_eio);
    EXPECT_FALSE(fault.torn_ea);
    EXPECT_EQ(fault.extra_latency_seconds, 0.0);
  }
  EXPECT_FALSE(sched.down());
}

TEST(OpFaultsTest, CrashLatchSurvivesBeginScan) {
  OpFaultConfig config;
  config.crash_after_reads["oss0"] = 10;
  OpFaultSchedule cluster_sched(config);
  ServerFaultSchedule& sched = cluster_sched.server("oss0");

  sched.begin_scan();
  for (int i = 0; i < 10; ++i) EXPECT_NO_THROW(sched.on_read());
  EXPECT_THROW(sched.on_read(), ServerCrashError);
  EXPECT_TRUE(sched.down());

  // A rescan resets the read counter but the server stays dead.
  sched.begin_scan();
  EXPECT_THROW(sched.on_read(), ServerCrashError);
  EXPECT_TRUE(sched.down());
}

TEST(OpFaultsTest, ReviveClearsTheCrashLatch) {
  // revive() models the operator bringing a dead server back: the latch
  // clears, the crash point is consumed, and a rescan completes.
  OpFaultConfig config;
  config.crash_after_reads["oss0"] = 2;
  OpFaultSchedule faults(config);
  ServerFaultSchedule& server = faults.server("oss0");

  server.begin_scan();
  EXPECT_NO_THROW(server.on_read());
  EXPECT_NO_THROW(server.on_read());
  EXPECT_THROW(server.on_read(), ServerCrashError);
  EXPECT_TRUE(server.down());

  // A rescan without revive stays dead (the latch survives begin_scan).
  server.begin_scan();
  EXPECT_THROW(server.on_read(), ServerCrashError);

  server.revive();
  EXPECT_FALSE(server.down());
  server.begin_scan();
  for (int i = 0; i < 10; ++i) EXPECT_NO_THROW(server.on_read());
}

TEST(OpFaultsTest, ScheduleHandoutIsStablePerLabel) {
  OpFaultSchedule cluster_sched(eio_config(0.2));
  ServerFaultSchedule& first = cluster_sched.server("oss3");
  ServerFaultSchedule& again = cluster_sched.server("oss3");
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(first.label(), "oss3");
}

}  // namespace
}  // namespace faultyrank
