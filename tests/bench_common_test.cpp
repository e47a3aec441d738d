// Tests for the shared bench-harness plumbing in bench/common.h: the
// --backend/--jobs/--watchdog-ms option structs whose clamping, validation
// and warning behavior the CI harnesses rely on but no app test exercises.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common.h"

namespace dpa {
namespace {

TEST(BackendOptions, ValidateAcceptsKnownBackendsAndRejectsTypos) {
  bench::FaultOptions no_faults;
  bench::BackendOptions b;
  EXPECT_TRUE(b.validate(no_faults));  // default "sim"
  b.name = "native";
  EXPECT_TRUE(b.validate(no_faults));
  b.name = "natiev";
  EXPECT_FALSE(b.validate(no_faults));
}

TEST(BackendOptions, ValidateRejectsFaultsOnNative) {
  bench::FaultOptions faults;
  faults.spec = "chaos";
  bench::BackendOptions b;
  EXPECT_TRUE(b.validate(faults));  // sim + faults: fine
  b.name = "native";
  EXPECT_FALSE(b.validate(faults));  // lossless fabric, no injector
}

TEST(BackendOptions, ValidateRejectsProcsOutOfRange) {
  bench::FaultOptions no_faults;
  bench::BackendOptions b;
  b.name = "proc";
  for (const std::int64_t ok : {std::int64_t(1), std::int64_t(4294967295)}) {
    b.procs = ok;
    EXPECT_TRUE(b.validate(no_faults)) << ok;
  }
  // install() narrows to std::uint32_t: 2^32 would wrap to 0 and then be
  // clamped to one process without a word.
  for (const std::int64_t bad : {std::int64_t(0), std::int64_t(-3),
                                 std::int64_t(4294967296), INT64_MAX}) {
    b.procs = bad;
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(b.validate(no_faults)) << bad;
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("--procs=" + std::to_string(bad)), std::string::npos)
        << err;
  }
}

TEST(BackendOptions, ValidateRejectsNegativeAndOversizedWorkers) {
  bench::FaultOptions no_faults;
  bench::BackendOptions b;
  b.name = "native";
  for (const std::int64_t ok : {std::int64_t(0), std::int64_t(3),
                                std::int64_t(4294967295)}) {
    b.workers = ok;
    EXPECT_TRUE(b.validate(no_faults)) << ok;
  }
  for (const std::int64_t bad :
       {std::int64_t(-2), std::int64_t(4294967296), INT64_MAX}) {
    b.workers = bad;
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(b.validate(no_faults)) << bad;
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("--workers=" + std::to_string(bad)), std::string::npos)
        << err;
  }
}

TEST(BackendOptions, ClampJobsForcesSerialCellsOnNativeWithWarning) {
  bench::BackendOptions b;
  EXPECT_EQ(b.clamp_jobs(8), 8u);  // sim: pass-through
  b.name = "native";
  EXPECT_EQ(b.clamp_jobs(1), 1u);  // no-op, no warning
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(b.clamp_jobs(8), 1u);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--jobs=8 ignored"), std::string::npos) << err;
  EXPECT_NE(err.find("native"), std::string::npos) << err;
}

TEST(SweepOptions, ObsSessionForcesSerialCellsAndNamesTheFlag) {
  bench::SweepOptions sweep;
  sweep.jobs = 4;
  EXPECT_EQ(sweep.resolved(nullptr), 4u);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(sweep.resolved("--trace-out"), 1u);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--jobs=4 ignored"), std::string::npos) << err;
  EXPECT_NE(err.find("--trace-out"), std::string::npos) << err;

  // jobs=1 under a session: nothing to override, nothing to warn about.
  sweep.jobs = 1;
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(sweep.resolved("--metrics-out"), 1u);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

  sweep.jobs = 0;  // 0 = one per hardware thread
  EXPECT_GE(sweep.resolved(nullptr), 1u);
}

TEST(BackendOptions, WatchdogConfigMapsMillisecondsToBothTriggers) {
  bench::BackendOptions b;
  EXPECT_FALSE(b.watchdog_config().enabled());  // default: no watchdog

  b.watchdog_ms = 800;
  b.watchdog_dump = "/tmp/flight.json";
  const exec::WatchdogConfig cfg = b.watchdog_config();
  EXPECT_TRUE(cfg.enabled());
  EXPECT_EQ(cfg.phase_deadline, 800'000'000);
  EXPECT_EQ(cfg.stuck_scans, 8u);
  // Eight sweeps fit exactly inside the deadline.
  EXPECT_EQ(cfg.scan_interval, 100'000'000);
  EXPECT_EQ(cfg.dump_path, "/tmp/flight.json");
  EXPECT_TRUE(cfg.fatal);

  // Tiny deadlines keep a sane sweep floor instead of busy-polling.
  b.watchdog_ms = 4;
  EXPECT_EQ(b.watchdog_config().scan_interval, 1'000'000);
}

TEST(BackendOptions, InstallWatchdogWarnsWhenBackendIsSim) {
  bench::BackendOptions b;
  b.watchdog_ms = 500;
  ::testing::internal::CaptureStderr();
  b.install();  // sim: warns, does not install
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--watchdog-ms=500 ignored"), std::string::npos) << err;
}

TEST(BackendOptions, InstallFoldsTheNativeWatchdogIntoTheDefaultTuning) {
  // --watchdog-ms reaches every NativeBackend built afterwards through the
  // default Tuning, the same path as --workers.
  exec::ScopedDefaultTuning guard(exec::NativeBackend::default_tuning());

  bench::BackendOptions b;
  Options options;
  b.add_flags(options);
  const char* argv[] = {"bench", "--backend=native", "--watchdog-ms=250",
                        "--watchdog-dump=flight.json"};
  ASSERT_TRUE(options.parse(4, const_cast<char**>(argv)));
  b.install();
  const exec::WatchdogConfig want = b.watchdog_config();
  EXPECT_TRUE(want.enabled());
  EXPECT_EQ(want.dump_path, "flight.json");
  EXPECT_EQ(exec::NativeBackend::default_tuning().watchdog, want);
}

TEST(BackendOptions, InstallPublishesWorkerPoolSizeForNativeOnly) {
  // Snapshot-and-restore the process-wide default so this test cannot leak
  // a pool size into later tests in the binary.
  exec::ScopedDefaultTuning guard(exec::NativeBackend::default_tuning());

  bench::BackendOptions b;
  b.name = "native";
  b.workers = 3;
  b.install();
  EXPECT_EQ(exec::NativeBackend::default_tuning().workers, 3u);

  // Sim backend: the knob is meaningless, warn and leave the default alone.
  b.name = "sim";
  b.workers = 5;
  ::testing::internal::CaptureStderr();
  b.install();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--workers=5 ignored"), std::string::npos) << err;
  EXPECT_EQ(exec::NativeBackend::default_tuning().workers, 3u);
}

// Dedicated coverage for the --workers/--backend=sim mismatch: the sim
// backend is single-threaded by construction, so a pool size passed with
// it must warn (naming both flags) and must NOT leak into the process-wide
// native tuning default.
TEST(BackendOptions, InstallWarnsWorkersIgnoredOnSimBackend) {
  exec::ScopedDefaultTuning guard(exec::NativeBackend::default_tuning());
  const std::uint32_t before = exec::NativeBackend::default_tuning().workers;

  bench::BackendOptions b;  // default backend: "sim"
  b.workers = 8;
  ::testing::internal::CaptureStderr();
  b.install();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--workers=8 ignored"), std::string::npos) << err;
  EXPECT_NE(err.find("--backend=sim"), std::string::npos) << err;
  EXPECT_NE(err.find("native"), std::string::npos) << err;
  EXPECT_EQ(exec::NativeBackend::default_tuning().workers, before);

  // workers=0 is the "use the default" sentinel: no warning even on sim.
  b.workers = 0;
  ::testing::internal::CaptureStderr();
  b.install();
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(ObsOptions, SessionAttachesOnlyWhenSomeOutputWantsIt) {
  bench::ObsOptions plain;
  plain.init();
  EXPECT_EQ(plain.get(), nullptr);
  EXPECT_EQ(plain.attached_by(), nullptr);

  bench::ObsOptions traced;
  traced.trace_out = "/tmp/t.json";
  traced.init();
  ASSERT_NE(traced.get(), nullptr);
  EXPECT_STREQ(traced.attached_by(), "--trace-out");

  bench::ObsOptions forced;
  forced.init("--json");
  ASSERT_NE(forced.get(), nullptr);
  EXPECT_STREQ(forced.attached_by(), "--json");
}

}  // namespace
}  // namespace dpa
