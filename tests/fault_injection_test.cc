// Tests for the deterministic fault injector and the retrying reader
// (storage/fault.h).
#include "storage/fault.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "storage/page.h"
#include "storage/page_file.h"

namespace dqmo {
namespace {

/// A page file with `n` pages whose payloads are filled with their id.
PageFile MakeFile(int n) {
  PageFile f;
  uint8_t buf[kPageSize];
  for (int i = 0; i < n; ++i) {
    const PageId id = f.Allocate();
    std::memset(buf, static_cast<int>(0x10 + i), kPageSize);
    EXPECT_TRUE(f.Write(id, buf).ok());
  }
  return f;
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultInjector::Options options;
  options.seed = 1234;
  options.transient_fault_rate = 0.25;
  FaultInjector a(options);
  FaultInjector b(options);
  for (int i = 0; i < 2000; ++i) {
    const PageId page = static_cast<PageId>(i % 7);
    EXPECT_EQ(static_cast<int>(a.NextRead(page).kind),
              static_cast<int>(b.NextRead(page).kind))
        << "diverged at read " << i;
  }
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_GT(a.faults_injected(), 0u);   // 0.25 over 2000 reads: certain.
  EXPECT_LT(a.faults_injected(), 1000u);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  FaultInjector::Options options;
  options.transient_fault_rate = 0.5;
  options.seed = 1;
  FaultInjector a(options);
  options.seed = 2;
  FaultInjector b(options);
  int diffs = 0;
  for (int i = 0; i < 256; ++i) {
    if (a.NextRead(0).kind != b.NextRead(0).kind) ++diffs;
  }
  EXPECT_GT(diffs, 0);
}

TEST(FaultInjectorTest, ScheduleIsIndependentOfPageIds) {
  // The Bernoulli stream advances once per read regardless of which page is
  // read, so two query plans touching different pages see the same fault
  // positions — what makes degraded-run replays meaningful.
  FaultInjector::Options options;
  options.seed = 99;
  options.transient_fault_rate = 0.3;
  FaultInjector a(options);
  FaultInjector b(options);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(static_cast<int>(a.NextRead(0).kind),
              static_cast<int>(b.NextRead(static_cast<PageId>(i)).kind))
        << "read " << i;
  }
}

TEST(FaultInjectorTest, FailAfterIsPermanent) {
  FaultInjector::Options options;
  options.fail_after = 5;
  FaultInjector injector(options);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(injector.NextRead(0).kind,
              FaultInjector::Decision::Kind::kPass);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(injector.NextRead(0).kind,
              FaultInjector::Decision::Kind::kPermanentFail);
  }
}

TEST(FaultInjectorTest, FailEveryKthIsTransient) {
  FaultInjector::Options options;
  options.fail_every_kth = 3;
  FaultInjector injector(options);
  for (int i = 1; i <= 12; ++i) {
    const auto kind = injector.NextRead(0).kind;
    if (i % 3 == 0) {
      EXPECT_EQ(kind, FaultInjector::Decision::Kind::kTransientFail) << i;
    } else {
      EXPECT_EQ(kind, FaultInjector::Decision::Kind::kPass) << i;
    }
  }
}

TEST(FaultInjectorTest, DeadPagesAlwaysFail) {
  FaultInjector injector(FaultInjector::Options{});
  injector.AddPermanentFault(3);
  EXPECT_EQ(injector.NextRead(2).kind, FaultInjector::Decision::Kind::kPass);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(injector.NextRead(3).kind,
              FaultInjector::Decision::Kind::kPermanentFail);
  }
}

TEST(FaultyPageReaderTest, TransientBitFlipDamagesOnlyOneDelivery) {
  PageFile file = MakeFile(2);
  FaultInjector injector(FaultInjector::Options{});
  injector.AddBitFlip(/*page=*/1, /*offset=*/40, /*mask=*/0x08,
                      /*transient=*/true);
  FaultyPageReader faulty(&file, &injector);

  auto first = faulty.Read(1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->data[40], 0x11 ^ 0x08);
  EXPECT_FALSE(PageChecksumOk(first->data));  // The flip is detectable.

  // The base page was never touched; the next delivery is clean.
  auto second = faulty.Read(1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->data[40], 0x11);
  EXPECT_TRUE(PageChecksumOk(second->data));
}

TEST(FaultyPageReaderTest, PersistentBitFlipDamagesEveryDelivery) {
  PageFile file = MakeFile(1);
  FaultInjector injector(FaultInjector::Options{});
  injector.AddBitFlip(0, 7, 0x80, /*transient=*/false);
  FaultyPageReader faulty(&file, &injector);
  for (int i = 0; i < 3; ++i) {
    auto read = faulty.Read(0);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->data[7], 0x10 ^ 0x80);
  }
  // The stored page itself stays pristine.
  auto direct = file.Read(0);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->data[7], 0x10);
}

TEST(RetryingPageReaderTest, AbsorbsTransientFaults) {
  PageFile file = MakeFile(1);
  FaultInjector::Options options;
  options.fail_every_kth = 2;  // Reads 2, 4, 6, ... fail transiently.
  FaultInjector injector(options);
  FaultyPageReader faulty(&file, &injector);
  RetryingPageReader::RetryPolicy policy;
  policy.max_attempts = 3;
  RetryingPageReader retrying(&faulty, policy, file.mutable_stats());

  // Read 1 passes outright; read 2 fails and its retry (read 3) passes; and
  // so on — every logical read succeeds, some after one retry.
  for (int i = 0; i < 10; ++i) {
    auto read = retrying.Read(0);
    ASSERT_TRUE(read.ok()) << "logical read " << i;
    EXPECT_EQ(read->data[0], 0x10);
  }
  EXPECT_GT(file.stats().retries, 0u);
  EXPECT_EQ(retrying.exhausted_reads(), 0u);
}

TEST(RetryingPageReaderTest, RetriesChecksumMismatchAndRecovers) {
  PageFile file = MakeFile(1);
  FaultInjector injector(FaultInjector::Options{});
  injector.AddBitFlip(0, 123, 0x01, /*transient=*/true);
  FaultyPageReader faulty(&file, &injector);
  RetryingPageReader retrying(&faulty, RetryingPageReader::RetryPolicy{},
                              file.mutable_stats());

  // First attempt delivers a corrupt copy; the verifier catches it and the
  // retry (transient flip now spent) delivers clean bytes.
  auto read = retrying.Read(0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->data[123], 0x10);
  EXPECT_TRUE(PageChecksumOk(read->data));
  EXPECT_EQ(file.stats().checksum_failures, 1u);
  EXPECT_EQ(file.stats().retries, 1u);
}

TEST(RetryingPageReaderTest, PermanentFaultExhaustsRetries) {
  PageFile file = MakeFile(2);
  FaultInjector injector(FaultInjector::Options{});
  injector.AddPermanentFault(1);
  FaultyPageReader faulty(&file, &injector);
  RetryingPageReader::RetryPolicy policy;
  policy.max_attempts = 4;
  RetryingPageReader retrying(&faulty, policy, file.mutable_stats());

  const Status s = retrying.Read(1).status();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(file.stats().retries, 3u);  // 4 attempts = 3 retries.
  EXPECT_EQ(retrying.exhausted_reads(), 1u);

  // Persistent at-rest corruption likewise survives every retry and comes
  // back as Corruption.
  injector.AddBitFlip(0, 50, 0xFF, /*transient=*/false);
  const Status c = retrying.Read(0).status();
  EXPECT_TRUE(c.IsCorruption()) << c.ToString();
  EXPECT_EQ(retrying.exhausted_reads(), 2u);
}

TEST(RetryingPageReaderTest, NonRetryableErrorsPassThroughImmediately) {
  PageFile file = MakeFile(1);
  RetryingPageReader retrying(&file, RetryingPageReader::RetryPolicy{},
                              file.mutable_stats());
  const Status s = retrying.Read(42).status();
  EXPECT_TRUE(s.IsOutOfRange()) << s.ToString();
  EXPECT_EQ(file.stats().retries, 0u);
  EXPECT_EQ(retrying.exhausted_reads(), 0u);
}

TEST(RetryingPageReaderTest, EndToEndStackIsDeterministic) {
  // Same seed, same logical read sequence => identical outcomes through the
  // whole PageFile -> FaultyPageReader -> RetryingPageReader stack.
  std::vector<int> outcomes[2];
  uint64_t retries[2];
  for (int run = 0; run < 2; ++run) {
    PageFile file = MakeFile(4);
    FaultInjector::Options options;
    options.seed = 7;
    options.transient_fault_rate = 0.2;
    FaultInjector injector(options);
    FaultyPageReader faulty(&file, &injector);
    RetryingPageReader retrying(&faulty, RetryingPageReader::RetryPolicy{},
                                file.mutable_stats());
    for (int i = 0; i < 200; ++i) {
      outcomes[run].push_back(
          retrying.Read(static_cast<PageId>(i % 4)).ok() ? 1 : 0);
    }
    retries[run] = file.stats().retries;
  }
  EXPECT_EQ(outcomes[0], outcomes[1]);
  EXPECT_EQ(retries[0], retries[1]);
  EXPECT_GT(retries[0], 0u);
}

// ---------------------------------------------------------------------------
// Latency faults (slow reads).

TEST(FaultInjectorTest, SlowReadScheduleIsDeterministic) {
  FaultInjector::Options options;
  options.seed = 321;
  options.slow_read_rate = 0.2;
  options.slow_read_delay_us = 750;
  FaultInjector a(options);
  FaultInjector b(options);
  for (int i = 0; i < 2000; ++i) {
    const auto da = a.NextRead(static_cast<PageId>(i % 5));
    const auto db = b.NextRead(static_cast<PageId>(i % 5));
    EXPECT_EQ(static_cast<int>(da.kind), static_cast<int>(db.kind))
        << "diverged at read " << i;
    if (da.kind == FaultInjector::Decision::Kind::kSlow) {
      EXPECT_EQ(da.delay_us, 750u);
    }
  }
  EXPECT_EQ(a.slow_reads(), b.slow_reads());
  EXPECT_GT(a.slow_reads(), 0u);  // 0.2 over 2000 reads: certain.
}

TEST(FaultInjectorTest, SlowEveryKthDelaysExactlyEveryKth) {
  FaultInjector::Options options;
  options.slow_every_kth = 4;
  options.slow_read_delay_us = 500;
  FaultInjector injector(options);
  for (int i = 1; i <= 40; ++i) {
    const auto d = injector.NextRead(0);
    if (i % 4 == 0) {
      EXPECT_EQ(d.kind, FaultInjector::Decision::Kind::kSlow) << i;
      EXPECT_EQ(d.delay_us, 500u);
    } else {
      EXPECT_EQ(d.kind, FaultInjector::Decision::Kind::kPass) << i;
    }
  }
  EXPECT_EQ(injector.slow_reads(), 10u);
  EXPECT_EQ(injector.faults_injected(), 10u);
}

TEST(FaultInjectorTest, SlowEveryKthDoesNotPerturbFaultStream) {
  // Adding the (draw-free) slow_every_kth option must leave the seeded
  // transient-fault positions bit-identical — the determinism contract for
  // replaying old schedules under new option sets.
  FaultInjector::Options base;
  base.seed = 99;
  base.transient_fault_rate = 0.25;
  FaultInjector::Options with_slow = base;
  with_slow.slow_every_kth = 8;
  FaultInjector a(base);
  FaultInjector b(with_slow);
  for (int i = 1; i <= 2000; ++i) {
    const auto da = a.NextRead(0);
    const auto db = b.NextRead(0);
    const bool fault_a = da.kind == FaultInjector::Decision::Kind::kTransientFail;
    const bool fault_b = db.kind == FaultInjector::Decision::Kind::kTransientFail;
    EXPECT_EQ(fault_a, fault_b) << "fault stream diverged at read " << i;
  }
  EXPECT_GT(b.slow_reads(), 0u);
}

TEST(FaultInjectorTest, StopAfterClosesTheFaultWindow) {
  FaultInjector::Options options;
  options.fail_every_kth = 2;
  options.stop_after = 10;
  FaultInjector injector(options);
  injector.AddPermanentFault(3);
  uint64_t faults_in_window = 0;
  for (int i = 1; i <= 10; ++i) {
    if (injector.NextRead(3).kind != FaultInjector::Decision::Kind::kPass) {
      ++faults_in_window;
    }
  }
  EXPECT_EQ(faults_in_window, 10u);  // Dead page: every read in the window.
  // Past stop_after even the dead page reads clean: the outage is over.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(injector.NextRead(3).kind,
              FaultInjector::Decision::Kind::kPass);
  }
  EXPECT_EQ(injector.faults_injected(), 10u);
}

TEST(FaultyPageReaderTest, SlowReadsDeliverIntactPagesThroughTheSleeper) {
  PageFile file = MakeFile(2);
  FaultInjector::Options options;
  options.slow_every_kth = 2;
  options.slow_read_delay_us = 1234;
  FaultInjector injector(options);
  std::vector<uint64_t> slept;
  FaultyPageReader faulty(&file, &injector,
                          [&slept](uint64_t us) { slept.push_back(us); });
  for (int i = 0; i < 6; ++i) {
    auto r = faulty.Read(static_cast<PageId>(i % 2));
    ASSERT_TRUE(r.ok());
    auto direct = file.Read(static_cast<PageId>(i % 2));
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(std::memcmp(r->data, direct->data, kPageSize), 0);
  }
  EXPECT_EQ(slept, (std::vector<uint64_t>{1234, 1234, 1234}));
}

}  // namespace
}  // namespace dqmo
