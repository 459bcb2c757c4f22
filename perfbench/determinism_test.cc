// The benchmark's own checks: every simulated metric and every count repeats
// exactly for one seed, a second seed changes the generated inputs, the
// open-loop generator is never late in simulated time, and the KVS history
// check rejects stale and unwritten versions.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "perfbench/kvs_history.h"
#include "perfbench/runner.h"

namespace perfbench {
namespace {

// Metrics measured on the host clock; everything else must repeat exactly.
const std::set<std::string> kHostClock = {
    "setup_s",         "host_ns_per_op", "peak_rss_mib",   "sim.host_ns_per_event",
    "setup.machine_s", "setup.boot_s",   "setup.load_s",   "setup.minor_faults",
    "host.trace_overhead_ns_per_op"};

RunOptions ShortRun(uint64_t seed) {
  RunOptions options;
  options.seed = seed;
  options.seconds = 0.001;  // one cycle of episodes
  options.scale = 0.05;
  return options;
}

class Determinism : public testing::TestWithParam<std::string> {};

TEST_P(Determinism, SameSeedRepeatsEveryExactMetric) {
  const Workload* workload = FindWorkload(GetParam());
  ASSERT_NE(workload, nullptr);
  Report first = RunBenchmark(*workload, ShortRun(11));
  Report second = RunBenchmark(*workload, ShortRun(11));
  ASSERT_TRUE(first.correct) << (first.failures.empty() ? "" : first.failures.front());
  ASSERT_TRUE(second.correct);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.attempted, second.attempted);
  for (const auto* list : {&first.end_to_end, &first.per_layer}) {
    const auto& other = list == &first.end_to_end ? second.end_to_end : second.per_layer;
    ASSERT_EQ(list->size(), other.size());
    for (size_t i = 0; i < list->size(); ++i) {
      if (!kHostClock.contains((*list)[i].name)) {
        EXPECT_EQ((*list)[i].value, other[i].value) << (*list)[i].name;
      }
    }
  }
}

TEST_P(Determinism, EpisodeRepeatsAndGeneratorIsNeverLate) {
  const Workload* workload = FindWorkload(GetParam());
  ASSERT_NE(workload, nullptr);
  Workload short_workload = *workload;
  short_workload.warmup_ops = 200;
  Episode a = RunEpisode(short_workload, 5, workload->nominal_rate, 2000, nullptr);
  Episode b = RunEpisode(short_workload, 5, workload->nominal_rate, 2000, nullptr);
  EXPECT_TRUE(a.failures.empty()) << (a.failures.empty() ? "" : a.failures.front());
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(a.max_lateness_ns, 0u);
  EXPECT_EQ(a.Digest(), b.Digest());
  EXPECT_EQ(a.allocs.calls, b.allocs.calls);
  EXPECT_EQ(a.allocs.bytes, b.allocs.bytes);
  EXPECT_EQ(a.events, b.events);
}

TEST_P(Determinism, SecondSeedChangesTheInputs) {
  const Workload* workload = FindWorkload(GetParam());
  ASSERT_NE(workload, nullptr);
  std::vector<Op> a = workload->generate(1, 1000);
  std::vector<Op> b = workload->generate(2, 1000);
  ASSERT_EQ(a.size(), b.size());
  size_t same = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    same += a[i].unit_at == b[i].unit_at && a[i].client == b[i].client &&
                    a[i].target == b[i].target && a[i].write == b[i].write
                ? 1
                : 0;
  }
  EXPECT_LT(same, a.size() / 10);
  std::vector<Op> again = workload->generate(1, 1000);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].unit_at, again[i].unit_at);
    ASSERT_EQ(a[i].target, again[i].target);
  }
}

TEST(KeyHistory, RejectsStaleAndUnwrittenVersions) {
  using Verdict = KeyHistory::Verdict;
  KeyHistory history;
  uint64_t v1 = history.Issue(100);
  history.Ack(v1, 200);
  uint64_t sent_at_300 = history.stale_before();
  EXPECT_EQ(history.Check(0, sent_at_300), Verdict::kStale);  // overwritten by v1
  EXPECT_EQ(history.Check(v1, sent_at_300), Verdict::kOk);

  // Two PUTs in flight together may take effect in either order.
  uint64_t v2 = history.Issue(400);
  uint64_t v3 = history.Issue(410);
  uint64_t sent_at_420 = history.stale_before();
  history.Ack(v3, 500);
  history.Ack(v2, 510);
  EXPECT_EQ(history.Check(v1, sent_at_420), Verdict::kOk);  // v2 and v3 not yet acked
  uint64_t sent_at_600 = history.stale_before();
  EXPECT_EQ(history.Check(v2, sent_at_600), Verdict::kOk);
  EXPECT_EQ(history.Check(v3, sent_at_600), Verdict::kOk);
  EXPECT_EQ(history.Check(v1, sent_at_600), Verdict::kStale);
  EXPECT_EQ(history.Check(0, sent_at_600), Verdict::kStale);
  EXPECT_EQ(history.Check(v3 + 1, sent_at_600), Verdict::kNeverWritten);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, Determinism,
                         testing::Values("kvs_read", "kvs_overwrite", "control_rack",
                                         "control_rack_central"));

}  // namespace
}  // namespace perfbench
