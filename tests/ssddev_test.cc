// Smart-SSD tests: NAND constraints and timing, FTL mapping + GC + write
// amplification, FlashFs semantics including ACLs and sparse files, and the
// full Figure-2 file-service session over virtqueues, end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <span>

#include "src/auth/auth_client.h"
#include "src/memdev/memory_controller.h"
#include "src/ssddev/file_client.h"
#include "src/ssddev/file_protocol.h"
#include "src/ssddev/flash_fs.h"
#include "src/ssddev/ftl.h"
#include "src/ssddev/nand.h"
#include "src/ssddev/smart_ssd.h"
#include "tests/alloc_counter.h"
#include "tests/hex.h"
#include "tests/test_util.h"

namespace lastcpu::ssddev {
namespace {

using testutil::Harness;
using testutil::TestDevice;

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> list) { return list; }

// --- NAND -------------------------------------------------------------------

class NandTest : public ::testing::Test {
 protected:
  sim::Simulator simulator_;
};

TEST_F(NandTest, ProgramThenReadBack) {
  NandArray nand(&simulator_);
  std::optional<std::vector<uint8_t>> read;
  nand.ProgramPage(Ppa{0, 0, 0}, Bytes({1, 2, 3}), [](Status s) { ASSERT_TRUE(s.ok()); });
  nand.ReadPage(Ppa{0, 0, 0}, [&](Result<PageData> r) {
    ASSERT_TRUE(r.ok());
    read = *r;
  });
  simulator_.Run();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, Bytes({1, 2, 3}));
}

TEST_F(NandTest, ReadOfErasedPageFails) {
  NandArray nand(&simulator_);
  std::optional<Status> status;
  nand.ReadPage(Ppa{0, 0, 5}, [&](Result<PageData> r) { status = r.status(); });
  simulator_.Run();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code(), StatusCode::kFailedPrecondition);
}

TEST_F(NandTest, ProgramOfWrittenPageFails) {
  NandArray nand(&simulator_);
  std::optional<Status> second;
  nand.ProgramPage(Ppa{0, 0, 0}, Bytes({1}), [](Status s) { ASSERT_TRUE(s.ok()); });
  nand.ProgramPage(Ppa{0, 0, 0}, Bytes({2}), [&](Status s) { second = s; });
  simulator_.Run();
  EXPECT_EQ(second->code(), StatusCode::kFailedPrecondition);
}

TEST_F(NandTest, EraseEnablesReprogram) {
  NandArray nand(&simulator_);
  nand.ProgramPage(Ppa{0, 0, 0}, Bytes({1}), [](Status s) { ASSERT_TRUE(s.ok()); });
  nand.EraseBlock(0, 0, [](Status s) { ASSERT_TRUE(s.ok()); });
  bool ok = false;
  nand.ProgramPage(Ppa{0, 0, 0}, Bytes({2}), [&](Status s) { ok = s.ok(); });
  simulator_.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(nand.EraseCount(0, 0), 1u);
}

TEST_F(NandTest, OperationsTakeAsymmetricTime) {
  NandArray nand(&simulator_);
  sim::SimTime read_done;
  sim::SimTime program_done;
  nand.ProgramPage(Ppa{0, 0, 0}, Bytes({1}), [&](Status) { program_done = simulator_.Now(); });
  simulator_.Run();
  sim::SimTime start = simulator_.Now();
  nand.ReadPage(Ppa{0, 0, 0}, [&](Result<PageData>) { read_done = simulator_.Now(); });
  simulator_.Run();
  EXPECT_GT(program_done.nanos(), (read_done - start).nanos());
}

TEST_F(NandTest, DiesOperateInParallel) {
  NandArray nand(&simulator_);
  // Two programs on different dies overlap; two on the same die serialize.
  sim::SimTime same_die_done;
  nand.ProgramPage(Ppa{0, 0, 0}, Bytes({1}), [](Status) {});
  nand.ProgramPage(Ppa{0, 0, 1}, Bytes({2}), [&](Status) { same_die_done = simulator_.Now(); });
  simulator_.Run();

  sim::Simulator simulator2;
  NandArray nand2(&simulator2);
  sim::SimTime cross_die_done;
  nand2.ProgramPage(Ppa{0, 0, 0}, Bytes({1}), [](Status) {});
  nand2.ProgramPage(Ppa{1, 0, 0}, Bytes({2}), [&](Status) { cross_die_done = simulator2.Now(); });
  simulator2.Run();
  EXPECT_LT(cross_die_done.nanos(), same_die_done.nanos());
}

TEST_F(NandTest, InjectedReadErrorsSurface) {
  NandArray nand(&simulator_, NandGeometry{}, /*seed=*/3);
  nand.SetReadErrorRate(1.0);
  nand.ProgramPage(Ppa{0, 0, 0}, Bytes({1}), [](Status s) { ASSERT_TRUE(s.ok()); });
  std::optional<Status> status;
  nand.ReadPage(Ppa{0, 0, 0}, [&](Result<PageData> r) { status = r.status(); });
  simulator_.Run();
  EXPECT_EQ(status->code(), StatusCode::kDataLoss);
}

TEST_F(NandTest, OutOfRangeAddressRejected) {
  NandArray nand(&simulator_);
  std::optional<Status> status;
  nand.ReadPage(Ppa{99, 0, 0}, [&](Result<PageData> r) { status = r.status(); });
  simulator_.Run();
  EXPECT_EQ(status->code(), StatusCode::kInvalidArgument);
}

TEST_F(NandTest, OobTagProgrammedAtomicallyWithPage) {
  NandArray nand(&simulator_);
  OobTag tag;
  tag.kind = OobTag::Kind::kData;
  tag.seq = 7;
  tag.lpn = 42;
  tag.file_id = 3;
  tag.file_page = 1;
  tag.size_after = 999;
  nand.ProgramPage(Ppa{0, 0, 0}, Bytes({1, 2}), tag, [](Status s) { ASSERT_TRUE(s.ok()); });
  simulator_.Run();
  const OobTag& oob = nand.OobOf(Ppa{0, 0, 0});
  EXPECT_EQ(oob.kind, OobTag::Kind::kData);
  EXPECT_EQ(oob.seq, 7u);
  EXPECT_EQ(oob.lpn, 42u);
  EXPECT_EQ(oob.file_id, 3u);
  EXPECT_EQ(oob.file_page, 1u);
  EXPECT_EQ(oob.size_after, 999u);
}

TEST_F(NandTest, PowerCutTearsInflightProgram) {
  NandArray nand(&simulator_);
  bool completed = false;
  nand.ProgramPage(Ppa{0, 0, 0}, Bytes({1}), [&](Status) { completed = true; });
  nand.PowerCut();
  simulator_.Run();
  // The silicon that would have delivered the completion lost power.
  EXPECT_FALSE(completed);
  EXPECT_EQ(nand.StateOf(Ppa{0, 0, 0}), NandArray::PageState::kTorn);
  // A torn page is unreadable and unprogrammable...
  std::optional<Status> read;
  nand.ReadPage(Ppa{0, 0, 0}, [&](Result<PageData> r) { read = r.status(); });
  std::optional<Status> reprogram;
  nand.ProgramPage(Ppa{0, 0, 0}, Bytes({2}), [&](Status s) { reprogram = s; });
  simulator_.Run();
  EXPECT_FALSE(read->ok());
  EXPECT_FALSE(reprogram->ok());
  // ...until the block is erased.
  nand.EraseBlock(0, 0, [](Status s) { ASSERT_TRUE(s.ok()); });
  bool ok = false;
  nand.ProgramPage(Ppa{0, 0, 0}, Bytes({2}), [&](Status s) { ok = s.ok(); });
  simulator_.Run();
  EXPECT_TRUE(ok);
}

TEST_F(NandTest, PowerCutTearsInflightEraseAcrossWholeBlock) {
  NandArray nand(&simulator_);
  nand.ProgramPage(Ppa{0, 0, 3}, Bytes({1}), [](Status s) { ASSERT_TRUE(s.ok()); });
  simulator_.Run();
  bool erased = false;
  nand.EraseBlock(0, 0, [&](Status) { erased = true; });
  nand.PowerCut();
  simulator_.Run();
  EXPECT_FALSE(erased);
  // An interrupted erase pulse leaves every page of the block indeterminate.
  EXPECT_EQ(nand.StateOf(Ppa{0, 0, 0}), NandArray::PageState::kTorn);
  EXPECT_EQ(nand.StateOf(Ppa{0, 0, 3}), NandArray::PageState::kTorn);
  nand.EraseBlock(0, 0, [](Status s) { ASSERT_TRUE(s.ok()); });
  bool ok = false;
  nand.ProgramPage(Ppa{0, 0, 0}, Bytes({2}), [&](Status s) { ok = s.ok(); });
  simulator_.Run();
  EXPECT_TRUE(ok);
}

// --- FTL ---------------------------------------------------------------------

class FtlTest : public ::testing::Test {
 protected:
  FtlTest() : nand_(&simulator_, SmallGeometry()), ftl_(&simulator_, &nand_) {}

  static NandGeometry SmallGeometry() {
    NandGeometry g;
    g.dies = 2;
    g.blocks_per_die = 8;
    g.pages_per_block = 8;
    return g;
  }

  std::vector<uint8_t> PageOf(uint8_t fill) {
    return std::vector<uint8_t>(kNandPageBytes, fill);
  }

  void WriteSync(uint64_t lpn, uint8_t fill) {
    bool done = false;
    ftl_.Write(lpn, PageOf(fill), [&](Status s) {
      ASSERT_TRUE(s.ok()) << s.ToString();
      done = true;
    });
    simulator_.Run();
    ASSERT_TRUE(done);
  }

  std::vector<uint8_t> ReadSync(uint64_t lpn) {
    std::vector<uint8_t> out;
    ftl_.Read(lpn, [&](Result<std::span<const uint8_t>> r) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      out.assign(r->begin(), r->end());
    });
    simulator_.Run();
    return out;
  }

  sim::Simulator simulator_;
  NandArray nand_;
  Ftl ftl_;
};

TEST_F(FtlTest, CapacityReflectsOverProvisioning) {
  EXPECT_EQ(ftl_.logical_pages(),
            static_cast<uint64_t>(static_cast<double>(SmallGeometry().total_pages()) * 0.75));
}

TEST_F(FtlTest, WriteReadRoundTrip) {
  WriteSync(5, 0xAB);
  EXPECT_EQ(ReadSync(5), PageOf(0xAB));
  EXPECT_TRUE(ftl_.IsMapped(5));
  EXPECT_FALSE(ftl_.IsMapped(6));
}

TEST_F(FtlTest, OverwriteGoesOutOfPlace) {
  WriteSync(5, 0x11);
  WriteSync(5, 0x22);
  EXPECT_EQ(ReadSync(5), PageOf(0x22));
  // Two NAND programs for one logical page.
  EXPECT_EQ(nand_.stats().GetCounter("programs").value(), 2u);
}

TEST_F(FtlTest, UnwrittenReadFails) {
  std::optional<Status> status;
  ftl_.Read(7, [&](Result<std::span<const uint8_t>> r) { status = r.status(); });
  simulator_.Run();
  EXPECT_EQ(status->code(), StatusCode::kNotFound);
}

TEST_F(FtlTest, TrimUnmaps) {
  WriteSync(5, 0xAB);
  ftl_.Trim(5);
  EXPECT_FALSE(ftl_.IsMapped(5));
  std::optional<Status> status;
  ftl_.Read(5, [&](Result<std::span<const uint8_t>> r) { status = r.status(); });
  simulator_.Run();
  EXPECT_EQ(status->code(), StatusCode::kNotFound);
}

TEST_F(FtlTest, SustainedRandomOverwriteTriggersGcAndSurvives) {
  // Random overwrites over ~90% of the logical space leave victim blocks
  // holding a mix of valid and invalid pages, so GC must relocate live data
  // (write amplification > 1) and every page must survive intact.
  uint64_t working_set = ftl_.logical_pages() * 9 / 10;
  std::map<uint64_t, uint8_t> expected;
  sim::Rng rng(42);
  for (int i = 0; i < 1500; ++i) {
    uint64_t lpn = rng.NextBelow(working_set);
    auto fill = static_cast<uint8_t>(rng.NextBelow(256));
    WriteSync(lpn, fill);
    expected[lpn] = fill;
  }
  EXPECT_GT(ftl_.gc_runs(), 0u);
  EXPECT_GT(ftl_.WriteAmplification(), 1.0);
  EXPECT_GT(ftl_.stats().GetCounter("gc_relocations").value(), 0u);
  for (const auto& [lpn, fill] : expected) {
    ASSERT_EQ(ReadSync(lpn), PageOf(fill)) << "lpn " << lpn;
  }
}

TEST_F(FtlTest, WriteAmplificationIsOneWithoutGc) {
  WriteSync(0, 1);
  WriteSync(1, 2);
  EXPECT_DOUBLE_EQ(ftl_.WriteAmplification(), 1.0);
}

TEST_F(FtlTest, ReadCacheServesHotPages) {
  WriteSync(5, 0xAB);
  EXPECT_EQ(ReadSync(5), PageOf(0xAB));  // miss, fills cache
  uint64_t nand_reads = nand_.stats().GetCounter("reads").value();
  EXPECT_EQ(ReadSync(5), PageOf(0xAB));  // hit: no NAND access
  EXPECT_EQ(nand_.stats().GetCounter("reads").value(), nand_reads);
  EXPECT_GT(ftl_.cache_hits(), 0u);
}

// A miss hands out the NAND's own page buffer and caches that same buffer,
// so a later hit views it too: no read copies the page.
TEST_F(FtlTest, ReadsShareTheNandPageBuffer) {
  WriteSync(5, 0xAB);
  std::optional<Ppa> where;
  const NandGeometry& g = nand_.geometry();
  for (uint32_t die = 0; die < g.dies; ++die) {
    for (uint32_t block = 0; block < g.blocks_per_die; ++block) {
      for (uint32_t page = 0; page < g.pages_per_block; ++page) {
        Ppa ppa{die, block, page};
        if (nand_.StateOf(ppa) == NandArray::PageState::kWritten &&
            nand_.OobOf(ppa).kind == OobTag::Kind::kData && nand_.OobOf(ppa).lpn == 5) {
          where = ppa;
        }
      }
    }
  }
  ASSERT_TRUE(where.has_value());
  auto read_data = [&] {
    const uint8_t* data = nullptr;
    ftl_.Read(5, [&](Result<std::span<const uint8_t>> r) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      data = r->data();
    });
    simulator_.Run();
    return data;
  };
  const uint8_t* miss = read_data();
  const uint8_t* hit = read_data();
  EXPECT_EQ(ftl_.cache_misses(), 1u);
  EXPECT_EQ(ftl_.cache_hits(), 1u);
  EXPECT_EQ(miss, nand_.DataOf(*where).data());
  EXPECT_EQ(hit, miss);
}

TEST_F(FtlTest, CacheInvalidatedOnOverwriteAndTrim) {
  WriteSync(5, 0x11);
  EXPECT_EQ(ReadSync(5), PageOf(0x11));  // cached
  WriteSync(5, 0x22);
  EXPECT_EQ(ReadSync(5), PageOf(0x22));  // must not serve the stale copy
  ftl_.Trim(5);
  std::optional<Status> status;
  ftl_.Read(5, [&](Result<std::span<const uint8_t>> r) { status = r.status(); });
  simulator_.Run();
  EXPECT_EQ(status->code(), StatusCode::kNotFound);
}

TEST_F(FtlTest, ReadRacingWriteNeverPoisonsCache) {
  // Regression: a read that starts inside a write's program window walks the
  // old mapping; its cache fill must not survive the write's commit.
  WriteSync(5, 0x11);
  bool wrote = false;
  ftl_.Write(5, PageOf(0x22), [&](Status s) { wrote = s.ok(); });
  // Racing read, issued in the same instant (the old data is still mapped).
  ftl_.Read(5, [](Result<std::span<const uint8_t>>) {});
  simulator_.Run();
  ASSERT_TRUE(wrote);
  // Both the cached and uncached paths must now see the new data.
  EXPECT_EQ(ReadSync(5), PageOf(0x22));
  EXPECT_EQ(ReadSync(5), PageOf(0x22));
}

TEST_F(FtlTest, CacheEvictsLruUnderPressure) {
  sim::Simulator simulator;
  NandArray nand(&simulator, SmallGeometry());
  FtlConfig config;
  config.read_cache_pages = 2;
  Ftl small_cache(&simulator, &nand, config);
  auto page = [&](uint8_t fill) {
    return std::vector<uint8_t>(kNandPageBytes, fill);
  };
  for (uint64_t lpn = 0; lpn < 3; ++lpn) {
    small_cache.Write(lpn, page(static_cast<uint8_t>(lpn)), [](Status s) {
      ASSERT_TRUE(s.ok());
    });
    simulator.Run();
  }
  for (uint64_t lpn = 0; lpn < 3; ++lpn) {
    small_cache.Read(lpn, [](Result<std::span<const uint8_t>> r) { ASSERT_TRUE(r.ok()); });
    simulator.Run();
  }
  // Only 2 entries fit; re-reading the first is a miss again.
  uint64_t misses = small_cache.cache_misses();
  small_cache.Read(0, [](Result<std::span<const uint8_t>> r) { ASSERT_TRUE(r.ok()); });
  simulator.Run();
  EXPECT_EQ(small_cache.cache_misses(), misses + 1);
}

TEST_F(FtlTest, OutOfRangeLpnRejected) {
  std::optional<Status> status;
  ftl_.Write(ftl_.logical_pages(), PageOf(1), [&](Status s) { status = s; });
  simulator_.Run();
  EXPECT_EQ(status->code(), StatusCode::kInvalidArgument);
}

// --- FTL power loss and recovery ---------------------------------------------

TEST_F(FtlTest, RecoverRebuildsMappingFromOobScan) {
  WriteSync(1, 0x11);
  WriteSync(2, 0x22);
  WriteSync(1, 0x33);  // overwrite: highest sequence number must win
  ftl_.PowerCut();
  ftl_.Recover();
  simulator_.Run();
  EXPECT_TRUE(ftl_.IsMapped(1));
  EXPECT_TRUE(ftl_.IsMapped(2));
  EXPECT_FALSE(ftl_.IsMapped(3));
  EXPECT_EQ(ReadSync(1), PageOf(0x33));
  EXPECT_EQ(ReadSync(2), PageOf(0x22));
  EXPECT_EQ(ftl_.recoveries(), 1u);
  EXPECT_GE(ftl_.stats().GetCounter("recovered_pages").value(), 2u);
}

TEST_F(FtlTest, PowerCutFailsInflightOpsExactlyOnce) {
  WriteSync(1, 0x11);
  int write_cbs = 0;
  int read_cbs = 0;
  std::optional<Status> wrote;
  std::optional<Status> read;
  ftl_.Write(2, PageOf(0x22), [&](Status s) {
    ++write_cbs;
    wrote = s;
  });
  ftl_.Read(1, [&](Result<std::span<const uint8_t>> r) {
    ++read_cbs;
    read = r.status();
  });
  ftl_.PowerCut();
  // Both fail synchronously at the cut...
  EXPECT_EQ(write_cbs, 1);
  EXPECT_EQ(read_cbs, 1);
  EXPECT_EQ(wrote->code(), StatusCode::kUnavailable);
  EXPECT_EQ(read->code(), StatusCode::kUnavailable);
  // ...and the already-scheduled NAND completions must not double-deliver.
  simulator_.Run();
  EXPECT_EQ(write_cbs, 1);
  EXPECT_EQ(read_cbs, 1);
}

TEST_F(FtlTest, RecoveryDiscardsTornTailWrite) {
  WriteSync(1, 0x11);
  std::optional<Status> tail;
  ftl_.Write(1, PageOf(0x22), [&](Status s) { tail = s; });
  ftl_.PowerCut();  // the overwrite is mid-program: its page tears
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->code(), StatusCode::kUnavailable);
  ftl_.Recover();
  simulator_.Run();
  // The torn tail entry is discarded; the last *acked* value survives.
  EXPECT_EQ(ReadSync(1), PageOf(0x11));
  EXPECT_GE(ftl_.stats().GetCounter("torn_pages_discarded").value(), 1u);
}

TEST_F(FtlTest, TrimTombstoneDurableAfterSyncMeta) {
  WriteSync(1, 0x11);
  ftl_.Trim(1);
  bool synced = false;
  ftl_.SyncMeta([&](Status s) {
    ASSERT_TRUE(s.ok()) << s.ToString();
    synced = true;
  });
  simulator_.Run();
  ASSERT_TRUE(synced);
  ftl_.PowerCut();
  ftl_.Recover();
  simulator_.Run();
  EXPECT_FALSE(ftl_.IsMapped(1));
}

TEST_F(FtlTest, UnsyncedTrimResurrectsOnRecovery) {
  // Contract check: Trim is applied in DRAM immediately but its tombstone is
  // durable only after SyncMeta. A cut before the flush loses the trim and
  // the old data legitimately comes back.
  WriteSync(1, 0x11);
  ftl_.Trim(1);
  EXPECT_FALSE(ftl_.IsMapped(1));
  ftl_.PowerCut();
  ftl_.Recover();
  simulator_.Run();
  EXPECT_TRUE(ftl_.IsMapped(1));
  EXPECT_EQ(ReadSync(1), PageOf(0x11));
}

TEST_F(FtlTest, PowerCutDuringGcRecoversAllAckedData) {
  // Sustained random overwrite forces GC on the small geometry; the cut is
  // armed to land one nanosecond after a NAND program issued while GC
  // relocations are in progress — the window where a mapping exists in two
  // places at once and recovery must pick a consistent winner.
  uint64_t working_set = ftl_.logical_pages() * 9 / 10;
  std::map<uint64_t, uint8_t> acked;
  sim::Rng rng(7);
  bool armed = false;
  bool cut = false;
  nand_.SetProgramObserver([&](uint64_t) {
    if (!armed && ftl_.stats().GetCounter("gc_relocations").value() >= 4) {
      armed = true;
      simulator_.Schedule(sim::Duration::Nanos(1), [&] {
        ftl_.PowerCut();
        cut = true;
      });
    }
  });
  for (int i = 0; i < 1500 && !cut; ++i) {
    uint64_t lpn = rng.NextBelow(working_set);
    auto fill = static_cast<uint8_t>(rng.NextBelow(256));
    std::optional<Status> status;
    ftl_.Write(lpn, PageOf(fill), [&](Status s) { status = s; });
    simulator_.Run();
    if (status.has_value() && status->ok()) {
      acked[lpn] = fill;
    }
  }
  nand_.SetProgramObserver(nullptr);
  ASSERT_TRUE(cut);
  ASSERT_GT(ftl_.gc_relocated_pages(), 0u);
  ftl_.Recover();
  simulator_.Run();
  for (const auto& [lpn, fill] : acked) {
    ASSERT_EQ(ReadSync(lpn), PageOf(fill)) << "lpn " << lpn;
  }
}

TEST_F(FtlTest, RechargedRecoveryOccupiesDies) {
  // Recovery is not free: the full-media OOB scan charges modeled busy time
  // to every die, so the first post-recovery read completes later than a
  // cold read would.
  WriteSync(1, 0x11);
  simulator_.Run();
  ftl_.PowerCut();
  ftl_.Recover();
  sim::SimTime start = simulator_.Now();
  sim::SimTime done;
  ftl_.Read(1, [&](Result<std::span<const uint8_t>> r) {
    ASSERT_TRUE(r.ok());
    done = simulator_.Now();
  });
  simulator_.Run();
  // 8 blocks * 8 pages * 200ns scan = 12.8us of scan ahead of the 50us read.
  EXPECT_GT((done - start).nanos(), kNandReadLatency.nanos());
}

// --- format goldens -------------------------------------------------------------
//
// The exact bytes of the FTL journal page and of both file-ring headers. Every
// field holds a distinct value, so a field at the wrong offset, of the wrong
// width or in the wrong byte order changes the bytes even when encoder and
// decoder agree.

std::string Describe(const MetaRecord& r) {
  auto join = [](const std::vector<std::string>& names) {
    std::string out;
    for (const std::string& name : names) {
      out += (out.empty() ? "" : ",") + name;
    }
    return out;
  };
  return "kind=" + std::to_string(static_cast<int>(r.kind)) + " seq=" + std::to_string(r.seq) +
         " lpn=" + std::to_string(r.lpn) + " file=" + std::to_string(r.file_id) +
         " name=" + r.name + " owner=" + r.acl_owner + " readers=" + join(r.acl_readers) +
         " writers=" + join(r.acl_writers);
}

TEST_F(FtlTest, MetaPageGoldenBytes) {
  WriteSync(3, 0x33);  // mapped, so its trim journals a tombstone
  MetaRecord create;
  create.kind = MetaRecord::Kind::kFsCreate;
  create.lpn = 0x0102030405060708;
  create.file_id = 0x11121314;
  create.name = "kv.log";
  create.acl_owner = "nic";
  create.acl_readers = {"nic", "ssd"};
  create.acl_writers = {"app"};
  ftl_.AppendMeta(create);
  ftl_.Trim(3);
  bool synced = false;
  ftl_.SyncMeta([&](Status s) {
    ASSERT_TRUE(s.ok()) << s.ToString();
    synced = true;
  });
  simulator_.Run();
  ASSERT_TRUE(synced);

  std::vector<std::string> pages;
  const NandGeometry& g = nand_.geometry();
  for (uint32_t d = 0; d < g.dies; ++d) {
    for (uint32_t b = 0; b < g.blocks_per_die; ++b) {
      for (uint32_t p = 0; p < g.pages_per_block; ++p) {
        Ppa ppa{d, b, p};
        if (nand_.StateOf(ppa) == NandArray::PageState::kWritten &&
            nand_.OobOf(ppa).kind == OobTag::Kind::kMeta) {
          pages.push_back(testutil::BytesToHex(nand_.DataOf(ppa)));
        }
      }
    }
  }
  // count u32, then each record: kind | seq u64 | lpn u64 | file_id u32 |
  // name | owner | readers | writers, a string as u16 length + bytes and a
  // list as u16 count + strings.
  EXPECT_EQ(pages, std::vector<std::string>{
                       "02000000"
                       "02" "0200000000000000" "0807060504030201" "14131211"
                       "0600" "6b762e6c6f67" "0300" "6e6963"
                       "0200" "0300" "6e6963" "0300" "737364" "0100" "0300" "617070"
                       "01" "0300000000000000" "0300000000000000" "00000000"
                       "0000" "0000" "0000" "0000"});

  ftl_.PowerCut();
  ftl_.Recover();
  simulator_.Run();
  std::vector<std::string> recovered;
  for (const MetaRecord& record : ftl_.recovered_meta()) {
    recovered.push_back(Describe(record));
  }
  EXPECT_EQ(recovered,
            (std::vector<std::string>{
                "kind=2 seq=2 lpn=72623859790382856 file=286397204 name=kv.log owner=nic "
                "readers=nic,ssd writers=app",
                "kind=1 seq=3 lpn=3 file=0 name= owner= readers= writers="}));
}

TEST(FileHeaderGolden, Request) {
  const FileRequestHeader header{FileOp::kWrite, 0x0102030405060708, 0x11121314};
  // op | 3 reserved | offset u64 | length u32
  constexpr std::string_view kHex = "02" "000000" "0807060504030201" "14131211";
  std::vector<uint8_t> wire(FileRequestHeader::kWireBytes);
  header.EncodeTo(wire);
  EXPECT_EQ(testutil::BytesToHex(wire), kHex);
  auto decoded = FileRequestHeader::DecodeFrom(testutil::HexToBytes(kHex));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->op, header.op);
  EXPECT_EQ(decoded->offset, header.offset);
  EXPECT_EQ(decoded->length, header.length);
}

TEST(FileHeaderGolden, Response) {
  const FileResponseHeader header{StatusCode::kNotFound, 0x00001314, 0x2122232425262728};
  // status | 3 reserved | length u32 | file_size u64
  constexpr std::string_view kHex = "02" "000000" "14130000" "2827262524232221";
  std::vector<uint8_t> wire(FileResponseHeader::kWireBytes);
  header.EncodeTo(wire);
  EXPECT_EQ(testutil::BytesToHex(wire), kHex);
  auto decoded = FileResponseHeader::DecodeFrom(testutil::HexToBytes(kHex));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->status, header.status);
  EXPECT_EQ(decoded->length, header.length);
  EXPECT_EQ(decoded->file_size, header.file_size);
}

// --- FlashFs ------------------------------------------------------------------

class FlashFsTest : public ::testing::Test {
 protected:
  FlashFsTest() : nand_(&simulator_), ftl_(&simulator_, &nand_), fs_(&ftl_) {}

  void WriteSync(const std::string& name, uint64_t offset, std::vector<uint8_t> data) {
    bool done = false;
    fs_.Write(name, offset, std::move(data), [&](Status s) {
      ASSERT_TRUE(s.ok()) << s.ToString();
      done = true;
    });
    simulator_.Run();
    ASSERT_TRUE(done);
  }

  std::vector<uint8_t> ReadSync(const std::string& name, uint64_t offset, uint64_t length) {
    std::vector<uint8_t> out;
    bool done = false;
    fs_.Read(name, offset, length, [&](Result<std::vector<uint8_t>> r) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      out = *r;
      done = true;
    });
    simulator_.Run();
    EXPECT_TRUE(done);
    return out;
  }

  sim::Simulator simulator_;
  NandArray nand_;
  Ftl ftl_;
  FlashFs fs_;
};

TEST_F(FlashFsTest, CreateWriteReadDelete) {
  ASSERT_TRUE(fs_.Create("kv.log").ok());
  EXPECT_TRUE(fs_.Exists("kv.log"));
  WriteSync("kv.log", 0, Bytes({10, 20, 30}));
  EXPECT_EQ(ReadSync("kv.log", 0, 3), Bytes({10, 20, 30}));
  EXPECT_EQ(fs_.Stat("kv.log")->size, 3u);
  ASSERT_TRUE(fs_.Delete("kv.log").ok());
  EXPECT_FALSE(fs_.Exists("kv.log"));
}

TEST_F(FlashFsTest, DuplicateCreateRejected) {
  ASSERT_TRUE(fs_.Create("a").ok());
  EXPECT_EQ(fs_.Create("a").code(), StatusCode::kAlreadyExists);
}

TEST_F(FlashFsTest, MissingFileOperationsFail) {
  EXPECT_EQ(fs_.Delete("nope").code(), StatusCode::kNotFound);
  EXPECT_FALSE(fs_.Stat("nope").ok());
  std::optional<Status> status;
  fs_.Read("nope", 0, 1, [&](Result<std::vector<uint8_t>> r) { status = r.status(); });
  simulator_.Run();
  EXPECT_EQ(status->code(), StatusCode::kNotFound);
}

TEST_F(FlashFsTest, CrossPageWriteAndRead) {
  ASSERT_TRUE(fs_.Create("big").ok());
  std::vector<uint8_t> data(10000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i % 251);
  }
  WriteSync("big", 0, data);
  EXPECT_EQ(ReadSync("big", 0, data.size()), data);
  // Unaligned slice in the middle.
  std::vector<uint8_t> slice(ReadSync("big", 4000, 300));
  ASSERT_EQ(slice.size(), 300u);
  for (size_t i = 0; i < slice.size(); ++i) {
    EXPECT_EQ(slice[i], data[4000 + i]);
  }
}

TEST_F(FlashFsTest, PartialOverwritePreservesNeighbors) {
  ASSERT_TRUE(fs_.Create("f").ok());
  WriteSync("f", 0, std::vector<uint8_t>(100, 0xAA));
  WriteSync("f", 40, Bytes({1, 2, 3}));
  auto out = ReadSync("f", 0, 100);
  EXPECT_EQ(out[39], 0xAA);
  EXPECT_EQ(out[40], 1);
  EXPECT_EQ(out[42], 3);
  EXPECT_EQ(out[43], 0xAA);
}

TEST_F(FlashFsTest, SparseGapReadsAsZeros) {
  ASSERT_TRUE(fs_.Create("sparse").ok());
  WriteSync("sparse", 3 * kPageSize, Bytes({7}));
  auto out = ReadSync("sparse", kPageSize, 16);
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
  EXPECT_EQ(fs_.Stat("sparse")->size, 3 * kPageSize + 1);
}

TEST_F(FlashFsTest, ReadPastEofClamps) {
  ASSERT_TRUE(fs_.Create("f").ok());
  WriteSync("f", 0, Bytes({1, 2, 3}));
  EXPECT_EQ(ReadSync("f", 2, 100), Bytes({3}));
  EXPECT_TRUE(ReadSync("f", 50, 10).empty());
}

TEST_F(FlashFsTest, AppendReportsOffsets) {
  ASSERT_TRUE(fs_.Create("log").ok());
  std::vector<uint64_t> offsets;
  fs_.Append("log", Bytes({1, 1}), [&](Result<uint64_t> r) {
    ASSERT_TRUE(r.ok());
    offsets.push_back(*r);
  });
  simulator_.Run();
  fs_.Append("log", Bytes({2, 2, 2}), [&](Result<uint64_t> r) {
    ASSERT_TRUE(r.ok());
    offsets.push_back(*r);
  });
  simulator_.Run();
  ASSERT_EQ(offsets.size(), 2u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[1], 2u);
  EXPECT_EQ(ReadSync("log", 0, 5), Bytes({1, 1, 2, 2, 2}));
}

TEST_F(FlashFsTest, ConcurrentAppendsGetDisjointRanges) {
  ASSERT_TRUE(fs_.Create("log").ok());
  std::vector<uint64_t> offsets;
  for (int i = 0; i < 4; ++i) {
    fs_.Append("log", std::vector<uint8_t>(10, static_cast<uint8_t>(i)),
               [&](Result<uint64_t> r) {
                 ASSERT_TRUE(r.ok());
                 offsets.push_back(*r);
               });
  }
  simulator_.Run();
  ASSERT_EQ(offsets.size(), 4u);
  std::sort(offsets.begin(), offsets.end());
  for (size_t i = 0; i < offsets.size(); ++i) {
    EXPECT_EQ(offsets[i], i * 10);
  }
  EXPECT_EQ(fs_.Stat("log")->size, 40u);
}

TEST_F(FlashFsTest, DeleteRecyclesPages) {
  ASSERT_TRUE(fs_.Create("f").ok());
  WriteSync("f", 0, std::vector<uint8_t>(8 * kPageSize, 1));
  uint64_t free_after_write = fs_.free_pages();
  ASSERT_TRUE(fs_.Delete("f").ok());
  // Freed lpns are parked until the delete record is durable on media, so the
  // pages come back only after the journal flush completes.
  simulator_.Run();
  EXPECT_EQ(fs_.free_pages(), free_after_write + 8);
}

// --- FlashFs power loss and recovery -----------------------------------------

// Models SmartSsd::OnPowerLoss / OnReset ordering: filesystem queues drop
// first, then the FTL (which tears the NAND), and recovery replays the FTL's
// journal before the filesystem rebuilds its namespace from it.
void PowerCycle(FlashFs& fs, Ftl& ftl, sim::Simulator& simulator) {
  fs.PowerCut();
  ftl.PowerCut();
  ftl.Recover();
  fs.Recover();
  simulator.Run();
}

TEST_F(FlashFsTest, RecoverRestoresFilesDataAndAcl) {
  FileAcl acl;
  acl.owner = "alice";
  acl.readers = {"bob"};
  ASSERT_TRUE(fs_.Create("f", acl).ok());
  std::vector<uint8_t> data(3 * kPageSize + 100);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i % 251);
  }
  WriteSync("f", 0, data);  // the ack implies the create record is durable too
  PowerCycle(fs_, ftl_, simulator_);
  ASSERT_TRUE(fs_.Exists("f"));
  EXPECT_EQ(fs_.Stat("f")->size, data.size());
  EXPECT_EQ(fs_.Stat("f")->acl.owner, "alice");
  EXPECT_TRUE(fs_.Stat("f")->acl.MayRead("bob"));
  EXPECT_FALSE(fs_.Stat("f")->acl.MayRead("mallory"));
  EXPECT_EQ(ReadSync("f", 0, data.size()), data);
}

TEST_F(FlashFsTest, UnackedCreateAbsentAfterPowerCut) {
  ASSERT_TRUE(fs_.Create("ghost").ok());  // record buffered in DRAM only
  std::optional<Status> wrote;
  fs_.Write("ghost", 0, std::vector<uint8_t>(kPageSize, 1), [&](Status s) { wrote = s; });
  // Cut before anything flushes: the queued write must fail, not hang...
  fs_.PowerCut();
  ftl_.PowerCut();
  ASSERT_TRUE(wrote.has_value());
  EXPECT_EQ(wrote->code(), StatusCode::kUnavailable);
  ftl_.Recover();
  fs_.Recover();
  simulator_.Run();
  // ...and the never-durable file is cleanly absent.
  EXPECT_FALSE(fs_.Exists("ghost"));
}

TEST_F(FlashFsTest, DurableDeleteStaysDeletedAfterPowerCut) {
  ASSERT_TRUE(fs_.Create("f").ok());
  WriteSync("f", 0, std::vector<uint8_t>(4 * kPageSize, 9));
  ASSERT_TRUE(fs_.Delete("f").ok());
  simulator_.Run();  // delete record + trim tombstones reach media
  uint64_t free_before = fs_.free_pages();
  PowerCycle(fs_, ftl_, simulator_);
  EXPECT_FALSE(fs_.Exists("f"));
  EXPECT_EQ(fs_.free_pages(), free_before);
}

TEST_F(FlashFsTest, RecreateAfterDeleteKeepsNewIncarnation) {
  // Same name, two incarnations: recovery must resolve the name to the
  // newest create record and not leak the old incarnation's pages into it.
  ASSERT_TRUE(fs_.Create("f").ok());
  WriteSync("f", 0, std::vector<uint8_t>(2 * kPageSize, 0xAA));
  ASSERT_TRUE(fs_.Delete("f").ok());
  simulator_.Run();
  ASSERT_TRUE(fs_.Create("f").ok());
  WriteSync("f", 0, std::vector<uint8_t>(kPageSize, 0xBB));
  PowerCycle(fs_, ftl_, simulator_);
  ASSERT_TRUE(fs_.Exists("f"));
  EXPECT_EQ(fs_.Stat("f")->size, kPageSize);
  EXPECT_EQ(ReadSync("f", 0, kPageSize), std::vector<uint8_t>(kPageSize, 0xBB));
}

// Regression for the fast-fail contract (matches the KVS engine's): a power
// cut mid-request fails every queued and in-flight filesystem write with
// Unavailable exactly once — nothing hangs, nothing double-completes.
TEST_F(FlashFsTest, PowerCutFailsQueuedAndInflightWritesWithUnavailable) {
  ASSERT_TRUE(fs_.Create("f").ok());
  simulator_.Run();  // create barrier durable; writes queue behind nothing
  int callbacks = 0;
  std::vector<StatusCode> codes;
  fs_.Write("f", 0, std::vector<uint8_t>(2 * kPageSize, 1), [&](Status s) {
    ++callbacks;
    codes.push_back(s.code());
  });
  fs_.Write("f", 2 * kPageSize, std::vector<uint8_t>(kPageSize, 2), [&](Status s) {
    ++callbacks;
    codes.push_back(s.code());
  });
  // First write is in flight at the FTL, second queued at the filesystem.
  fs_.PowerCut();
  ftl_.PowerCut();
  ASSERT_EQ(callbacks, 2);
  EXPECT_EQ(codes[0], StatusCode::kUnavailable);
  EXPECT_EQ(codes[1], StatusCode::kUnavailable);
  simulator_.Run();
  EXPECT_EQ(callbacks, 2);
}

// A file deleted while a read is in flight fails the read with Aborted: a
// one-page read, and a three-page read whose file goes once its first page
// has landed.
TEST_F(FlashFsTest, ReadOfAFileDeletedMidReadReportsAborted) {
  ASSERT_TRUE(fs_.Create("f").ok());
  WriteSync("f", 0, std::vector<uint8_t>(3 * kPageSize, 0x5A));
  std::optional<Status> one_page;
  fs_.Read("f", 100, 200, [&](Result<std::vector<uint8_t>> r) { one_page = r.status(); });
  ASSERT_TRUE(fs_.Delete("f").ok());
  simulator_.Run();
  ASSERT_TRUE(one_page.has_value());
  EXPECT_EQ(one_page->code(), StatusCode::kAborted);

  ASSERT_TRUE(fs_.Create("g").ok());
  WriteSync("g", 0, std::vector<uint8_t>(3 * kPageSize, 0x5B));
  sim::Counter& reads = ftl_.stats().GetCounter("host_reads");
  uint64_t before = reads.value();
  int calls = 0;
  std::optional<Status> three_pages;
  fs_.Read("g", 0, 3 * kPageSize, [&](Result<std::vector<uint8_t>> r) {
    ++calls;
    three_pages = r.status();
  });
  while (reads.value() < before + 2 && simulator_.Step()) {
  }
  ASSERT_EQ(reads.value(), before + 2);  // the first page has landed, the second is in flight
  ASSERT_TRUE(fs_.Delete("g").ok());
  simulator_.Run();
  EXPECT_EQ(calls, 1);
  ASSERT_TRUE(three_pages.has_value());
  EXPECT_EQ(three_pages->code(), StatusCode::kAborted);
  EXPECT_EQ(reads.value(), before + 2);  // the third page is never read
}

// A file deleted and created again under the same name while a read or a
// write of it is in flight is a different file: the read and the write
// report Aborted instead of touching the new file's pages.
TEST_F(FlashFsTest, OpsOnAFileRecreatedMidFlightReportAborted) {
  ASSERT_TRUE(fs_.Create("f").ok());
  WriteSync("f", 0, std::vector<uint8_t>(3 * kPageSize, 0x5A));
  sim::Counter& reads = ftl_.stats().GetCounter("host_reads");
  uint64_t reads_before = reads.value();
  std::optional<Status> read;
  fs_.Read("f", 0, 3 * kPageSize, [&](Result<std::vector<uint8_t>> r) { read = r.status(); });
  while (reads.value() < reads_before + 2 && simulator_.Step()) {
  }
  ASSERT_TRUE(fs_.Delete("f").ok());
  ASSERT_TRUE(fs_.Create("f").ok());
  simulator_.Run();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->code(), StatusCode::kAborted);

  sim::Counter& writes = ftl_.stats().GetCounter("host_writes");
  uint64_t writes_before = writes.value();
  std::optional<Status> wrote;
  fs_.Write("f", 0, std::vector<uint8_t>(3 * kPageSize, 0x5B), [&](Status s) { wrote = s; });
  while (writes.value() < writes_before + 2 && simulator_.Step()) {
  }
  ASSERT_EQ(writes.value(), writes_before + 2);
  ASSERT_TRUE(fs_.Delete("f").ok());
  ASSERT_TRUE(fs_.Create("f").ok());
  simulator_.Run();
  ASSERT_TRUE(wrote.has_value());
  EXPECT_EQ(wrote->code(), StatusCode::kAborted);
  EXPECT_EQ(writes.value(), writes_before + 2);  // the third page is never written
  EXPECT_EQ(fs_.Stat("f")->size, 0u);
  WriteSync("f", 0, Bytes({1, 2, 3}));
  EXPECT_EQ(ReadSync("f", 0, 3), Bytes({1, 2, 3}));
}

// A power cut while a three-page read has its second page at the FTL fails
// the read once, with Unavailable.
TEST_F(FlashFsTest, PowerCutFailsAMultiPageReadOnceWithUnavailable) {
  ASSERT_TRUE(fs_.Create("f").ok());
  WriteSync("f", 0, std::vector<uint8_t>(3 * kPageSize, 0x5A));
  sim::Counter& reads = ftl_.stats().GetCounter("host_reads");
  uint64_t before = reads.value();
  int calls = 0;
  std::optional<Status> status;
  fs_.Read("f", 0, 3 * kPageSize, [&](Result<std::vector<uint8_t>> r) {
    ++calls;
    status = r.status();
  });
  while (reads.value() < before + 2 && simulator_.Step()) {
  }
  ASSERT_EQ(reads.value(), before + 2);
  fs_.PowerCut();
  ftl_.PowerCut();
  EXPECT_EQ(calls, 1);
  simulator_.Run();
  EXPECT_EQ(calls, 1);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code(), StatusCode::kUnavailable);
}

// Every page of a read shares one page walk, and a warm three-page read from
// the FTL cache allocates exactly once: its result.
TEST_F(FlashFsTest, WarmMultiPageReadAllocatesOnlyItsResult) {
  ASSERT_TRUE(fs_.Create("f").ok());
  WriteSync("f", 0, std::vector<uint8_t>(3 * kPageSize, 0x5A));
  auto read_once = [&] {
    std::optional<Status> read;
    fs_.Read("f", 100, 2 * kPageSize + 200,
             [&](Result<std::vector<uint8_t>> r) { read = r.status(); });
    simulator_.Run();
    ASSERT_TRUE(read.has_value() && read->ok());
  };
  read_once();  // fills the FTL cache
  read_once();  // warms the event pool, the op registry and the read list
  uint64_t hits = ftl_.cache_hits();
  uint64_t before = alloc_counter::Calls();
  read_once();
  EXPECT_EQ(alloc_counter::Calls() - before, 1u);
  EXPECT_EQ(ftl_.cache_hits(), hits + 3);
}

TEST_F(FlashFsTest, AckedWritesSurviveRepeatedPowerCuts) {
  ASSERT_TRUE(fs_.Create("log").ok());
  std::vector<uint8_t> page_a(kPageSize, 0x0A);
  std::vector<uint8_t> page_b(kPageSize, 0x0B);
  WriteSync("log", 0, page_a);
  PowerCycle(fs_, ftl_, simulator_);
  ASSERT_TRUE(fs_.Exists("log"));
  WriteSync("log", kPageSize, page_b);
  PowerCycle(fs_, ftl_, simulator_);
  EXPECT_EQ(ReadSync("log", 0, kPageSize), page_a);
  EXPECT_EQ(ReadSync("log", kPageSize, kPageSize), page_b);
  EXPECT_EQ(fs_.Stat("log")->size, 2 * kPageSize);
}

// An append torn by a power cut after its first page is on media leaves the
// file at its old size. Were the first page's slice durable, a log would
// hold a record prefix, and its recovery scan would stop there, short of
// every record appended after the restart.
TEST_F(FlashFsTest, TornAppendLeavesTheOldSize) {
  ASSERT_TRUE(fs_.Create("log").ok());
  WriteSync("log", 0, std::vector<uint8_t>(100, 0x11));
  uint64_t programs_before = nand_.stats().GetCounter("programs").value();
  nand_.SetProgramObserver([&](uint64_t issued) {
    if (issued == programs_before + 2) {  // the append's second page
      simulator_.Schedule(sim::Duration::Nanos(1), [&] {
        fs_.PowerCut();
        ftl_.PowerCut();
      });
    }
  });
  std::optional<Result<uint64_t>> appended;
  fs_.Append("log", std::vector<uint8_t>(2 * kPageSize, 0x22),
             [&](Result<uint64_t> r) { appended = r; });
  simulator_.Run();
  nand_.SetProgramObserver(nullptr);
  ASSERT_TRUE(appended.has_value());
  EXPECT_EQ(appended->status().code(), StatusCode::kUnavailable);
  ftl_.Recover();
  fs_.Recover();
  simulator_.Run();
  EXPECT_EQ(fs_.Stat("log")->size, 100u);
  EXPECT_EQ(ReadSync("log", 0, kPageSize), std::vector<uint8_t>(100, 0x11));
}

// Appends queued behind a running write go to media as one batch: the three
// that wait share one read-modify-write of the tail page and one NAND
// program, and each reports its offset, in submission order, once that page
// is durable.
TEST_F(FlashFsTest, AppendsQueuedBehindARunningWriteShareOneProgram) {
  ASSERT_TRUE(fs_.Create("log").ok());
  simulator_.Run();  // the create barrier is durable, so the first append runs at once
  sim::Counter& programs = nand_.stats().GetCounter("programs");
  uint64_t before = programs.value();
  std::vector<uint64_t> offsets;
  std::vector<uint8_t> expected;
  for (uint8_t i = 0; i < 4; ++i) {
    std::vector<uint8_t> record(100, static_cast<uint8_t>(0x10 + i));
    expected.insert(expected.end(), record.begin(), record.end());
    fs_.Append("log", std::move(record), [&](Result<uint64_t> r) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      offsets.push_back(*r);
    });
  }
  simulator_.Run();
  EXPECT_EQ(offsets, (std::vector<uint64_t>{0, 100, 200, 300}));
  EXPECT_EQ(programs.value() - before, 2u);  // the first append's, then the batch's
  EXPECT_EQ(ReadSync("log", 0, 400), expected);
  PowerCycle(fs_, ftl_, simulator_);
  EXPECT_EQ(fs_.Stat("log")->size, 400u);
  EXPECT_EQ(ReadSync("log", 0, 400), expected);
}

// A batch's writes complete one by one, and a completion may submit more
// writes to the file: they queue behind the batch, which stays running until
// its last completion has run, and go to media as the next batch.
TEST_F(FlashFsTest, WritesSubmittedByABatchCompletionFormTheNextBatch) {
  ASSERT_TRUE(fs_.Create("log").ok());
  simulator_.Run();
  sim::Counter& programs = nand_.stats().GetCounter("programs");
  uint64_t before = programs.value();
  std::vector<uint64_t> offsets;
  auto record = [&offsets](Result<uint64_t> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    offsets.push_back(*r);
  };
  fs_.Append("log", std::vector<uint8_t>(100, 1), record);  // runs alone
  fs_.Append("log", std::vector<uint8_t>(100, 2), [&](Result<uint64_t> r) {
    record(r);
    fs_.Append("log", std::vector<uint8_t>(100, 4), record);
    fs_.Append("log", std::vector<uint8_t>(100, 5), record);
  });
  fs_.Append("log", std::vector<uint8_t>(100, 3), record);
  simulator_.Run();
  EXPECT_EQ(offsets, (std::vector<uint64_t>{0, 100, 200, 300, 400}));
  EXPECT_EQ(programs.value() - before, 3u);  // 1; then 2 and 3; then 4 and 5
  std::vector<uint8_t> expected;
  for (uint8_t fill = 1; fill <= 5; ++fill) {
    expected.insert(expected.end(), 100, fill);
  }
  EXPECT_EQ(ReadSync("log", 0, 500), expected);
}

// A batch torn on its last page's program fails each of its writes once,
// with Unavailable, and leaves the file at its size before the batch: only
// the batch's last page carries the batch's end.
TEST_F(FlashFsTest, TornBatchFailsEachWriteOnceAndLeavesTheOldSize) {
  ASSERT_TRUE(fs_.Create("log").ok());
  WriteSync("log", 0, std::vector<uint8_t>(100, 0x11));
  uint64_t programs_before = nand_.stats().GetCounter("programs").value();
  nand_.SetProgramObserver([&](uint64_t issued) {
    if (issued == programs_before + 3) {  // the batch's second and last page
      simulator_.Schedule(sim::Duration::Nanos(1), [&] {
        fs_.PowerCut();
        ftl_.PowerCut();
      });
    }
  });
  // The first append runs alone. The three behind it, 2,000 bytes each, form
  // one batch over bytes 200 to 6,200: pages 0 and 1.
  std::vector<int> calls(4, 0);
  std::vector<StatusCode> codes(4, StatusCode::kOk);
  for (size_t i = 0; i < 4; ++i) {
    fs_.Append("log", std::vector<uint8_t>(i == 0 ? 100 : 2000, 0x22),
               [&calls, &codes, i](Result<uint64_t> r) {
                 ++calls[i];
                 codes[i] = r.status().code();
               });
  }
  simulator_.Run();
  nand_.SetProgramObserver(nullptr);
  EXPECT_EQ(calls, (std::vector<int>{1, 1, 1, 1}));
  EXPECT_EQ(codes, (std::vector<StatusCode>{StatusCode::kOk, StatusCode::kUnavailable,
                                            StatusCode::kUnavailable, StatusCode::kUnavailable}));
  ftl_.Recover();
  fs_.Recover();
  simulator_.Run();
  EXPECT_EQ(fs_.Stat("log")->size, 200u);
  std::vector<uint8_t> expected(100, 0x11);
  expected.resize(200, 0x22);
  EXPECT_EQ(ReadSync("log", 0, kPageSize), expected);
}

// A batch takes only the writes to the same file that begin where the one
// before ends: a gap ends it, and so does a file created again under the
// same name, whose create barrier and new identity both stand between the
// old file's writes and the new one's.
TEST_F(FlashFsTest, GapsAndRecreatedFilesEndABatch) {
  ASSERT_TRUE(fs_.Create("f").ok());
  simulator_.Run();
  std::vector<std::pair<char, StatusCode>> landed;  // completion order
  auto write = [&](char name, uint64_t offset) {
    fs_.Write("f", offset, std::vector<uint8_t>(100, static_cast<uint8_t>(name)),
              [&landed, name](Status s) { landed.emplace_back(name, s.code()); });
  };
  // A runs alone; B follows it, but C leaves a gap, so B goes alone and C
  // takes D with it: three page programs, not two.
  uint64_t writes_before = ftl_.host_writes();
  write('A', 0);
  write('B', 100);
  write('C', 300);
  write('D', 400);
  simulator_.Run();
  EXPECT_EQ(landed, (std::vector<std::pair<char, StatusCode>>{
                        {'A', StatusCode::kOk},
                        {'B', StatusCode::kOk},
                        {'C', StatusCode::kOk},
                        {'D', StatusCode::kOk}}));
  EXPECT_EQ(ftl_.host_writes() - writes_before, 3u);
  std::vector<uint8_t> expected;
  for (uint8_t fill : Bytes({'A', 'B', 0, 'C', 'D'})) {
    expected.insert(expected.end(), 100, fill);
  }
  EXPECT_EQ(ReadSync("f", 0, 500), expected);

  // E runs on a fresh page and F waits behind it. The file is then deleted
  // and created again, and G and H, which follow each other, write the new
  // file: E and F abort, and G and H share one program.
  landed.clear();
  writes_before = ftl_.host_writes();
  write('E', kPageSize);
  write('F', kPageSize + 100);
  ASSERT_TRUE(fs_.Delete("f").ok());
  ASSERT_TRUE(fs_.Create("f").ok());
  write('G', 0);
  write('H', 100);
  simulator_.Run();
  EXPECT_EQ(landed, (std::vector<std::pair<char, StatusCode>>{
                        {'E', StatusCode::kAborted},
                        {'F', StatusCode::kAborted},
                        {'G', StatusCode::kOk},
                        {'H', StatusCode::kOk}}));
  EXPECT_EQ(ftl_.host_writes() - writes_before, 2u);
  EXPECT_EQ(fs_.Stat("f")->size, 200u);
  expected.assign(100, 'G');
  expected.insert(expected.end(), 100, 'H');
  EXPECT_EQ(ReadSync("f", 0, 200), expected);
}

TEST_F(FlashFsTest, AclGovernsAccess) {
  FileAcl acl;
  acl.owner = "alice";
  acl.readers = {"bob"};
  ASSERT_TRUE(fs_.Create("secret", acl).ok());
  const FileAcl stored = fs_.Stat("secret")->acl;
  EXPECT_TRUE(stored.MayRead("alice"));
  EXPECT_TRUE(stored.MayRead("bob"));
  EXPECT_FALSE(stored.MayRead("mallory"));
  EXPECT_TRUE(stored.MayWrite("alice"));
  EXPECT_FALSE(stored.MayWrite("bob"));
}

// --- Full file-service session (Figure 2 end to end) --------------------------

class FileSessionTest : public ::testing::Test {
 protected:
  FileSessionTest()
      : controller_(DeviceId(3), harness_.Context(), &harness_.memory),
        ssd_(DeviceId(2), harness_.Context(), NoAuthConfig()),
        nic_(DeviceId(1), "nic", harness_.Context()),
        client_(&nic_, Pasid(7)) {
    nic_.doorbell_handler = [this](DeviceId from, uint64_t value) {
      client_.HandleDoorbell(from, value);
    };
    ssd_.ProvisionFile("kv.log", {});
    controller_.PowerOn();
    ssd_.PowerOn();
    nic_.PowerOn();
    harness_.simulator.Run();
  }

  static SmartSsdConfig NoAuthConfig() {
    SmartSsdConfig config;
    config.host_auth_service = false;
    return config;
  }

  Status OpenSync(const std::string& file, uint64_t token = 0) {
    std::optional<Status> status;
    client_.Open(file, token, [&](Status s) { status = s; });
    harness_.simulator.Run();
    LASTCPU_CHECK(status.has_value(), "open never completed");
    return *status;
  }

  Harness harness_;
  memdev::MemoryController controller_;
  SmartSsd ssd_;
  TestDevice nic_;
  FileClient client_;
};

TEST_F(FileSessionTest, OpenEstablishesSharedSession) {
  ASSERT_TRUE(OpenSync("kv.log").ok());
  EXPECT_TRUE(client_.ready());
  EXPECT_EQ(client_.provider(), DeviceId(2));
  // Shared memory is mapped into both devices' IOMMUs under the app PASID.
  EXPECT_GT(nic_.iommu().mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(ssd_.iommu().mapped_pages(Pasid(7)), nic_.iommu().mapped_pages(Pasid(7)));
}

TEST_F(FileSessionTest, OpenOfMissingFileFails) {
  Status status = OpenSync("nope.log");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_FALSE(client_.ready());
}

TEST_F(FileSessionTest, WriteThenReadThroughService) {
  ASSERT_TRUE(OpenSync("kv.log").ok());
  std::optional<Status> wrote;
  client_.WriteAt(0, Bytes({5, 6, 7, 8}), [&](Status s) { wrote = s; });
  harness_.simulator.Run();
  ASSERT_TRUE(wrote.has_value());
  ASSERT_TRUE(wrote->ok()) << wrote->ToString();

  std::optional<std::vector<uint8_t>> read;
  client_.ReadAt(1, 2, [&](Result<std::vector<uint8_t>> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    read = *r;
  });
  harness_.simulator.Run();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, Bytes({6, 7}));
}

// The service device writes each response header, so the client must not
// trust its length: one claiming more than a response slot holds fails the
// read with kDataLoss instead of DMA-reading past the slot.
TEST_F(FileSessionTest, ResponseLongerThanItsSlotFailsTheRead) {
  ASSERT_TRUE(OpenSync("kv.log").ok());
  std::optional<Status> wrote;
  client_.WriteAt(0, Bytes({5, 6, 7, 8}), [&](Status s) { wrote = s; });
  harness_.simulator.Run();
  ASSERT_TRUE(wrote.has_value() && wrote->ok());

  // Before the client drains the completion, overwrite the length of every
  // response slot's header, as a faulty provider would.
  const uint16_t depth = FileServiceConfig{}.queue_depth;  // the fixture keeps the default
  SessionLayout layout(client_.session_base(), depth);
  nic_.doorbell_handler = [&](DeviceId from, uint64_t value) {
    uint8_t length[4] = {};
    uint32_t oversized = static_cast<uint32_t>(kMaxReadBytes + 1);
    for (size_t i = 0; i < 4; ++i) {
      length[i] = static_cast<uint8_t>(oversized >> (8 * i));
    }
    for (uint16_t slot = 0; slot < depth / 2; ++slot) {
      ASSERT_TRUE(nic_.fabric()
                      ->MemWrite(nic_.id(), Pasid(7), layout.ResponseSlot(slot) + 4, length)
                      .status.ok());
    }
    client_.HandleDoorbell(from, value);
  };
  std::optional<Result<std::vector<uint8_t>>> read;
  client_.ReadAt(0, 4, [&](Result<std::vector<uint8_t>> r) { read = std::move(r); });
  harness_.simulator.Run();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->status().code(), StatusCode::kDataLoss);
}

// A provider that corrupts a finished chain's link makes the virtqueue
// driver refuse the used ring with kDataLoss. The used element it consumed
// named a request that can no longer complete on its own, so the client
// resets the session: the read fails exactly once with kDataLoss, and the
// session is gone.
TEST_F(FileSessionTest, RefusedChainLinkResetsTheSession) {
  ASSERT_TRUE(OpenSync("kv.log").ok());
  std::optional<Status> wrote;
  client_.WriteAt(0, Bytes({5, 6, 7, 8}), [&](Status s) { wrote = s; });
  harness_.simulator.Run();
  ASSERT_TRUE(wrote.has_value() && wrote->ok());

  // Before the client drains the completion, point every descriptor's link
  // past the table, as a faulty provider would.
  const uint16_t depth = FileServiceConfig{}.queue_depth;  // the fixture keeps the default
  virtio::VirtqueueLayout ring(SessionLayout(client_.session_base(), depth).ring_base, depth);
  nic_.doorbell_handler = [&](DeviceId from, uint64_t value) {
    const uint8_t next[2] = {200, 0};
    for (uint16_t i = 0; i < depth; ++i) {
      ASSERT_TRUE(
          nic_.fabric()->MemWrite(nic_.id(), Pasid(7), ring.DescAddr(i) + 14, next).status.ok());
    }
    client_.HandleDoorbell(from, value);
  };
  int calls = 0;
  std::optional<Status> read;
  client_.ReadAt(0, 4, [&](Result<std::vector<uint8_t>> r) {
    ++calls;
    read = r.status();
  });
  harness_.simulator.Run();
  EXPECT_EQ(calls, 1);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->code(), StatusCode::kDataLoss);
  EXPECT_FALSE(client_.ready());
}

// A reset while a request's slot write is still on its way fails that
// request exactly once, with the reset's reason; a session opened after it
// serves requests normally.
TEST_F(FileSessionTest, ResetDuringSlotWriteFailsTheRequestOnce) {
  ASSERT_TRUE(OpenSync("kv.log").ok());
  int calls = 0;
  std::optional<Status> wrote;
  client_.WriteAt(0, Bytes({1, 2, 3, 4}), [&](Status s) {
    ++calls;
    wrote = s;
  });
  client_.Reset(Unavailable("provider reset"));
  harness_.simulator.Run();
  EXPECT_EQ(calls, 1);
  ASSERT_TRUE(wrote.has_value());
  EXPECT_EQ(wrote->code(), StatusCode::kUnavailable);
  EXPECT_EQ(ssd_.file_service().requests_served(), 0u);

  ASSERT_TRUE(OpenSync("kv.log").ok());
  std::optional<Status> rewrote;
  client_.WriteAt(0, Bytes({1, 2, 3, 4}), [&](Status s) { rewrote = s; });
  harness_.simulator.Run();
  ASSERT_TRUE(rewrote.has_value());
  EXPECT_TRUE(rewrote->ok()) << rewrote->ToString();
  EXPECT_EQ(calls, 1);
}

// Once warmed up, a one-page read served from the FTL cache allocates only
// its four byte buffers: the request's wire bytes, the filesystem's read
// result, the response's wire bytes and the client's DMA read result. Every
// completion on the way sits inline, neither the popped chain nor the FTL's
// op registry allocates, and no page is copied.
TEST_F(FileSessionTest, CachedReadAllocatesOnlyItsByteBuffers) {
  ASSERT_TRUE(OpenSync("kv.log").ok());
  std::optional<Status> wrote;
  client_.WriteAt(0, Bytes({5, 6, 7, 8}), [&](Status s) { wrote = s; });
  harness_.simulator.Run();
  ASSERT_TRUE(wrote.has_value() && wrote->ok());
  auto read_once = [&] {
    std::optional<Status> read;
    client_.ReadAt(0, 4, [&](Result<std::vector<uint8_t>> r) { read = r.status(); });
    harness_.simulator.Run();
    ASSERT_TRUE(read.has_value() && read->ok());
  };
  read_once();  // fills the FTL cache
  read_once();  // warms the event pool, the op registry and the TLBs
  uint64_t hits = ssd_.ftl().cache_hits();
  uint64_t before = alloc_counter::Calls();
  read_once();
  EXPECT_EQ(alloc_counter::Calls() - before, 4u);
  EXPECT_EQ(ssd_.ftl().cache_hits(), hits + 1);
}

TEST_F(FileSessionTest, AppendAndStat) {
  ASSERT_TRUE(OpenSync("kv.log").ok());
  std::optional<uint64_t> at;
  client_.Append(Bytes({1, 2, 3}), [&](Result<uint64_t> r) {
    ASSERT_TRUE(r.ok());
    at = *r;
  });
  harness_.simulator.Run();
  EXPECT_EQ(at, 0u);
  client_.Append(Bytes({4}), [&](Result<uint64_t> r) { at = *r; });
  harness_.simulator.Run();
  EXPECT_EQ(at, 3u);
  std::optional<uint64_t> size;
  client_.Stat([&](Result<uint64_t> r) { size = *r; });
  harness_.simulator.Run();
  EXPECT_EQ(size, 4u);
}

TEST_F(FileSessionTest, ManyPipelinedRequests) {
  ASSERT_TRUE(OpenSync("kv.log").ok());
  std::optional<Status> wrote;
  client_.WriteAt(0, std::vector<uint8_t>(1000, 0x5A), [&](Status s) { wrote = s; });
  harness_.simulator.Run();
  ASSERT_TRUE(wrote->ok());
  // Issue a full window of concurrent reads (half the queue depth, since
  // each request consumes a 2-descriptor chain).
  int completed = 0;
  for (int i = 0; i < 32; ++i) {
    client_.ReadAt(static_cast<uint64_t>(i) * 10, 10, [&](Result<std::vector<uint8_t>> r) {
      ASSERT_TRUE(r.ok());
      ++completed;
    });
  }
  harness_.simulator.Run();
  EXPECT_EQ(completed, 32);
  EXPECT_EQ(ssd_.file_service().requests_served(), 33u);  // 1 write + 32 reads
}

TEST_F(FileSessionTest, TraceShowsFigure2Sequence) {
  harness_.trace.Enable();
  ASSERT_TRUE(OpenSync("kv.log").ok());
  // The canonical Figure-2 order: discovery broadcast delivered, open,
  // allocation mapped, grant mapped, queue attached.
  EXPECT_TRUE(harness_.trace.ContainsSequence({"discover-hit", "open", "alloc", "map", "grant",
                                               "map", "queue-attached"}));
}

TEST_F(FileSessionTest, CloseFreesSessionMemory) {
  ASSERT_TRUE(OpenSync("kv.log").ok());
  ASSERT_GT(controller_.AllocatedBytes(Pasid(7)), 0u);
  std::optional<Status> closed;
  client_.Close([&](Status s) { closed = s; });
  harness_.simulator.Run();
  ASSERT_TRUE(closed.has_value());
  EXPECT_TRUE(closed->ok()) << closed->ToString();
  EXPECT_EQ(controller_.AllocatedBytes(Pasid(7)), 0u);
  EXPECT_EQ(nic_.iommu().mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(ssd_.iommu().mapped_pages(Pasid(7)), 0u);
}

TEST_F(FileSessionTest, ResourceFailureNotifiesConsumer) {
  ASSERT_TRUE(OpenSync("kv.log").ok());
  ssd_.file_service().InjectResourceFailure(client_.instance(), "media error");
  harness_.simulator.Run();
  bool notified = false;
  for (const auto& m : nic_.unhandled) {
    if (m.Is<proto::ResourceFailed>()) {
      notified = true;
      EXPECT_EQ(m.As<proto::ResourceFailed>().reason, "media error");
    }
  }
  EXPECT_TRUE(notified);
}

TEST_F(FileSessionTest, RemoteCreateDeleteAndList) {
  // Create a file remotely, list it, write/read through a session, delete it.
  std::optional<Status> created;
  CreateRemoteFile(&nic_, ssd_.id(), "fresh.dat", 0, [&](Status s) { created = s; });
  harness_.simulator.Run();
  ASSERT_TRUE(created.has_value() && created->ok());
  EXPECT_TRUE(ssd_.fs().Exists("fresh.dat"));

  // Duplicate create fails.
  std::optional<Status> duplicate;
  CreateRemoteFile(&nic_, ssd_.id(), "fresh.dat", 0, [&](Status s) { duplicate = s; });
  harness_.simulator.Run();
  EXPECT_EQ(duplicate->code(), StatusCode::kAlreadyExists);

  std::optional<Result<std::vector<std::string>>> names;
  ListRemoteFiles(&nic_, ssd_.id(), 0, [&](Result<std::vector<std::string>> r) {
    names = std::move(r);
  });
  harness_.simulator.Run();
  ASSERT_TRUE(names.has_value() && names->ok());
  EXPECT_NE(std::find((*names)->begin(), (*names)->end(), "fresh.dat"), (*names)->end());

  std::optional<Status> deleted;
  DeleteRemoteFile(&nic_, ssd_.id(), "fresh.dat", 0, [&](Status s) { deleted = s; });
  harness_.simulator.Run();
  ASSERT_TRUE(deleted.has_value() && deleted->ok());
  EXPECT_FALSE(ssd_.fs().Exists("fresh.dat"));
}

// Regression: when discovery yields no offers (no file service owns the
// file, or none exists at all), Open must complete with kNotFound when the
// discover window elapses — it used to hang forever.
TEST(FileClientDiscoveryTest, OpenCompletesNotFoundWithoutAnyFileService) {
  Harness harness;
  memdev::MemoryController controller(DeviceId(3), harness.Context(), &harness.memory);
  TestDevice nic(DeviceId(1), "nic", harness.Context());
  controller.PowerOn();
  nic.PowerOn();
  harness.simulator.Run();

  FileClient client(&nic, Pasid(7));
  sim::SimTime start = harness.simulator.Now();
  std::optional<Status> opened;
  sim::SimTime completed;
  client.Open("orphan.log", 0, [&](Status s) {
    opened = s;
    completed = harness.simulator.Now();
  });
  harness.simulator.Run();
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->code(), StatusCode::kNotFound);
  EXPECT_FALSE(client.ready());
  // It fired exactly when the (default 20us) discover window closed.
  EXPECT_EQ(completed, start + FileClientConfig{}.discover_window);
}

TEST_F(FileSessionTest, TeardownPasidClosesOpenSessionAndFreesMemory) {
  ASSERT_TRUE(OpenSync("kv.log").ok());
  ASSERT_EQ(ssd_.file_service().instance_count(), 1u);
  ASSERT_GT(controller_.AllocatedBytes(Pasid(7)), 0u);
  // The app is torn down while its virtqueue session is open: the admin
  // fan-out must reach both the provider (instance dropped) and the memory
  // controller (session memory freed, IOMMUs scrubbed).
  nic_.SendOneWay(kBusDevice, proto::TeardownApp{Pasid(7)});
  harness_.simulator.Run();
  EXPECT_EQ(ssd_.file_service().instance_count(), 0u);
  EXPECT_EQ(controller_.AllocatedBytes(Pasid(7)), 0u);
  EXPECT_EQ(nic_.iommu().mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(ssd_.iommu().mapped_pages(Pasid(7)), 0u);
}

TEST_F(FileSessionTest, TeardownClientDropsFailedConsumersSessions) {
  ASSERT_TRUE(OpenSync("kv.log").ok());
  ASSERT_EQ(ssd_.file_service().instance_count(), 1u);
  // The consumer dies and the bus reports it: the provider must drop every
  // instance the dead device held, virtqueue session included.
  nic_.InjectFailure();
  harness_.bus.ReportDeviceFailure(DeviceId(1));
  harness_.simulator.Run();
  EXPECT_EQ(ssd_.file_service().instance_count(), 0u);
}

TEST_F(FileSessionTest, DeleteWithOpenSessionNotifiesConsumer) {
  ASSERT_TRUE(OpenSync("kv.log").ok());
  // Another device (the memory controller's id works as "someone else")
  // deletes the file out from under the open session.
  std::optional<Status> deleted;
  DeleteRemoteFile(&nic_, ssd_.id(), "kv.log", 0, [&](Status s) { deleted = s; });
  harness_.simulator.Run();
  ASSERT_TRUE(deleted.has_value() && deleted->ok());
  // The session holder received a ResourceFailed notice (Sec. 4).
  bool notified = false;
  for (const auto& m : nic_.unhandled) {
    if (m.Is<proto::ResourceFailed>()) {
      notified = true;
    }
  }
  EXPECT_TRUE(notified);
  EXPECT_EQ(ssd_.file_service().instance_count(), 0u);
}

// Regression: a power cut mid-request must fail the in-flight session op with
// Unavailable at the consumer — it used to be possible for the client to wait
// forever on a completion the dead silicon would never deliver.
TEST_F(FileSessionTest, PowerCutFailsInflightSessionOpsWithUnavailable) {
  ASSERT_TRUE(OpenSync("kv.log").ok());
  std::optional<Status> wrote;
  client_.WriteAt(0, std::vector<uint8_t>(1000, 0x5A), [&](Status s) { wrote = s; });
  ssd_.InjectPowerLoss();
  harness_.bus.ReportDeviceFailure(ssd_.id());
  harness_.simulator.Run();
  ASSERT_TRUE(wrote.has_value());  // no hang
  EXPECT_EQ(wrote->code(), StatusCode::kUnavailable);
  EXPECT_EQ(ssd_.file_service().instance_count(), 0u);
}

TEST(FileAdminAuthTest, AdminOpsAreTokenGated) {
  Harness harness;
  memdev::MemoryController controller(DeviceId(3), harness.Context(), &harness.memory);
  SmartSsd ssd(DeviceId(2), harness.Context());  // hosts auth
  TestDevice nic(DeviceId(1), "nic", harness.Context());
  ssd.auth()->AddUser("alice", "pw");
  ssd.auth()->AddUser("bob", "pw");
  controller.PowerOn();
  ssd.PowerOn();
  nic.PowerOn();
  harness.simulator.Run();

  auto login = [&](const std::string& user) {
    uint64_t token = 0;
    auth::LoginUser(&nic, DeviceId(2), user, "pw",
                    [&](Result<auth::Login> result) { token = result->token; });
    harness.simulator.Run();
    return token;
  };
  uint64_t alice = login("alice");
  uint64_t bob = login("bob");

  // Unauthenticated create is refused; alice's create succeeds and she owns
  // the file.
  std::optional<Status> anonymous;
  CreateRemoteFile(&nic, ssd.id(), "alice.dat", 0xBAD, [&](Status s) { anonymous = s; });
  harness.simulator.Run();
  EXPECT_EQ(anonymous->code(), StatusCode::kPermissionDenied);

  std::optional<Status> created;
  CreateRemoteFile(&nic, ssd.id(), "alice.dat", alice, [&](Status s) { created = s; });
  harness.simulator.Run();
  ASSERT_TRUE(created->ok());
  EXPECT_EQ(ssd.fs().Stat("alice.dat")->acl.owner, "alice");

  // Bob cannot delete alice's file; alice can.
  std::optional<Status> bob_delete;
  DeleteRemoteFile(&nic, ssd.id(), "alice.dat", bob, [&](Status s) { bob_delete = s; });
  harness.simulator.Run();
  EXPECT_EQ(bob_delete->code(), StatusCode::kPermissionDenied);
  std::optional<Status> alice_delete;
  DeleteRemoteFile(&nic, ssd.id(), "alice.dat", alice, [&](Status s) { alice_delete = s; });
  harness.simulator.Run();
  EXPECT_TRUE(alice_delete->ok());

  // Listing requires a live token too.
  std::optional<Result<std::vector<std::string>>> denied;
  ListRemoteFiles(&nic, ssd.id(), 0xBAD, [&](Result<std::vector<std::string>> r) {
    denied = std::move(r);
  });
  harness.simulator.Run();
  ASSERT_TRUE(denied.has_value());
  EXPECT_EQ(denied->status().code(), StatusCode::kPermissionDenied);
}

// Auth-gated sessions.
TEST(FileSessionAuthTest, TokenRequiredWhenAuthHosted) {
  Harness harness;
  memdev::MemoryController controller(DeviceId(3), harness.Context(), &harness.memory);
  SmartSsd ssd(DeviceId(2), harness.Context());  // hosts auth
  TestDevice nic(DeviceId(1), "nic", harness.Context());
  FileAcl acl;
  acl.owner = "operator";
  ssd.ProvisionFile("secret.log", {1, 2, 3}, acl);
  ssd.auth()->AddUser("operator", "hunter2");
  controller.PowerOn();
  ssd.PowerOn();
  nic.PowerOn();
  harness.simulator.Run();

  FileClient client(&nic, Pasid(7));
  nic.doorbell_handler = [&](DeviceId from, uint64_t value) {
    client.HandleDoorbell(from, value);
  };

  // Without a token: denied.
  std::optional<Status> denied;
  client.Open("secret.log", 0, [&](Status s) { denied = s; });
  harness.simulator.Run();
  ASSERT_TRUE(denied.has_value());
  EXPECT_EQ(denied->code(), StatusCode::kPermissionDenied);

  // Login, then open with the token: allowed.
  std::optional<uint64_t> token;
  auth::LoginUser(&nic, DeviceId(2), "operator", "hunter2",
                  [&](Result<auth::Login> result) {
                    ASSERT_TRUE(result.ok());
                    token = result->token;
                  });
  harness.simulator.Run();
  ASSERT_TRUE(token.has_value());

  FileClient client2(&nic, Pasid(7));
  nic.doorbell_handler = [&](DeviceId from, uint64_t value) {
    client2.HandleDoorbell(from, value);
  };
  std::optional<Status> opened;
  client2.Open("secret.log", *token, [&](Status s) { opened = s; });
  harness.simulator.Run();
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->ok()) << opened->ToString();

  // Wrong password never yields a token.
  std::optional<StatusCode> bad;
  auth::LoginUser(&nic, DeviceId(2), "operator", "wrong",
                  [&](Result<auth::Login> result) { bad = result.status().code(); });
  harness.simulator.Run();
  EXPECT_EQ(bad, StatusCode::kPermissionDenied);
}

}  // namespace
}  // namespace lastcpu::ssddev
