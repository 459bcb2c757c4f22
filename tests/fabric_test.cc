// Data-plane fabric tests: DMA through IOMMU translation, cost model ordering,
// fault completion, doorbells, MMIO-path accounting, and the heap traffic of
// the hot calls.
#include <gtest/gtest.h>

#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/iommu/iommu.h"
#include "src/mem/physical_memory.h"
#include "src/sim/simulator.h"
#include "tests/alloc_counter.h"

namespace lastcpu::fabric {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  FabricTest()
      : memory_(8 << 20),
        fabric_(&simulator_, &memory_),
        nic_iommu_(DeviceId(1)),
        ssd_iommu_(DeviceId(2)),
        key_(iommu::ProgrammingKey::CreateForTesting()) {
    fabric_.AttachDevice(DeviceId(1), &nic_iommu_);
    fabric_.AttachDevice(DeviceId(2), &ssd_iommu_);
  }

  // Maps `pages` consecutive pages for (device, pasid) at vpage_base ->
  // pframe_base.
  void MapRange(iommu::Iommu& iommu, Pasid pasid, uint64_t vpage_base, uint64_t pframe_base,
                uint64_t pages, Access access = Access::kReadWrite) {
    for (uint64_t i = 0; i < pages; ++i) {
      ASSERT_TRUE(iommu.Map(key_, pasid, vpage_base + i, pframe_base + i, access).ok());
    }
  }

  // Maps one virtual page per (vpage, pframe) pair, so adjacent virtual
  // pages can sit on frames that are not adjacent.
  void MapPages(iommu::Iommu& iommu, Pasid pasid,
                std::initializer_list<std::pair<uint64_t, uint64_t>> pages) {
    for (const auto& [vpage, pframe] : pages) {
      ASSERT_TRUE(iommu.Map(key_, pasid, vpage, pframe, Access::kReadWrite).ok());
    }
  }

  // The bytes physical memory holds at (frame, offset).
  std::vector<uint8_t> FrameBytes(uint64_t frame, uint64_t offset, uint64_t length) {
    std::vector<uint8_t> out(length);
    memory_.Read(PhysAddr((frame << kPageShift) + offset), out);
    return out;
  }

  static std::vector<uint8_t> LittleEndian(uint64_t value) {
    std::vector<uint8_t> out(8);
    for (uint8_t& b : out) {
      b = static_cast<uint8_t>(value);
      value >>= 8;
    }
    return out;
  }

  static std::vector<uint8_t> Pattern(size_t length, uint8_t seed) {
    std::vector<uint8_t> out(length);
    for (size_t i = 0; i < length; ++i) {
      out[i] = static_cast<uint8_t>(seed + 13 * i);
    }
    return out;
  }

  // Issues one DMA write and runs it to completion; returns its status and
  // how long after issue it completed.
  std::pair<Status, sim::Duration> TimedWrite(VirtAddr dst, std::vector<uint8_t> data,
                                              Fabric* fabric = nullptr) {
    sim::SimTime issued = simulator_.Now();
    Status status = Internal("never completed");
    sim::SimTime done;
    Fabric* target = fabric != nullptr ? fabric : &fabric_;
    target->DmaWrite(DeviceId(1), Pasid(1), dst, std::move(data), [&](Status s) {
      status = s;
      done = simulator_.Now();
    });
    simulator_.Run();
    return {status, done - issued};
  }

  // The same for a DMA read; the bytes read land in `out`.
  std::pair<Status, sim::Duration> TimedRead(VirtAddr src, uint64_t length,
                                             std::vector<uint8_t>* out = nullptr) {
    sim::SimTime issued = simulator_.Now();
    Status status = Internal("never completed");
    sim::SimTime done;
    fabric_.DmaRead(DeviceId(1), Pasid(1), src, length, [&](Result<std::vector<uint8_t>> r) {
      status = r.status();
      if (r.ok() && out != nullptr) {
        *out = *r;
      }
      done = simulator_.Now();
    });
    simulator_.Run();
    return {status, done - issued};
  }

  uint64_t Counter(const char* name) { return fabric_.stats().GetCounter(name).value(); }

  sim::Simulator simulator_;
  mem::PhysicalMemory memory_;
  Fabric fabric_;
  iommu::Iommu nic_iommu_;
  iommu::Iommu ssd_iommu_;
  iommu::ProgrammingKey key_;
};

TEST_F(FabricTest, DmaWriteThenReadRoundTrips) {
  MapRange(nic_iommu_, Pasid(1), 0x10, 0x20, 4);
  std::vector<uint8_t> data(10000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  bool wrote = false;
  fabric_.DmaWrite(DeviceId(1), Pasid(1), VirtAddr(0x10 << kPageShift), data, [&](Status s) {
    ASSERT_TRUE(s.ok());
    wrote = true;
  });
  EXPECT_FALSE(wrote);  // asynchronous
  simulator_.Run();
  EXPECT_TRUE(wrote);

  bool read = false;
  fabric_.DmaRead(DeviceId(1), Pasid(1), VirtAddr(0x10 << kPageShift), data.size(),
                  [&](Result<std::vector<uint8_t>> r) {
                    ASSERT_TRUE(r.ok());
                    EXPECT_EQ(*r, data);
                    read = true;
                  });
  simulator_.Run();
  EXPECT_TRUE(read);
}

TEST_F(FabricTest, SharedMappingLetsTwoDevicesSeeSameMemory) {
  // NIC writes through its mapping; SSD reads the same frames through its own.
  MapRange(nic_iommu_, Pasid(1), 0x10, 0x40, 1);
  MapRange(ssd_iommu_, Pasid(1), 0x80, 0x40, 1, Access::kRead);
  std::vector<uint8_t> data{9, 8, 7, 6};
  fabric_.DmaWrite(DeviceId(1), Pasid(1), VirtAddr(0x10 << kPageShift), data, [](Status s) {
    ASSERT_TRUE(s.ok());
  });
  simulator_.Run();
  std::vector<uint8_t> seen;
  fabric_.DmaRead(DeviceId(2), Pasid(1), VirtAddr(0x80 << kPageShift), 4,
                  [&](Result<std::vector<uint8_t>> r) {
                    ASSERT_TRUE(r.ok());
                    seen = *r;
                  });
  simulator_.Run();
  EXPECT_EQ(seen, data);
}

TEST_F(FabricTest, DmaToUnmappedAddressFails) {
  bool completed = false;
  fabric_.DmaWrite(DeviceId(1), Pasid(1), VirtAddr(0x999 << kPageShift), {1, 2, 3},
                   [&](Status s) {
                     EXPECT_FALSE(s.ok());
                     completed = true;
                   });
  simulator_.Run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(fabric_.stats().GetCounter("dma_faults").value(), 1u);
}

TEST_F(FabricTest, DmaRespectsWritePermission) {
  MapRange(nic_iommu_, Pasid(1), 0x10, 0x20, 1, Access::kRead);
  bool completed = false;
  fabric_.DmaWrite(DeviceId(1), Pasid(1), VirtAddr(0x10 << kPageShift), {1}, [&](Status s) {
    EXPECT_FALSE(s.ok());
    completed = true;
  });
  simulator_.Run();
  EXPECT_TRUE(completed);
}

TEST_F(FabricTest, LargerTransfersTakeLonger) {
  MapRange(nic_iommu_, Pasid(1), 0, 0, 300);
  sim::SimTime small_done;
  sim::SimTime large_done;
  fabric_.DmaWrite(DeviceId(1), Pasid(1), VirtAddr(0), std::vector<uint8_t>(64),
                   [&](Status) { small_done = simulator_.Now(); });
  simulator_.Run();
  sim::SimTime base = simulator_.Now();
  fabric_.DmaWrite(DeviceId(1), Pasid(1), VirtAddr(0), std::vector<uint8_t>(1 << 20),
                   [&](Status) { large_done = simulator_.Now(); });
  simulator_.Run();
  EXPECT_GT((large_done - base).nanos(), small_done.nanos());
}

TEST_F(FabricTest, LinkSerializesConcurrentTransfers) {
  MapRange(nic_iommu_, Pasid(1), 0, 0, 600);
  // Two 1MiB DMAs issued back to back on one link: the second must finish
  // roughly twice as late as the first.
  sim::SimTime first;
  sim::SimTime second;
  fabric_.DmaWrite(DeviceId(1), Pasid(1), VirtAddr(0), std::vector<uint8_t>(1 << 20),
                   [&](Status) { first = simulator_.Now(); });
  fabric_.DmaWrite(DeviceId(1), Pasid(1), VirtAddr(1 << 20), std::vector<uint8_t>(1 << 20),
                   [&](Status) { second = simulator_.Now(); });
  simulator_.Run();
  EXPECT_GT(second.nanos(), first.nanos() * 18 / 10);
}

TEST_F(FabricTest, MmioReadWriteU64) {
  MapRange(nic_iommu_, Pasid(1), 0x10, 0x20, 1);
  VirtAddr va(0x10 << kPageShift);
  std::vector<uint8_t> word = LittleEndian(0xCAFEBABE12345678ULL);
  AccessResult w = fabric_.MemWrite(DeviceId(1), Pasid(1), va, word);
  ASSERT_TRUE(w.status.ok());
  EXPECT_GT(w.cost.nanos(), 0u);
  std::vector<uint8_t> seen(8);
  AccessResult r = fabric_.MemRead(DeviceId(1), Pasid(1), va, seen);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(seen, word);
}

TEST_F(FabricTest, MmioSpansPageBoundary) {
  MapRange(nic_iommu_, Pasid(1), 0x10, 0x20, 2);
  // Write 8 bytes straddling the page boundary.
  VirtAddr va((0x10 << kPageShift) + kPageSize - 4);
  std::vector<uint8_t> word = LittleEndian(0x1122334455667788ULL);
  ASSERT_TRUE(fabric_.MemWrite(DeviceId(1), Pasid(1), va, word).status.ok());
  std::vector<uint8_t> seen(8);
  ASSERT_TRUE(fabric_.MemRead(DeviceId(1), Pasid(1), va, seen).status.ok());
  EXPECT_EQ(seen, word);
}

TEST_F(FabricTest, MmioFaultReturnsError) {
  std::vector<uint8_t> seen(8);
  AccessResult r = fabric_.MemRead(DeviceId(1), Pasid(1), VirtAddr(0x5000), seen);
  EXPECT_FALSE(r.status.ok());
}

TEST_F(FabricTest, DoorbellDeliversAsynchronously) {
  DeviceId from_seen;
  uint64_t value_seen = 0;
  int rings = 0;
  fabric_.SetDoorbellHandler(DeviceId(2), [&](DeviceId from, uint64_t value) {
    from_seen = from;
    value_seen = value;
    ++rings;
  });
  fabric_.RingDoorbell(DeviceId(1), DeviceId(2), 77);
  EXPECT_EQ(rings, 0);  // not yet delivered
  simulator_.Run();
  EXPECT_EQ(rings, 1);
  EXPECT_EQ(from_seen, DeviceId(1));
  EXPECT_EQ(value_seen, 77u);
}

TEST_F(FabricTest, DoorbellToUnattachedDeviceIsDropped) {
  fabric_.RingDoorbell(DeviceId(1), DeviceId(99), 1);
  simulator_.Run();
  EXPECT_EQ(fabric_.stats().GetCounter("doorbells_dropped").value(), 1u);
}

TEST_F(FabricTest, DetachedDeviceDropsInFlightDoorbell) {
  int rings = 0;
  fabric_.SetDoorbellHandler(DeviceId(2), [&](DeviceId, uint64_t) { ++rings; });
  fabric_.RingDoorbell(DeviceId(1), DeviceId(2), 1);
  fabric_.DetachDevice(DeviceId(2));  // dies before delivery
  simulator_.Run();
  EXPECT_EQ(rings, 0);
}

TEST_F(FabricTest, StatsAccumulate) {
  MapRange(nic_iommu_, Pasid(1), 0, 0, 4);
  fabric_.DmaWrite(DeviceId(1), Pasid(1), VirtAddr(0), std::vector<uint8_t>(100), [](Status) {});
  fabric_.DmaRead(DeviceId(1), Pasid(1), VirtAddr(0), 50, [](Result<std::vector<uint8_t>>) {});
  simulator_.Run();
  EXPECT_EQ(fabric_.stats().GetCounter("dma_writes").value(), 1u);
  EXPECT_EQ(fabric_.stats().GetCounter("dma_bytes_written").value(), 100u);
  EXPECT_EQ(fabric_.stats().GetCounter("dma_reads").value(), 1u);
  EXPECT_EQ(fabric_.stats().GetCounter("dma_bytes_read").value(), 50u);
}

// --- Split translations and exact costs ------------------------------------
//
// Default costs: a 600 ns link base latency, 8 bytes per ns on the wire, a
// 150 ns MMIO round trip, and a 3-level page walk at 80 ns per level on every
// TLB miss.
constexpr uint64_t kBaseNs = 600;
constexpr uint64_t kMmioNs = 150;
constexpr uint64_t kWalkNs = 3 * 80;

TEST_F(FabricTest, DmaAcrossNonAdjacentFramesPutsEachByteInItsFrame) {
  // Three virtual pages: the first two on adjacent frames, the third on a
  // frame below both.
  MapPages(nic_iommu_, Pasid(1), {{0x10, 0x40}, {0x11, 0x41}, {0x12, 0x23}});
  const uint64_t start = 100;
  const uint64_t head = kPageSize - start;  // bytes that fit the first page
  std::vector<uint8_t> data = Pattern(head + kPageSize + 500, 5);
  VirtAddr va((0x10 << kPageShift) + start);
  ASSERT_TRUE(TimedWrite(va, data).first.ok());

  auto slice = [&](uint64_t from, uint64_t length) {
    return std::vector<uint8_t>(data.begin() + static_cast<ptrdiff_t>(from),
                                data.begin() + static_cast<ptrdiff_t>(from + length));
  };
  EXPECT_EQ(FrameBytes(0x40, start, head), slice(0, head));
  EXPECT_EQ(FrameBytes(0x41, 0, kPageSize), slice(head, kPageSize));
  EXPECT_EQ(FrameBytes(0x23, 0, 500), slice(head + kPageSize, 500));
  // Nothing outside the range moved.
  EXPECT_EQ(FrameBytes(0x40, 0, start), std::vector<uint8_t>(start, 0));
  EXPECT_EQ(FrameBytes(0x23, 500, kPageSize - 500), std::vector<uint8_t>(kPageSize - 500, 0));
  EXPECT_EQ(FrameBytes(0x42, 0, 16), std::vector<uint8_t>(16, 0));

  std::vector<uint8_t> seen;
  ASSERT_TRUE(TimedRead(va, data.size(), &seen).first.ok());
  EXPECT_EQ(seen, data);
}

TEST_F(FabricTest, MemAccessAcrossNonAdjacentFramesPutsEachByteInItsFrame) {
  MapPages(nic_iommu_, Pasid(1), {{0x10, 0x40}, {0x11, 0x23}});
  VirtAddr va((0x10 << kPageShift) + kPageSize - 24);
  std::vector<uint8_t> data = Pattern(64, 9);
  AccessResult w = fabric_.MemWrite(DeviceId(1), Pasid(1), va, data);
  ASSERT_TRUE(w.status.ok());
  EXPECT_EQ(w.cost.nanos(), kMmioNs + 2 * kWalkNs);  // both pages missed the TLB
  EXPECT_EQ(FrameBytes(0x40, kPageSize - 24, 24),
            std::vector<uint8_t>(data.begin(), data.begin() + 24));
  EXPECT_EQ(FrameBytes(0x23, 0, 40), std::vector<uint8_t>(data.begin() + 24, data.end()));
  EXPECT_EQ(FrameBytes(0x41, 0, 40), std::vector<uint8_t>(40, 0));

  std::vector<uint8_t> seen(64);
  AccessResult r = fabric_.MemRead(DeviceId(1), Pasid(1), va, seen);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.cost.nanos(), kMmioNs);  // both pages hit
  EXPECT_EQ(seen, data);
  EXPECT_EQ(Counter("mmio_writes"), 1u);
  EXPECT_EQ(Counter("mmio_reads"), 1u);
}

TEST_F(FabricTest, DmaWriteFaultOnSecondPageLandsNoByte) {
  MapRange(nic_iommu_, Pasid(1), 0x10, 0x20, 1);  // page 0x11 stays unmapped
  std::vector<iommu::FaultInfo> faults;
  nic_iommu_.SetFaultHandler([&](const iommu::FaultInfo& f) { faults.push_back(f); });
  auto [status, took] =
      TimedWrite(VirtAddr((0x10 << kPageShift) + kPageSize - 100), std::vector<uint8_t>(200, 0xAB));
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(took.nanos(), kBaseNs);  // the abort comes back after the link latency
  EXPECT_EQ(Counter("dma_faults"), 1u);
  EXPECT_EQ(Counter("dma_writes"), 0u);
  EXPECT_EQ(Counter("dma_bytes_written"), 0u);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].vaddr.raw, uint64_t{0x11} << kPageShift);  // the first unmapped byte
  EXPECT_EQ(FrameBytes(0x20, 0, kPageSize), std::vector<uint8_t>(kPageSize, 0));

  // A read over the same range faults the same way.
  EXPECT_EQ(TimedRead(VirtAddr((0x10 << kPageShift) + kPageSize - 100), 200).second.nanos(),
            kBaseNs);
  EXPECT_EQ(Counter("dma_faults"), 2u);
  EXPECT_EQ(Counter("dma_reads"), 0u);
}

TEST_F(FabricTest, MemWriteFaultOnSecondPageLandsNoByte) {
  MapRange(nic_iommu_, Pasid(1), 0x10, 0x20, 1);
  VirtAddr va((0x10 << kPageShift) + kPageSize - 4);
  AccessResult w = fabric_.MemWrite(DeviceId(1), Pasid(1), va, LittleEndian(0x1122334455667788ULL));
  EXPECT_EQ(w.status.code(), StatusCode::kPermissionDenied);
  // The first page's walk is paid before the second page faults.
  EXPECT_EQ(w.cost.nanos(), kMmioNs + kWalkNs);
  EXPECT_EQ(nic_iommu_.faults(), 1u);
  EXPECT_EQ(Counter("mmio_writes"), 0u);
  EXPECT_EQ(Counter("dma_faults"), 0u);  // a synchronous access is not a DMA
  EXPECT_EQ(FrameBytes(0x20, 0, kPageSize), std::vector<uint8_t>(kPageSize, 0));
}

TEST_F(FabricTest, OnePageDmaCompletesAfterLatencyWireAndWalk) {
  MapRange(nic_iommu_, Pasid(1), 0x10, 0x20, 2);
  VirtAddr first(0x10 << kPageShift);
  VirtAddr second(0x11 << kPageShift);
  // 64 bytes take 8 ns on the wire; a TLB miss adds the walk.
  EXPECT_EQ(TimedWrite(first, std::vector<uint8_t>(64, 1)).second.nanos(), kBaseNs + 8 + kWalkNs);
  EXPECT_EQ(TimedWrite(first, std::vector<uint8_t>(64, 2)).second.nanos(), kBaseNs + 8);
  EXPECT_EQ(TimedRead(first, 64).second.nanos(), kBaseNs + 8);
  EXPECT_EQ(TimedRead(second, 64).second.nanos(), kBaseNs + 8 + kWalkNs);
  EXPECT_EQ(fabric_.stats().GetHistogram("dma_write_latency").count(), 2u);
  EXPECT_EQ(fabric_.stats().GetHistogram("dma_read_latency").count(), 2u);
  EXPECT_EQ(nic_iommu_.translations(), 4u);
}

TEST_F(FabricTest, ThreePageDmaPaysOneWalkPerPage) {
  MapRange(nic_iommu_, Pasid(1), 0x10, 0x20, 3);
  VirtAddr start(0x10 << kPageShift);
  // 12288 bytes take 1536 ns on the wire.
  EXPECT_EQ(TimedWrite(start, Pattern(3 * kPageSize, 3)).second.nanos(),
            kBaseNs + 1536 + 3 * kWalkNs);
  EXPECT_EQ(TimedRead(start, 3 * kPageSize).second.nanos(), kBaseNs + 1536);
  EXPECT_EQ(nic_iommu_.translations(), 6u);
  EXPECT_EQ(Counter("dma_bytes_written"), 3 * kPageSize);
  EXPECT_EQ(Counter("dma_bytes_read"), 3 * kPageSize);
}

TEST_F(FabricTest, ZeroLengthDmaSucceedsWithoutTranslating) {
  // Nothing is mapped there: a transfer of no bytes translates no page.
  VirtAddr unmapped(0x999 << kPageShift);
  auto [wrote, write_took] = TimedWrite(unmapped, {});
  EXPECT_TRUE(wrote.ok());
  EXPECT_EQ(write_took.nanos(), kBaseNs);
  std::vector<uint8_t> seen{1};
  auto [read, read_took] = TimedRead(unmapped, 0, &seen);
  EXPECT_TRUE(read.ok());
  EXPECT_EQ(read_took.nanos(), kBaseNs);
  EXPECT_TRUE(seen.empty());
  EXPECT_EQ(nic_iommu_.translations(), 0u);
  EXPECT_EQ(Counter("dma_writes"), 1u);
  EXPECT_EQ(Counter("dma_reads"), 1u);
  EXPECT_EQ(Counter("dma_faults"), 0u);
}

TEST_F(FabricTest, MultiPageDmaPaysOneHopDecidedByItsFirstFrame) {
  FabricConfig config;
  config.inter_segment_hop = sim::Duration::Nanos(1000);
  Fabric fabric(&simulator_, &memory_, config);
  iommu::Iommu iommu(DeviceId(1));
  fabric.AttachDevice(DeviceId(1), &iommu);
  fabric.SetSegmentForFrames(0x100, 0x100, 1);  // device 1 sits on segment 0
  MapPages(iommu, Pasid(1), {{0x10, 0x100}, {0x11, 0x20}, {0x20, 0x21}, {0x21, 0x101}});
  // Two pages take 1024 ns on the wire. A remote first frame costs one hop
  // for the whole transfer; a local first frame costs none.
  EXPECT_EQ(TimedWrite(VirtAddr(0x10 << kPageShift), Pattern(2 * kPageSize, 1), &fabric)
                .second.nanos(),
            kBaseNs + 1024 + 2 * kWalkNs + 1000);
  EXPECT_EQ(TimedWrite(VirtAddr(0x20 << kPageShift), Pattern(2 * kPageSize, 2), &fabric)
                .second.nanos(),
            kBaseNs + 1024 + 2 * kWalkNs);
  EXPECT_EQ(fabric.stats().GetCounter("cross_segment_dmas").value(), 1u);
  // Synchronous accesses never pay the hop.
  std::vector<uint8_t> seen(8);
  EXPECT_EQ(fabric.MemRead(DeviceId(1), Pasid(1), VirtAddr(0x10 << kPageShift), seen).cost.nanos(),
            kMmioNs);
  EXPECT_EQ(fabric.stats().GetCounter("cross_segment_dmas").value(), 1u);
}

// --- Scatter-gather DMA (the data-plane batching fast path) ---------------

TEST_F(FabricTest, DmaWritevScattersEverySegmentInOneTransfer) {
  MapRange(nic_iommu_, Pasid(1), 0x10, 0x20, 8);
  std::vector<DmaWriteSegment> segments;
  for (uint64_t i = 0; i < 3; ++i) {
    std::vector<uint8_t> data(200, static_cast<uint8_t>(0x30 + i));
    // Non-contiguous destinations: one segment per page, pages apart.
    segments.push_back({VirtAddr((0x10 + 2 * i) << kPageShift), std::move(data)});
  }
  bool wrote = false;
  fabric_.DmaWritev(DeviceId(1), Pasid(1), segments, [&](Status s) {
    ASSERT_TRUE(s.ok());
    wrote = true;
  });
  simulator_.Run();
  ASSERT_TRUE(wrote);
  // One modeled transfer, three accounted segments.
  EXPECT_EQ(fabric_.stats().GetCounter("dma_writes").value(), 1u);
  EXPECT_EQ(fabric_.stats().GetCounter("dma_sg_segments").value(), 3u);
  EXPECT_EQ(fabric_.stats().GetCounter("dma_bytes_written").value(), 600u);

  // Every segment landed where its own translation pointed.
  for (uint64_t i = 0; i < 3; ++i) {
    std::vector<uint8_t> seen;
    fabric_.DmaRead(DeviceId(1), Pasid(1), VirtAddr((0x10 + 2 * i) << kPageShift), 200,
                    [&](Result<std::vector<uint8_t>> r) {
                      ASSERT_TRUE(r.ok());
                      seen = *r;
                    });
    simulator_.Run();
    EXPECT_EQ(seen, std::vector<uint8_t>(200, static_cast<uint8_t>(0x30 + i))) << i;
  }
}

TEST_F(FabricTest, DmaWritevFaultInAnySegmentFailsTheWholeTransfer) {
  MapRange(nic_iommu_, Pasid(1), 0x10, 0x20, 1);
  std::vector<uint8_t> marker(16, 0xAA);
  fabric_.DmaWrite(DeviceId(1), Pasid(1), VirtAddr(0x10 << kPageShift), marker, [](Status s) {
    ASSERT_TRUE(s.ok());
  });
  simulator_.Run();

  std::vector<DmaWriteSegment> segments = {
      {VirtAddr(0x10 << kPageShift), std::vector<uint8_t>(16, 0xBB)},
      {VirtAddr(0x999 << kPageShift), std::vector<uint8_t>(16, 0xCC)},  // unmapped
  };
  bool completed = false;
  fabric_.DmaWritev(DeviceId(1), Pasid(1), segments, [&](Status s) {
    EXPECT_FALSE(s.ok());
    completed = true;
  });
  simulator_.Run();
  ASSERT_TRUE(completed);
  EXPECT_EQ(fabric_.stats().GetCounter("dma_faults").value(), 1u);

  // Pre-validation means the mapped segment was NOT partially written.
  std::vector<uint8_t> seen;
  fabric_.DmaRead(DeviceId(1), Pasid(1), VirtAddr(0x10 << kPageShift), 16,
                  [&](Result<std::vector<uint8_t>> r) {
                    ASSERT_TRUE(r.ok());
                    seen = *r;
                  });
  simulator_.Run();
  EXPECT_EQ(seen, marker);
}

TEST_F(FabricTest, DmaWritevSplitsSegmentsAcrossNonAdjacentFramesInOneCharge) {
  MapPages(nic_iommu_, Pasid(1), {{0x10, 0x40}, {0x11, 0x23}, {0x12, 0x60}});
  // The first segment straddles two non-adjacent frames; the second sits on
  // a third.
  std::vector<uint8_t> straddling = Pattern(100, 7);
  std::vector<uint8_t> lone = Pattern(50, 11);
  std::vector<DmaWriteSegment> segments = {
      {VirtAddr((0x10 << kPageShift) + kPageSize - 30), straddling},
      {VirtAddr((0x12 << kPageShift) + 8), lone},
  };
  sim::SimTime issued = simulator_.Now();
  sim::SimTime done;
  fabric_.DmaWritev(DeviceId(1), Pasid(1), segments, [&](Status s) {
    ASSERT_TRUE(s.ok());
    done = simulator_.Now();
  });
  simulator_.Run();
  // 150 bytes take 18 ns on the wire; each of the three pages walks once.
  EXPECT_EQ((done - issued).nanos(), kBaseNs + 18 + 3 * kWalkNs);
  EXPECT_EQ(FrameBytes(0x40, kPageSize - 30, 30),
            std::vector<uint8_t>(straddling.begin(), straddling.begin() + 30));
  EXPECT_EQ(FrameBytes(0x23, 0, 70),
            std::vector<uint8_t>(straddling.begin() + 30, straddling.end()));
  EXPECT_EQ(FrameBytes(0x60, 8, 50), lone);
  EXPECT_EQ(FrameBytes(0x23, 70, 8), std::vector<uint8_t>(8, 0));
  EXPECT_EQ(Counter("dma_writes"), 1u);
  EXPECT_EQ(Counter("dma_sg_segments"), 2u);
  EXPECT_EQ(Counter("dma_bytes_written"), 150u);
}

// --- Heap traffic of the calls every KVS op makes ----------------------------

// Calls to operator new made by the second of two runs of `body`; the first
// warms the simulator's event pool, the TLB and the histograms.
template <typename Body>
uint64_t AllocationsOnSecondRun(Body body) {
  body();
  uint64_t before = alloc_counter::Calls();
  body();
  return alloc_counter::Calls() - before;
}

TEST_F(FabricTest, HotCallsAllocateOnlyTheReadBuffer) {
  MapRange(nic_iommu_, Pasid(1), 0x10, 0x20, 4);  // four adjacent frames
  VirtAddr page(0x10 << kPageShift);
  uint8_t word[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(AllocationsOnSecondRun([&] {
              ASSERT_TRUE(fabric_.MemWrite(DeviceId(1), Pasid(1), page, word).status.ok());
              ASSERT_TRUE(fabric_.MemRead(DeviceId(1), Pasid(1), page, word).status.ok());
            }),
            0u);

  // A DMA write takes its buffer over, so the buffers exist before counting.
  int completed = 0;
  auto write_allocations = [&](uint64_t length) {
    std::vector<std::vector<uint8_t>> buffers(2, std::vector<uint8_t>(length, 9));
    return AllocationsOnSecondRun([&] {
      fabric_.DmaWrite(DeviceId(1), Pasid(1), page, std::move(buffers.back()), [&](Status s) {
        completed += s.ok() ? 1 : 0;
      });
      buffers.pop_back();
      simulator_.Run();
    });
  };
  EXPECT_EQ(write_allocations(64), 0u);
  EXPECT_EQ(write_allocations(4 * kPageSize), 0u);  // one physically contiguous run

  // A read allocates exactly the buffer it hands back.
  EXPECT_EQ(AllocationsOnSecondRun([&] {
              fabric_.DmaRead(DeviceId(1), Pasid(1), page, 64,
                              [&](Result<std::vector<uint8_t>> r) { completed += r.ok() ? 1 : 0; });
              simulator_.Run();
            }),
            1u);
  EXPECT_EQ(completed, 6);
}

// --- Doorbell coalescing ---------------------------------------------------

TEST_F(FabricTest, DoorbellBatcherWithZeroWindowPassesEveryRingThrough) {
  int rings = 0;
  fabric_.SetDoorbellHandler(DeviceId(2), [&](DeviceId, uint64_t) { ++rings; });
  DoorbellBatcher bells(&fabric_, DeviceId(1));
  for (int i = 0; i < 5; ++i) {
    bells.Ring(DeviceId(2), 7);
  }
  simulator_.Run();
  EXPECT_EQ(rings, 5);
  EXPECT_EQ(bells.coalesced(), 0u);
  EXPECT_EQ(fabric_.stats().GetCounter("doorbells").value(), 5u);
}

TEST_F(FabricTest, DoorbellBatcherCoalescesBurstsToAtMostTwo) {
  FabricConfig config;
  config.batch_window = sim::Duration::Micros(2);
  Fabric fabric(&simulator_, &memory_, config);
  iommu::Iommu iommu(DeviceId(1));
  fabric.AttachDevice(DeviceId(1), &iommu);
  fabric.AttachDevice(DeviceId(2), &ssd_iommu_);
  int rings = 0;
  fabric.SetDoorbellHandler(DeviceId(2), [&](DeviceId, uint64_t) { ++rings; });

  DoorbellBatcher bells(&fabric, DeviceId(1));
  for (int i = 0; i < 10; ++i) {
    bells.Ring(DeviceId(2), 7);
  }
  simulator_.Run();
  // Leading edge immediately, trailing edge at window close: exactly two.
  // The 9 rings after the leading edge all merge into the one trailing bell.
  EXPECT_EQ(rings, 2);
  EXPECT_EQ(bells.coalesced(), 9u);
  EXPECT_EQ(fabric.stats().GetCounter("doorbells").value(), 2u);

  // Distinct (target, value) keys do not merge with each other.
  rings = 0;
  bells.Ring(DeviceId(2), 1);
  bells.Ring(DeviceId(2), 2);
  simulator_.Run();
  EXPECT_EQ(rings, 2);
}

TEST_F(FabricTest, DoorbellBatcherCancelPendingDropsTrailingEdge) {
  FabricConfig config;
  config.batch_window = sim::Duration::Micros(2);
  Fabric fabric(&simulator_, &memory_, config);
  iommu::Iommu iommu(DeviceId(1));
  fabric.AttachDevice(DeviceId(1), &iommu);
  fabric.AttachDevice(DeviceId(2), &ssd_iommu_);
  int rings = 0;
  fabric.SetDoorbellHandler(DeviceId(2), [&](DeviceId, uint64_t) { ++rings; });

  DoorbellBatcher bells(&fabric, DeviceId(1));
  for (int i = 0; i < 4; ++i) {
    bells.Ring(DeviceId(2), 9);
  }
  bells.CancelPending();
  simulator_.Run();
  EXPECT_EQ(rings, 1);  // only the leading edge went out
}

}  // namespace
}  // namespace lastcpu::fabric
