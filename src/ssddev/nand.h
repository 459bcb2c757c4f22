// NAND flash array model: the raw media inside the smart SSD.
//
// Models the constraints that make flash management interesting — erase
// before program, page-granular programs, block-granular erases, asymmetric
// latencies, per-die parallelism with per-die serialization, and wear. The
// FTL above this hides all of it behind a logical block interface.
//
// Every page carries an out-of-band (OOB) area programmed atomically with the
// data: the FTL journals its mapping there (see ftl.h), which is what makes
// the mapping reconstructible from media alone after a power cut. PowerCut()
// models the rail dropping mid-operation: in-flight programs leave their
// target page *torn* (unreadable, unprogrammable until the block is erased),
// in-flight erases leave the whole block torn, and every completion scheduled
// before the cut is discarded — the silicon that would have delivered it lost
// power.
#ifndef SRC_SSDDEV_NAND_H_
#define SRC_SSDDEV_NAND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/move_fn.h"
#include "src/base/status.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"

namespace lastcpu::ssddev {

inline constexpr uint32_t kNandPageBytes = 4096;
inline constexpr sim::Duration kNandReadLatency = sim::Duration::Micros(50);

struct NandGeometry {
  uint32_t dies = 4;
  uint32_t blocks_per_die = 64;
  uint32_t pages_per_block = 64;

  uint64_t total_pages() const {
    return static_cast<uint64_t>(dies) * blocks_per_die * pages_per_block;
  }
  uint64_t total_bytes() const { return total_pages() * kNandPageBytes; }
};

// Physical page address.
struct Ppa {
  uint32_t die = 0;
  uint32_t block = 0;
  uint32_t page = 0;

  friend constexpr auto operator<=>(const Ppa&, const Ppa&) = default;
};

// The out-of-band metadata programmed atomically with a page. kData pages
// carry the FTL's mapping entry (lpn + global sequence number) plus the
// filesystem identity of the page; kMeta pages hold an encoded MetaRecord
// batch (trim tombstones, file create/delete/acl — see ftl.h) whose records
// carry their own sequence numbers.
struct OobTag {
  enum class Kind : uint8_t { kNone = 0, kData = 1, kMeta = 2 };
  Kind kind = Kind::kNone;
  uint64_t seq = 0;
  uint64_t lpn = 0;
  // Filesystem piggyback (0 = not file data): which page of which file this
  // is, and the smallest file size implied durable once this page is on
  // media.
  uint32_t file_id = 0;
  uint32_t file_page = 0;
  uint64_t size_after = 0;
};

// The bytes of one programmed page, held as one immutable buffer. The array
// keeps it and hands that same buffer to every reader, so the FTL read cache
// and GC relocation hold the NAND's own page rather than a copy. It reads as
// the page's byte vector; an erased or torn page holds none.
class PageData {
 public:
  PageData() = default;
  // Takes the bytes over. Only an rvalue converts: copying a vector into a
  // page is spelled out at the call site.
  PageData(std::vector<uint8_t>&& bytes)  // NOLINT(google-explicit-constructor)
      : bytes_(std::make_shared<const std::vector<uint8_t>>(std::move(bytes))) {}

  const std::vector<uint8_t>& bytes() const;
  operator const std::vector<uint8_t>&() const {  // NOLINT(google-explicit-constructor)
    return bytes();
  }

 private:
  std::shared_ptr<const std::vector<uint8_t>> bytes_;
};

class NandArray {
 public:
  using ReadCallback = sim::MoveFn<void(Result<PageData>), 160>;
  // 128-byte tier, wide enough for the FTL's GC relocation continuation: a
  // program's completion event then carries the page, its OOB tag and this
  // callback within an EventFn's 256 bytes.
  using OpCallback = sim::MoveFn<void(Status), 128>;

  // kTorn: a program or erase lost power mid-pulse. The page reads as
  // DataLoss and cannot be programmed; only a block erase reclaims it.
  enum class PageState : uint8_t { kErased, kWritten, kTorn };

  NandArray(sim::Simulator* simulator, NandGeometry geometry = {}, uint64_t seed = 1);

  const NandGeometry& geometry() const { return geometry_; }

  // Asynchronous media operations; completion runs after the die frees up
  // plus the operation latency. Invalid addresses and constraint violations
  // (program of a non-erased page, read of an unwritten page) fail. A read
  // delivers the page's own buffer; a program keeps the buffer it is given.
  void ReadPage(Ppa ppa, ReadCallback done);
  void ProgramPage(Ppa ppa, PageData data, OpCallback done);
  void ProgramPage(Ppa ppa, PageData data, OobTag tag, OpCallback done);
  void EraseBlock(uint32_t die, uint32_t block, OpCallback done);

  // The power rail drops *now*. In-flight programs tear their target page,
  // in-flight erases tear their whole block, and every scheduled completion
  // is discarded. Die timers reset — the next operation starts from a cold
  // array.
  void PowerCut();

  // Synchronous media inspection for the recovery scan (the FTL charges the
  // modeled scan latency itself via OccupyForScan).
  PageState StateOf(Ppa ppa) const;
  const OobTag& OobOf(Ppa ppa) const;
  const std::vector<uint8_t>& DataOf(Ppa ppa) const;
  // Charges `latency` of busy time to `die` (recovery OOB scan).
  void OccupyForScan(uint32_t die, sim::Duration latency) { OccupyDie(die, latency); }

  // Probability that a read returns an uncorrectable error (DataLoss), for
  // failure-injection experiments. Default 0.
  void SetReadErrorRate(double rate) { read_error_rate_ = rate; }

  // Observer of program issues, called with the cumulative count (1-based)
  // at issue time. The chaos harness uses it to land a power cut on the Kth
  // NAND program. nullptr clears it.
  using ProgramObserver = std::function<void(uint64_t programs_issued)>;
  void SetProgramObserver(ProgramObserver observer) { program_observer_ = std::move(observer); }

  uint32_t EraseCount(uint32_t die, uint32_t block) const;
  // Wear spread across the whole array.
  uint32_t MinEraseCount() const;
  uint32_t MaxEraseCount() const;
  sim::StatsRegistry& stats() { return stats_; }

 private:
  struct Block {
    std::vector<PageState> pages;
    std::vector<PageData> data;
    std::vector<OobTag> oob;
    uint32_t erase_count = 0;
  };

  struct Die {
    std::vector<Block> blocks;
    sim::SimTime busy_until;
  };

  Status CheckAddress(const Ppa& ppa) const;
  // Serializes an operation on a die; returns its completion time.
  sim::SimTime OccupyDie(uint32_t die, sim::Duration latency);

  sim::Simulator* simulator_;
  NandGeometry geometry_;
  std::vector<Die> dies_;
  sim::Rng rng_;
  double read_error_rate_ = 0.0;
  // Bumped by PowerCut(); completions scheduled under an older generation
  // belong to silicon that lost power and are dropped.
  uint64_t generation_ = 0;
  std::vector<Ppa> inflight_programs_;
  std::vector<std::pair<uint32_t, uint32_t>> inflight_erases_;
  ProgramObserver program_observer_;
  sim::StatsRegistry stats_;
  // Per-IO counters resolved once; registry references are stable.
  sim::Counter& reads_ = stats_.GetCounter("reads");
  sim::Counter& programs_ = stats_.GetCounter("programs");
};

}  // namespace lastcpu::ssddev

#endif  // SRC_SSDDEV_NAND_H_
