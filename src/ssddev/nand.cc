#include "src/ssddev/nand.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"

namespace lastcpu::ssddev {

constexpr sim::Duration kProgramLatency = sim::Duration::Micros(400);
constexpr sim::Duration kEraseLatency = sim::Duration::Millis(3);

const std::vector<uint8_t>& PageData::bytes() const {
  static const std::vector<uint8_t> kNone;
  return bytes_ != nullptr ? *bytes_ : kNone;
}

NandArray::NandArray(sim::Simulator* simulator, NandGeometry geometry, uint64_t seed)
    : simulator_(simulator), geometry_(geometry), rng_(seed) {
  LASTCPU_CHECK(simulator != nullptr, "NAND needs a simulator");
  LASTCPU_CHECK(geometry.dies > 0 && geometry.blocks_per_die > 0 && geometry.pages_per_block > 0,
                "degenerate NAND geometry");
  dies_.resize(geometry.dies);
  for (auto& die : dies_) {
    die.blocks.resize(geometry.blocks_per_die);
    for (auto& block : die.blocks) {
      block.pages.assign(geometry.pages_per_block, PageState::kErased);
      block.data.resize(geometry.pages_per_block);
      block.oob.resize(geometry.pages_per_block);
    }
  }
}

Status NandArray::CheckAddress(const Ppa& ppa) const {
  if (ppa.die >= geometry_.dies || ppa.block >= geometry_.blocks_per_die ||
      ppa.page >= geometry_.pages_per_block) {
    return InvalidArgument("physical page address out of range");
  }
  return OkStatus();
}

sim::SimTime NandArray::OccupyDie(uint32_t die, sim::Duration latency) {
  Die& d = dies_[die];
  sim::SimTime start = std::max(simulator_->Now(), d.busy_until);
  sim::SimTime done = start + latency;
  d.busy_until = done;
  return done;
}

void NandArray::ReadPage(Ppa ppa, ReadCallback done) {
  LASTCPU_CHECK(done != nullptr, "NAND read without callback");
  Status valid = CheckAddress(ppa);
  if (!valid.ok()) {
    simulator_->Schedule(sim::Duration::Nanos(100),
                         [done = std::move(done), valid] { done(valid); });
    return;
  }
  sim::SimTime completion = OccupyDie(ppa.die, kNandReadLatency);
  reads_.Increment();
  bool inject_error = read_error_rate_ > 0.0 && rng_.NextBool(read_error_rate_);
  uint64_t gen = generation_;
  simulator_->ScheduleAt(completion, [this, ppa, inject_error, gen, done = std::move(done)] {
    if (gen != generation_) {
      return;  // the array lost power before this completed
    }
    if (inject_error) {
      stats_.GetCounter("read_errors").Increment();
      done(DataLoss("uncorrectable ECC error"));
      return;
    }
    const Block& block = dies_[ppa.die].blocks[ppa.block];
    if (block.pages[ppa.page] == PageState::kTorn) {
      done(DataLoss("torn page (interrupted program)"));
      return;
    }
    if (block.pages[ppa.page] != PageState::kWritten) {
      done(FailedPrecondition("reading an unwritten page"));
      return;
    }
    done(block.data[ppa.page]);
  });
}

void NandArray::ProgramPage(Ppa ppa, PageData data, OpCallback done) {
  ProgramPage(ppa, std::move(data), OobTag{}, std::move(done));
}

void NandArray::ProgramPage(Ppa ppa, PageData data, OobTag tag, OpCallback done) {
  LASTCPU_CHECK(done != nullptr, "NAND program without callback");
  Status valid = CheckAddress(ppa);
  if (valid.ok() && data.bytes().size() > kNandPageBytes) {
    valid = InvalidArgument("program larger than a page");
  }
  if (!valid.ok()) {
    simulator_->Schedule(sim::Duration::Nanos(100),
                         [done = std::move(done), valid] { done(valid); });
    return;
  }
  sim::SimTime completion = OccupyDie(ppa.die, kProgramLatency);
  programs_.Increment();
  inflight_programs_.push_back(ppa);
  if (program_observer_) {
    program_observer_(programs_.value());
  }
  uint64_t gen = generation_;
  auto land = [this, ppa, gen, tag, data = std::move(data), done = std::move(done)]() mutable {
    if (gen != generation_) {
      return;  // power lost mid-program: the page is already torn
    }
    inflight_programs_.erase(
        std::find(inflight_programs_.begin(), inflight_programs_.end(), ppa));
    Block& block = dies_[ppa.die].blocks[ppa.block];
    if (block.pages[ppa.page] != PageState::kErased) {
      done(FailedPrecondition("program of a non-erased page"));
      return;
    }
    block.pages[ppa.page] = PageState::kWritten;
    block.data[ppa.page] = std::move(data);
    block.oob[ppa.page] = tag;
    done(OkStatus());
  };
  static_assert(sim::EventFn::StoresInline<decltype(land)>(), "program must stay inline");
  simulator_->ScheduleAt(completion, std::move(land));
}

void NandArray::EraseBlock(uint32_t die, uint32_t block, OpCallback done) {
  LASTCPU_CHECK(done != nullptr, "NAND erase without callback");
  if (die >= geometry_.dies || block >= geometry_.blocks_per_die) {
    simulator_->Schedule(sim::Duration::Nanos(100), [done = std::move(done)] {
      done(InvalidArgument("erase address out of range"));
    });
    return;
  }
  sim::SimTime completion = OccupyDie(die, kEraseLatency);
  stats_.GetCounter("erases").Increment();
  inflight_erases_.emplace_back(die, block);
  uint64_t gen = generation_;
  simulator_->ScheduleAt(completion, [this, die, block, gen, done = std::move(done)] {
    if (gen != generation_) {
      return;  // power lost mid-erase: the whole block is torn
    }
    inflight_erases_.erase(
        std::find(inflight_erases_.begin(), inflight_erases_.end(), std::make_pair(die, block)));
    Block& b = dies_[die].blocks[block];
    b.pages.assign(geometry_.pages_per_block, PageState::kErased);
    std::fill(b.data.begin(), b.data.end(), PageData());
    std::fill(b.oob.begin(), b.oob.end(), OobTag{});
    ++b.erase_count;
    done(OkStatus());
  });
}

void NandArray::PowerCut() {
  ++generation_;
  stats_.GetCounter("power_cuts").Increment();
  for (const Ppa& ppa : inflight_programs_) {
    Block& block = dies_[ppa.die].blocks[ppa.block];
    block.pages[ppa.page] = PageState::kTorn;
    block.data[ppa.page] = PageData();
    block.oob[ppa.page] = OobTag{};
    stats_.GetCounter("torn_pages").Increment();
  }
  inflight_programs_.clear();
  for (const auto& [die, block] : inflight_erases_) {
    // An interrupted erase leaves every cell of the block unstable.
    Block& b = dies_[die].blocks[block];
    std::fill(b.pages.begin(), b.pages.end(), PageState::kTorn);
    std::fill(b.data.begin(), b.data.end(), PageData());
    std::fill(b.oob.begin(), b.oob.end(), OobTag{});
  }
  inflight_erases_.clear();
  for (auto& die : dies_) {
    die.busy_until = simulator_->Now();
  }
}

NandArray::PageState NandArray::StateOf(Ppa ppa) const {
  LASTCPU_CHECK(CheckAddress(ppa).ok(), "bad page address");
  return dies_[ppa.die].blocks[ppa.block].pages[ppa.page];
}

const OobTag& NandArray::OobOf(Ppa ppa) const {
  LASTCPU_CHECK(CheckAddress(ppa).ok(), "bad page address");
  return dies_[ppa.die].blocks[ppa.block].oob[ppa.page];
}

const std::vector<uint8_t>& NandArray::DataOf(Ppa ppa) const {
  LASTCPU_CHECK(CheckAddress(ppa).ok(), "bad page address");
  return dies_[ppa.die].blocks[ppa.block].data[ppa.page].bytes();
}

uint32_t NandArray::EraseCount(uint32_t die, uint32_t block) const {
  LASTCPU_CHECK(die < geometry_.dies && block < geometry_.blocks_per_die, "bad block address");
  return dies_[die].blocks[block].erase_count;
}

uint32_t NandArray::MinEraseCount() const {
  uint32_t best = dies_[0].blocks[0].erase_count;
  for (const auto& die : dies_) {
    for (const auto& block : die.blocks) {
      best = std::min(best, block.erase_count);
    }
  }
  return best;
}

uint32_t NandArray::MaxEraseCount() const {
  uint32_t best = 0;
  for (const auto& die : dies_) {
    for (const auto& block : die.blocks) {
      best = std::max(best, block.erase_count);
    }
  }
  return best;
}

}  // namespace lastcpu::ssddev
