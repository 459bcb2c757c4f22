#include "src/sim/rng.h"

#include <algorithm>
#include <cmath>

#include "src/base/bytes.h"
#include "src/base/check.h"

namespace lastcpu::sim {
namespace {

constexpr uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// splitmix64: seeds the xoshiro state from a single 64-bit value.
uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
  }
}

uint64_t Rng::NextU64() {
  uint64_t result = RotL(state_[1] * 5, 7) * 9;
  uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  LASTCPU_CHECK(bound > 0, "NextBelow(0)");
  // Lemire's multiply-shift rejection method: unbiased and fast.
  uint64_t threshold = (-bound) % bound;
  for (;;) {
    uint64_t r = NextU64();
    __uint128_t m = static_cast<__uint128_t>(r) * bound;
    if (static_cast<uint64_t>(m) >= threshold) {
      return static_cast<uint64_t>(m >> 64);
    }
  }
}

uint64_t Rng::NextInRange(uint64_t lo, uint64_t hi) {
  LASTCPU_CHECK(lo <= hi, "NextInRange: lo > hi");
  return lo + NextBelow(hi - lo + 1);
}

double Rng::NextDouble() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

double Rng::NextExponential(double mean) {
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(1.0 - u);
}

void Rng::Fill(std::vector<uint8_t>& out) {
  size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    StoreLe(out, i, NextU64());
  }
  if (i < out.size()) {
    // The tail takes the low bytes of one more word.
    uint8_t word[8];
    StoreLe(word, 0, NextU64());
    std::copy_n(word, out.size() - i, out.begin() + static_cast<ptrdiff_t>(i));
  }
}

namespace {

double Zeta(uint64_t n, double theta) {
  double sum = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

}  // namespace

ZipfGenerator::ZipfGenerator(uint64_t n, double theta) : n_(n), theta_(theta) {
  LASTCPU_CHECK(n > 0, "ZipfGenerator: empty domain");
  LASTCPU_CHECK(theta > 0.0 && theta < 1.0, "ZipfGenerator: theta must be in (0,1), got %f", theta);
  zeta2theta_ = Zeta(2, theta);
  zetan_ = Zeta(n, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2theta_ / zetan_);
}

uint64_t ZipfGenerator::Next(Rng& rng) {
  double u = rng.NextDouble();
  double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < 1.0 + std::pow(0.5, theta_)) {
    return 1;
  }
  auto v = static_cast<uint64_t>(static_cast<double>(n_) *
                                 std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return v >= n_ ? n_ - 1 : v;
}

}  // namespace lastcpu::sim
