#include "rng/xoshiro.hpp"

namespace fepia::rng {

namespace {

/// A polynomial over GF(2) of degree < 256: bit i of word w is the
/// coefficient of x^(64w+i).
using Poly = std::array<std::uint64_t, 4>;

}  // namespace

std::uint64_t SplitMix64::next() noexcept {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
  // All-zero state is invalid for xoshiro; splitmix cannot produce four
  // consecutive zeros in practice, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9E3779B97F4A7C15ull;
}

void Xoshiro256StarStar::applyPolynomial(const Poly& poly) noexcept {
  Poly acc{};
  for (const std::uint64_t word : poly) {
    for (int b = 0; b < 64; ++b) {
      if (word & (std::uint64_t{1} << b)) {
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= s_[i];
      }
      (void)(*this)();
    }
  }
  s_ = acc;
}

void Xoshiro256StarStar::jump() noexcept {
  // x^(2^128) modulo the characteristic polynomial of one step.
  static constexpr Poly kJump = {0x180EC6D33CFD0ABAull, 0xD5A61266F0C9392Cull,
                                 0xA9582618E03FC9AAull, 0x39ABDC4529B1661Cull};
  applyPolynomial(kJump);
}

Xoshiro256StarStar Xoshiro256StarStar::substream(unsigned k) const noexcept {
  Xoshiro256StarStar out = *this;
  for (unsigned i = 0; i <= k; ++i) out.jump();
  return out;
}

std::vector<Xoshiro256StarStar> Xoshiro256StarStar::substreams(
    std::size_t count) const {
  std::vector<Xoshiro256StarStar> out;
  out.reserve(count);
  Xoshiro256StarStar next = *this;
  for (std::size_t k = 0; k < count; ++k) {
    next.jump();
    out.push_back(next);
  }
  return out;
}

}  // namespace fepia::rng
