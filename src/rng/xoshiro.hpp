// Deterministic, seedable pseudo-random generator for workloads and solvers.
//
// Every stochastic component of the library (ETC generation, multistart
// solver restarts, DES perturbation directions) takes an explicit
// generator so experiments are exactly reproducible from a seed printed
// in the bench output. xoshiro256** is small, fast, and passes BigCrush;
// splitmix64 expands a single 64-bit seed into the full state.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fepia::rng {

/// SplitMix64 — used to seed Xoshiro256StarStar from one 64-bit value and
/// as a cheap stateless mixer for deriving per-stream seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64-bit value.
  std::uint64_t next() noexcept;

 private:
  std::uint64_t state_;
};

/// xoshiro256** by Blackman & Vigna. Satisfies UniformRandomBitGenerator.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  /// Seeds all 256 bits of state via SplitMix64 from `seed`.
  explicit Xoshiro256StarStar(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// Next 64-bit value. Inline: it is the inner step of every sampler.
  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Jump function: advances the stream by 2^128 steps; used to carve
  /// independent substreams out of one seed.
  void jump() noexcept;

  /// A generator `k` jumps ahead of this one (substream `k`).
  [[nodiscard]] Xoshiro256StarStar substream(unsigned k) const noexcept;

  /// Substreams 0 .. count-1, each one jump past the one before: equal
  /// to substream(k) for every k, in count jumps instead of count²/2.
  [[nodiscard]] std::vector<Xoshiro256StarStar> substreams(
      std::size_t count) const;

  friend bool operator==(const Xoshiro256StarStar&,
                         const Xoshiro256StarStar&) = default;

 private:
  /// Replaces the state by sum_i c_i T^i(state), c_i the bits of `poly`
  /// (bit i of word w is c_{64w+i}) and T one step of the generator.
  void applyPolynomial(const std::array<std::uint64_t, 4>& poly) noexcept;

  std::array<std::uint64_t, 4> s_{};
};

}  // namespace fepia::rng
