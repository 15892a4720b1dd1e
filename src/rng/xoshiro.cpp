#include "rng/xoshiro.hpp"

namespace fepia::rng {

namespace {

/// A polynomial over GF(2) of degree < 256: bit i of word w is the
/// coefficient of x^(64w+i).
using Poly = std::array<std::uint64_t, 4>;

/// Low 256 coefficients of the characteristic polynomial
/// p(x) = x^256 + kCharPoly(x) of the xoshiro256 state transition
/// (Berlekamp–Massey on one state bit; the test suite checks that
/// x^(2^128) mod p reproduces kJump).
constexpr Poly kCharPoly = {0x9D116F2BB0F0F001ull, 0x0280002BCEFD1A5Eull,
                            0x04B4EDCF26259F85ull, 0x0003C03C3F3ECB19ull};

/// r * x mod p.
void mulX(Poly& r) noexcept {
  const bool carry = (r[3] >> 63) != 0;
  for (std::size_t w = 3; w > 0; --w) r[w] = (r[w] << 1) | (r[w - 1] >> 63);
  r[0] <<= 1;
  if (carry) {
    for (std::size_t w = 0; w < 4; ++w) r[w] ^= kCharPoly[w];
  }
}

/// Interleaves zero bits into the low 32 bits of x: bit i moves to 2i.
/// Squaring over GF(2) is exactly this spread.
std::uint64_t spreadBits(std::uint64_t x) noexcept {
  x &= 0xFFFFFFFFull;
  x = (x | (x << 16)) & 0x0000FFFF0000FFFFull;
  x = (x | (x << 8)) & 0x00FF00FF00FF00FFull;
  x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0Full;
  x = (x | (x << 2)) & 0x3333333333333333ull;
  x = (x | (x << 1)) & 0x5555555555555555ull;
  return x;
}

/// r^2 mod p: spread to 512 bits, then fold every set bit i >= 256 back
/// as x^(i-256) * kCharPoly, top bit first (each fold only touches bits
/// below i).
Poly squareMod(const Poly& r) noexcept {
  std::array<std::uint64_t, 8> wide{};
  for (std::size_t w = 0; w < 4; ++w) {
    wide[2 * w] = spreadBits(r[w]);
    wide[2 * w + 1] = spreadBits(r[w] >> 32);
  }
  for (std::size_t top = 7; top >= 4; --top) {
    while (wide[top] != 0) {
      const unsigned bit =
          63u - static_cast<unsigned>(std::countl_zero(wide[top]));
      wide[top] ^= std::uint64_t{1} << bit;
      const std::size_t s = 64 * (top - 4) + bit;  // fold x^(256+s)
      const std::size_t ws = s / 64;
      const unsigned bs = static_cast<unsigned>(s % 64);
      for (std::size_t w = 0; w < 4; ++w) {
        wide[w + ws] ^= kCharPoly[w] << bs;
        if (bs != 0) wide[w + ws + 1] ^= kCharPoly[w] >> (64 - bs);
      }
    }
  }
  return Poly{wide[0], wide[1], wide[2], wide[3]};
}

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
  // x^(2^128) mod p.
  static constexpr Poly kJump = {0x180EC6D33CFD0ABAull, 0xD5A61266F0C9392Cull,
                                 0xA9582618E03FC9AAull, 0x39ABDC4529B1661Cull};
  applyPolynomial(kJump);
}

void Xoshiro256StarStar::discard(std::uint64_t count, unsigned shift) noexcept {
  if (count == 0) return;
  // x^count mod p by left-to-right square-and-multiply, then `shift`
  // more squarings for the 2^shift factor.
  Poly r{1, 0, 0, 0};
  for (int bit = 63 - std::countl_zero(count); bit >= 0; --bit) {
    r = squareMod(r);
    if ((count >> bit) & 1u) mulX(r);
  }
  for (unsigned i = 0; i < shift; ++i) r = squareMod(r);
  applyPolynomial(r);
}

Xoshiro256StarStar Xoshiro256StarStar::substream(unsigned k) const noexcept {
  Xoshiro256StarStar out = *this;
  for (unsigned i = 0; i <= k; ++i) out.jump();
  return out;
}

}  // namespace fepia::rng
