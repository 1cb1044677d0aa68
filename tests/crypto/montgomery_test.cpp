// Seeded randomized differential: MontgomeryModulus against the BigUInt
// reference (mod_pow, %, *) for moduli of 1 to 16 limbs.
#include "crypto/montgomery.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace baps::crypto {
namespace {

BigUInt random_limbs(std::size_t limbs, Xoshiro256& rng) {
  std::vector<std::uint64_t> v(limbs);
  for (auto& x : v) x = rng();
  return BigUInt::from_limbs64(v);
}

/// Odd modulus of exactly `limbs` limbs (top limb nonzero).
BigUInt random_modulus(std::size_t limbs, Xoshiro256& rng) {
  std::vector<std::uint64_t> v(limbs);
  for (auto& x : v) x = rng();
  v.front() |= 1;
  if (v.back() == 0) v.back() = 1;
  return BigUInt::from_limbs64(v);
}

/// Odd modulus of `limbs` limbs whose top limb is all ones.
BigUInt top_ones_modulus(std::size_t limbs, Xoshiro256& rng) {
  std::vector<std::uint64_t> v(limbs);
  for (auto& x : v) x = rng();
  v.front() |= 1;
  v.back() = ~0ULL;
  return BigUInt::from_limbs64(v);
}

/// Exponents stay short: the reference reduces with a bit-serial long
/// division, and every exponent bit runs the same multiply kernel.
BigUInt random_exponent(Xoshiro256& rng) {
  const std::size_t bits = 1 + rng() % 80;
  return BigUInt::from_limbs64(std::vector<std::uint64_t>{rng(), rng()})
      .shifted_right(128 - bits);
}

void expect_pow_matches(const MontgomeryModulus& mont, const BigUInt& m,
                        const BigUInt& base, const BigUInt& exp) {
  EXPECT_EQ(mont.pow(base, exp), BigUInt::mod_pow(base, exp, m))
      << "m=" << m.to_hex() << " base=" << base.to_hex()
      << " exp=" << exp.to_hex();
}

class MontgomeryLimbsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MontgomeryLimbsTest, PowMatchesModPow) {
  const std::size_t limbs = GetParam();
  Xoshiro256 rng(0x6d6f6e74 + limbs);
  for (int trial = 0; trial < 12; ++trial) {
    const BigUInt m = (trial % 3 == 2) ? top_ones_modulus(limbs, rng)
                                       : random_modulus(limbs, rng);
    const MontgomeryModulus mont(m);
    ASSERT_EQ(mont.limb_count(), limbs);
    // Bases below m, of the same width (often >= m), and up to twice and
    // a half as wide as m.
    for (std::size_t base_limbs : {limbs, limbs, 2 * limbs, 2 * limbs + 1}) {
      const BigUInt base = random_limbs(base_limbs, rng);
      expect_pow_matches(mont, m, base, random_exponent(rng));
    }
  }
}

TEST_P(MontgomeryLimbsTest, EdgeOperands) {
  const std::size_t limbs = GetParam();
  Xoshiro256 rng(0x65646765 + limbs);
  std::vector<std::uint64_t> all_ones(limbs, ~0ULL);
  for (const BigUInt& m :
       {random_modulus(limbs, rng), top_ones_modulus(limbs, rng),
        BigUInt::from_limbs64(all_ones)}) {
    const MontgomeryModulus mont(m);
    const BigUInt x = random_limbs(limbs, rng) % m;
    for (const BigUInt& base :
         {BigUInt(), BigUInt(1), BigUInt(2), x, m - BigUInt(1), m,
          m + BigUInt(1), m + m + BigUInt(3), m * m + x}) {
      for (const BigUInt& exp :
           {BigUInt(), BigUInt(1), BigUInt(2), BigUInt(65537),
            random_exponent(rng)}) {
        expect_pow_matches(mont, m, base, exp);
      }
    }
  }
}

TEST_P(MontgomeryLimbsTest, ResidueArithmeticMatchesBigUInt) {
  const std::size_t limbs = GetParam();
  Xoshiro256 rng(0x72657364 + limbs);
  for (int trial = 0; trial < 8; ++trial) {
    const BigUInt m = (trial % 2) ? top_ones_modulus(limbs, rng)
                                  : random_modulus(limbs, rng);
    const MontgomeryModulus mont(m);
    const BigUInt a = random_limbs(2 * limbs + 1, rng);
    const BigUInt b = random_limbs(limbs, rng);
    const BigUInt ra = a % m;
    const BigUInt rb = b % m;
    EXPECT_EQ(mont.reduce(a), ra);
    EXPECT_EQ(mont.reduce(b), rb);
    const auto ma = mont.to_residue(a);
    const auto mb = mont.to_residue(b);
    EXPECT_EQ(mont.from_residue(mont.mul(ma, mb)), (ra * rb) % m);
    EXPECT_EQ(mont.from_residue(mont.sub(ma, mb)),
              ra >= rb ? ra - rb : m - (rb - ra));
    EXPECT_EQ(mont.from_residue(mont.sub(ma, ma)), BigUInt());
    EXPECT_EQ(mont.from_residue(mont.one()), BigUInt(1));
  }
}

INSTANTIATE_TEST_SUITE_P(Limbs, MontgomeryLimbsTest,
                         ::testing::Range<std::size_t>(1, 17),
                         ::testing::PrintToStringParamName());

TEST(MontgomeryModulusTest, ModulusOneMapsEverythingToZero) {
  const MontgomeryModulus mont(BigUInt(1));
  for (std::uint64_t b : {0ULL, 1ULL, 7ULL}) {
    for (std::uint64_t e : {0ULL, 1ULL, 5ULL}) {
      EXPECT_EQ(mont.pow(BigUInt(b), BigUInt(e)),
                BigUInt::mod_pow(BigUInt(b), BigUInt(e), BigUInt(1)));
    }
  }
}

TEST(MontgomeryModulusTest, SmallModuliExhaustive) {
  for (std::uint64_t m : {3ULL, 5ULL, 9ULL, 15ULL, 97ULL}) {
    const MontgomeryModulus mont{BigUInt(m)};
    for (std::uint64_t b = 0; b < 2 * m; ++b) {
      for (std::uint64_t e = 0; e < 9; ++e) {
        EXPECT_EQ(mont.pow(BigUInt(b), BigUInt(e)),
                  BigUInt::mod_pow(BigUInt(b), BigUInt(e), BigUInt(m)))
            << b << "^" << e << " mod " << m;
      }
    }
  }
}

TEST(MontgomeryModulusTest, RejectsEvenZeroAndOversizedModuli) {
  EXPECT_THROW(MontgomeryModulus{BigUInt()}, InvariantError);
  EXPECT_THROW(MontgomeryModulus{BigUInt(10)}, InvariantError);
  const BigUInt too_big = BigUInt(1).shifted_left(1024) + BigUInt(1);
  EXPECT_THROW(MontgomeryModulus{too_big}, InvariantError);
  const BigUInt largest = BigUInt(1).shifted_left(1024) - BigUInt(1);
  EXPECT_EQ(MontgomeryModulus(largest).limb_count(), 16u);
}

TEST(MontgomeryModulusTest, EmptyModulusRefusesConversions) {
  const MontgomeryModulus empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW(empty.to_residue(BigUInt(3)), InvariantError);
}

}  // namespace
}  // namespace baps::crypto
