#include "crypto/montgomery.hpp"

#include <algorithm>
#include <span>

#include "util/assert.hpp"

namespace baps::crypto {
namespace {

__extension__ using u128 = unsigned __int128;

/// a < b over the low k limbs.
bool less(const MontgomeryModulus::Limbs& a, const MontgomeryModulus::Limbs& b,
          std::size_t k) {
  for (std::size_t i = k; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

/// a -= b over the low k limbs (mod 2^(64k)); returns the borrow out.
std::uint64_t sub_in_place(MontgomeryModulus::Limbs& a,
                           const MontgomeryModulus::Limbs& b, std::size_t k) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    a[i] = static_cast<std::uint64_t>(d);
    borrow = static_cast<std::uint64_t>(d >> 64) & 1u;
  }
  return borrow;
}

/// a += b over the low k limbs (mod 2^(64k)); returns the carry out.
std::uint64_t add_in_place(MontgomeryModulus::Limbs& a,
                           const MontgomeryModulus::Limbs& b, std::size_t k) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 s = static_cast<u128>(a[i]) + b[i] + carry;
    a[i] = static_cast<std::uint64_t>(s);
    carry = static_cast<std::uint64_t>(s >> 64);
  }
  return carry;
}

}  // namespace

MontgomeryModulus::MontgomeryModulus(const BigUInt& m)
    : k_(m.limb64_count()) {
  BAPS_REQUIRE(m.is_odd(), "Montgomery modulus must be odd");
  BAPS_REQUIRE(k_ <= kMaxLimbs, "Montgomery modulus exceeds 1024 bits");
  for (std::size_t i = 0; i < k_; ++i) m_[i] = m.limb64(i);
  // m^-1 mod 2^64 by Newton's iteration: m·m ≡ 1 (mod 8) gives 3 correct
  // low bits, and each step doubles them (3 → 96 in five steps).
  std::uint64_t inv = m_[0];
  for (int i = 0; i < 5; ++i) inv *= 2 - m_[0] * inv;
  m_inv_neg_ = ~inv + 1;
  // R mod m and R^2 mod m by doubling 1 (which is 0 mod 1) 128k times.
  Limbs x{};
  x[0] = (k_ == 1 && m_[0] == 1) ? 0 : 1;
  for (std::size_t i = 0; i < 128 * k_; ++i) {
    if (i == 64 * k_) one_ = x;
    x = add_mod(x, x);
  }
  r2_ = x;
}

MontgomeryModulus::Limbs MontgomeryModulus::add_mod(const Limbs& a,
                                                    const Limbs& b) const {
  Limbs out = a;
  const std::uint64_t carry = add_in_place(out, b, k_);
  if (carry || !less(out, m_, k_)) sub_in_place(out, m_, k_);
  return out;
}

MontgomeryModulus::Limbs MontgomeryModulus::redc_mul(const Limbs& a,
                                                     const Limbs& b) const {
  // CIOS: interleave one row of a·b with one word of reduction, so t stays
  // below 2m and fits k limbs plus two carry words.
  std::array<std::uint64_t, kMaxLimbs + 2> t{};
  for (std::size_t i = 0; i < k_; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < k_; ++j) {
      const u128 s = static_cast<u128>(a[i]) * b[j] + t[j] + carry;
      t[j] = static_cast<std::uint64_t>(s);
      carry = static_cast<std::uint64_t>(s >> 64);
    }
    u128 s = static_cast<u128>(t[k_]) + carry;
    t[k_] = static_cast<std::uint64_t>(s);
    t[k_ + 1] = static_cast<std::uint64_t>(s >> 64);

    // Add q·m with q chosen so the low word cancels, then shift one word.
    const std::uint64_t q = t[0] * m_inv_neg_;
    s = static_cast<u128>(q) * m_[0] + t[0];
    carry = static_cast<std::uint64_t>(s >> 64);
    for (std::size_t j = 1; j < k_; ++j) {
      s = static_cast<u128>(q) * m_[j] + t[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(s);
      carry = static_cast<std::uint64_t>(s >> 64);
    }
    s = static_cast<u128>(t[k_]) + carry;
    t[k_ - 1] = static_cast<std::uint64_t>(s);
    t[k_] = t[k_ + 1] + static_cast<std::uint64_t>(s >> 64);
  }
  Limbs out{};
  std::copy_n(t.begin(), k_, out.begin());
  // t < 2m: one conditional subtraction (mod 2^(64k) when t[k] carries).
  if (t[k_] != 0 || !less(out, m_, k_)) sub_in_place(out, m_, k_);
  return out;
}

MontgomeryModulus::Residue MontgomeryModulus::to_residue(
    const BigUInt& x) const {
  BAPS_REQUIRE(!empty(), "empty Montgomery modulus");
  // Horner over k-limb chunks from the top: acc ← acc·R + chunk. Each chunk
  // is below R, so redc_mul(chunk, R^2) = chunk·R mod m needs no prior
  // reduction; redc_mul(acc, R^2) is the Montgomery form of acc·R.
  const std::size_t chunks = (x.limb64_count() + k_ - 1) / k_;
  Limbs acc{};
  for (std::size_t c = chunks; c-- > 0;) {
    Limbs chunk{};
    for (std::size_t j = 0; j < k_; ++j) chunk[j] = x.limb64(c * k_ + j);
    acc = add_mod(redc_mul(acc, r2_), redc_mul(chunk, r2_));
  }
  return Residue{acc};
}

BigUInt MontgomeryModulus::from_residue(const Residue& a) const {
  BAPS_REQUIRE(!empty(), "empty Montgomery modulus");
  Limbs unit{};
  unit[0] = 1;
  const Limbs plain = redc_mul(unit, a.v);
  return BigUInt::from_limbs64(std::span(plain.data(), k_));
}

MontgomeryModulus::Residue MontgomeryModulus::mul(const Residue& a,
                                                  const Residue& b) const {
  return Residue{redc_mul(a.v, b.v)};
}

MontgomeryModulus::Residue MontgomeryModulus::sub(const Residue& a,
                                                  const Residue& b) const {
  Residue out = a;
  if (sub_in_place(out.v, b.v, k_)) add_in_place(out.v, m_, k_);
  return out;
}

MontgomeryModulus::Residue MontgomeryModulus::pow(const Residue& a,
                                                  const BigUInt& exp) const {
  Residue r = one();
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    r.v = redc_mul(r.v, r.v);
    if (exp.bit(i)) r.v = redc_mul(r.v, a.v);
  }
  return r;
}

}  // namespace baps::crypto
