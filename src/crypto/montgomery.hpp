// Fixed-width Montgomery arithmetic for odd moduli up to 1024 bits.
//
// A MontgomeryModulus precomputes, once, what every modular multiply needs:
// the modulus m in k little-endian 64-bit limbs, -m^-1 mod 2^64, R mod m and
// R^2 mod m with R = 2^(64k). A multiply is then one CIOS pass (Menezes et
// al., Handbook of Applied Cryptography, Alg. 14.36) over fixed-size arrays
// with unsigned __int128 products: no division and no heap traffic. BigUInt
// values cross in and out only at to_residue / from_residue.
//
// Results equal BigUInt::mod_pow bit for bit (tests/crypto/montgomery_test).
// Like BigUInt, this is not constant-time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/biguint.hpp"

namespace baps::crypto {

class MontgomeryModulus {
 public:
  static constexpr std::size_t kMaxLimbs = 16;  ///< 1024-bit moduli
  using Limbs = std::array<std::uint64_t, kMaxLimbs>;

  /// x·R mod m, fully reduced below m; limbs at and above limb_count() are 0.
  struct Residue {
    Limbs v{};
    friend bool operator==(const Residue&, const Residue&) = default;
  };

  /// Empty: no modulus; only assignment is valid.
  MontgomeryModulus() = default;
  /// m must be odd and at most 1024 bits.
  explicit MontgomeryModulus(const BigUInt& m);

  bool empty() const { return k_ == 0; }
  std::size_t limb_count() const { return k_; }

  /// Montgomery form of x mod m, for an x of any size.
  Residue to_residue(const BigUInt& x) const;
  /// The plain value (below m) of a residue.
  BigUInt from_residue(const Residue& a) const;
  /// Montgomery form of 1 (R mod m).
  Residue one() const { return Residue{one_}; }

  Residue mul(const Residue& a, const Residue& b) const;
  Residue sub(const Residue& a, const Residue& b) const;
  /// a^exp, left-to-right square-and-multiply; a^0 is one().
  Residue pow(const Residue& a, const BigUInt& exp) const;
  /// (base ^ exp) mod m == BigUInt::mod_pow(base, exp, m).
  BigUInt pow(const BigUInt& base, const BigUInt& exp) const {
    return from_residue(pow(to_residue(base), exp));
  }
  /// x mod m == x % m.
  BigUInt reduce(const BigUInt& x) const {
    return from_residue(to_residue(x));
  }

 private:
  /// a·b·R^-1 mod m for a < R and b < m (a need not be below m).
  Limbs redc_mul(const Limbs& a, const Limbs& b) const;
  /// (a + b) mod m for a, b < m.
  Limbs add_mod(const Limbs& a, const Limbs& b) const;

  std::size_t k_ = 0;
  std::uint64_t m_inv_neg_ = 0;  ///< -m^-1 mod 2^64
  Limbs m_{};
  Limbs one_{};  ///< R mod m
  Limbs r2_{};   ///< R^2 mod m
};

}  // namespace baps::crypto
