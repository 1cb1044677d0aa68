#include "crypto/biguint.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace baps::crypto {

BigUInt::BigUInt(std::uint64_t v) {
  if (v) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void BigUInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUInt BigUInt::from_bytes(std::span<const std::uint8_t> big_endian) {
  BigUInt out;
  for (std::uint8_t byte : big_endian) {
    out = out.shifted_left(8);
    if (byte) {
      if (out.limbs_.empty()) out.limbs_.push_back(0);
      out.limbs_[0] |= byte;
    }
  }
  return out;
}

BigUInt BigUInt::from_hex(const std::string& hex) {
  BigUInt out;
  for (char c : hex) {
    std::uint32_t nib;
    if (c >= '0' && c <= '9') {
      nib = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nib = static_cast<std::uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      nib = static_cast<std::uint32_t>(c - 'A' + 10);
    } else {
      BAPS_REQUIRE(false, std::string("invalid hex character: ") + c);
      return out;
    }
    out = out.shifted_left(4);
    if (nib) {
      if (out.limbs_.empty()) out.limbs_.push_back(0);
      out.limbs_[0] |= nib;
    }
  }
  return out;
}

std::size_t BigUInt::bit_length() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * 32;
  std::uint32_t top = limbs_.back();
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigUInt::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1u;
}

std::vector<std::uint8_t> BigUInt::to_bytes() const {
  std::vector<std::uint8_t> out;
  out.reserve(limbs_.size() * 4);
  for (auto it = limbs_.rbegin(); it != limbs_.rend(); ++it) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      out.push_back(static_cast<std::uint8_t>(*it >> shift));
    }
  }
  // Strip leading zeros.
  std::size_t first = 0;
  while (first < out.size() && out[first] == 0) ++first;
  out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(first));
  return out;
}

std::string BigUInt::to_hex() const {
  if (limbs_.empty()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (auto it = limbs_.rbegin(); it != limbs_.rend(); ++it) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      out += kDigits[(*it >> shift) & 0xF];
    }
  }
  const std::size_t first = out.find_first_not_of('0');
  return out.substr(first);
}

std::uint64_t BigUInt::to_u64() const {
  BAPS_REQUIRE(bit_length() <= 64, "BigUInt does not fit in 64 bits");
  std::uint64_t v = 0;
  if (!limbs_.empty()) v = limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  return v;
}

std::uint64_t BigUInt::limb64(std::size_t i) const {
  std::uint64_t v = 0;
  if (2 * i < limbs_.size()) v = limbs_[2 * i];
  if (2 * i + 1 < limbs_.size()) {
    v |= static_cast<std::uint64_t>(limbs_[2 * i + 1]) << 32;
  }
  return v;
}

BigUInt BigUInt::from_limbs64(std::span<const std::uint64_t> limbs) {
  BigUInt out;
  out.limbs_.reserve(limbs.size() * 2);
  for (std::uint64_t v : limbs) {
    out.limbs_.push_back(static_cast<std::uint32_t>(v));
    out.limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
  }
  out.trim();
  return out;
}

std::strong_ordering operator<=>(const BigUInt& a, const BigUInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() <=> b.limbs_.size();
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] <=> b.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigUInt operator+(const BigUInt& a, const BigUInt& b) {
  BigUInt out;
  const std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t s = carry;
    if (i < a.limbs_.size()) s += a.limbs_[i];
    if (i < b.limbs_.size()) s += b.limbs_[i];
    out.limbs_[i] = static_cast<std::uint32_t>(s);
    carry = s >> 32;
  }
  if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

BigUInt operator-(const BigUInt& a, const BigUInt& b) {
  BAPS_REQUIRE(a >= b, "BigUInt subtraction underflow");
  BigUInt out;
  out.limbs_.resize(a.limbs_.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::int64_t d = static_cast<std::int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) d -= b.limbs_[i];
    if (d < 0) {
      d += (1LL << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<std::uint32_t>(d);
  }
  out.trim();
  return out;
}

BigUInt operator*(const BigUInt& a, const BigUInt& b) {
  if (a.is_zero() || b.is_zero()) return BigUInt();
  BigUInt out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      std::uint64_t cur = out.limbs_[i + j] +
                          static_cast<std::uint64_t>(a.limbs_[i]) * b.limbs_[j] +
                          carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + b.limbs_.size();
    while (carry) {
      std::uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.trim();
  return out;
}

BigUInt BigUInt::shifted_left(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    BigUInt copy = *this;
    return copy;
  }
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigUInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.trim();
  return out;
}

BigUInt BigUInt::shifted_right(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) return BigUInt();
  const std::size_t bit_shift = bits % 32;
  BigUInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(limbs_[i + limb_shift]) >>
                      bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.trim();
  return out;
}

std::pair<BigUInt, BigUInt> BigUInt::divmod(const BigUInt& num,
                                            const BigUInt& den) {
  BAPS_REQUIRE(!den.is_zero(), "division by zero");
  if (num < den) return {BigUInt(), num};
  // Binary long division: O(bits * limbs); fine at our key sizes.
  BigUInt quotient;
  quotient.limbs_.assign(num.limbs_.size(), 0);
  BigUInt remainder;
  for (std::size_t i = num.bit_length(); i-- > 0;) {
    remainder = remainder.shifted_left(1);
    if (num.bit(i)) {
      if (remainder.limbs_.empty()) remainder.limbs_.push_back(0);
      remainder.limbs_[0] |= 1;
    }
    if (remainder >= den) {
      remainder = remainder - den;
      quotient.limbs_[i / 32] |= (1u << (i % 32));
    }
  }
  quotient.trim();
  return {quotient, remainder};
}

BigUInt BigUInt::mod_pow(const BigUInt& base, const BigUInt& exp,
                         const BigUInt& m) {
  BAPS_REQUIRE(!m.is_zero(), "mod_pow modulus must be nonzero");
  if (m == BigUInt(1)) return BigUInt();
  BigUInt result(1);
  BigUInt b = base % m;
  for (std::size_t i = 0, n = exp.bit_length(); i < n; ++i) {
    if (exp.bit(i)) result = (result * b) % m;
    b = (b * b) % m;
  }
  return result;
}

BigUInt BigUInt::gcd(BigUInt a, BigUInt b) {
  while (!b.is_zero()) {
    BigUInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigUInt BigUInt::mod_inverse(const BigUInt& a, const BigUInt& m) {
  // Extended Euclid over non-negative values: track coefficients of 'a'
  // (mod m) as (sign, magnitude) to stay within unsigned arithmetic.
  BigUInt r0 = m, r1 = a % m;
  BigUInt t0, t1(1);
  bool neg0 = false, neg1 = false;
  while (!r1.is_zero()) {
    auto [q, r2] = divmod(r0, r1);
    // t2 = t0 - q * t1 with explicit sign handling.
    BigUInt qt = q * t1;
    BigUInt t2;
    bool neg2;
    if (neg0 == neg1) {
      if (t0 >= qt) {
        t2 = t0 - qt;
        neg2 = neg0;
      } else {
        t2 = qt - t0;
        neg2 = !neg0;
      }
    } else {
      t2 = t0 + qt;
      neg2 = neg0;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    neg0 = neg1;
    t1 = std::move(t2);
    neg1 = neg2;
  }
  if (!(r0 == BigUInt(1))) return BigUInt();  // not invertible
  if (neg0) return m - (t0 % m);
  return t0 % m;
}

}  // namespace baps::crypto
