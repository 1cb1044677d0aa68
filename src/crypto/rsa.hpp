// Demonstration-grade RSA signatures for the paper's digital watermark.
//
// The proxy signs each document's MD5 digest with its private key; any client
// verifies with the proxy's public key but cannot forge a matching watermark.
// Keys are small (default 256-bit modulus) because the reproduction needs the
// protocol's algebraic shape, not production security; the sizes are knobs.
//
// Private-key operations use the Chinese Remainder Theorem: two half-size
// exponentiations mod p and mod q on MontgomeryModulus, recombined with
// Garner's formula. The result equals BigUInt::mod_pow(x, d, n) byte for
// byte. Public-key operations stay on BigUInt::mod_pow.
#pragma once

#include <cstdint>

#include "crypto/biguint.hpp"
#include "crypto/md5.hpp"
#include "crypto/montgomery.hpp"

namespace baps::crypto {

struct RsaPublicKey {
  BigUInt n;  ///< modulus
  BigUInt e;  ///< public exponent (65537)
};

/// The private key with its CRT components (PKCS #1's p, q, dP, dQ, qInv).
/// generate_rsa_keypair fills every field; a key without them (mont_p empty)
/// cannot sign or decrypt.
struct RsaPrivateKey {
  BigUInt n;
  BigUInt d;      ///< private exponent
  BigUInt p;      ///< prime factor of n, modulus_bits / 2 bits
  BigUInt q;      ///< the other prime factor, p != q
  BigUInt dp;     ///< d mod (p - 1)
  BigUInt dq;     ///< d mod (q - 1)
  BigUInt q_inv;  ///< q^-1 mod p
  MontgomeryModulus mont_p;  ///< prebuilt for p
  MontgomeryModulus mont_q;  ///< prebuilt for q
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

/// Miller–Rabin probabilistic primality test with `rounds` random witnesses.
/// n must be at most 1024 bits (the rounds run on MontgomeryModulus).
bool is_probable_prime(const BigUInt& n, int rounds, std::uint64_t seed);

/// Random prime with exactly `bits` bits (top bit set), deterministic in seed.
BigUInt generate_prime(std::size_t bits, std::uint64_t seed);

/// RSA key pair with a modulus of ~`modulus_bits` bits. Deterministic in seed.
/// modulus_bits must be >= 136 so a 16-byte MD5 digest embeds below n, and
/// <= 2048 so each prime fits a MontgomeryModulus.
RsaKeyPair generate_rsa_keypair(std::size_t modulus_bits, std::uint64_t seed);

/// x^d mod n for x < n, by CRT; equals BigUInt::mod_pow(x, key.d, key.n).
/// The one private-key operation: signing and onion decryption share it.
BigUInt rsa_private_op(const BigUInt& x, const RsaPrivateKey& key);

/// Signature over an MD5 digest: sig = digest^d mod n.
BigUInt rsa_sign_digest(const Md5Digest& digest, const RsaPrivateKey& key);

/// Verifies sig^e mod n == digest.
bool rsa_verify_digest(const Md5Digest& digest, const BigUInt& signature,
                       const RsaPublicKey& key);

}  // namespace baps::crypto
