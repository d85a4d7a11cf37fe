#include "sparse/csc.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace gesp::sparse {

namespace {

constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;  // odd: * is a bijection

std::uint64_t load_word(const unsigned char* p, std::size_t len) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, len);
  return w;
}

/// One lane step: bijective in h for a fixed word, injective in the word
/// for a fixed h. The rotation carries the product's well-mixed high half
/// into the low bits the next multiply spreads upward.
std::uint64_t lane_step(std::uint64_t h, std::uint64_t w) {
  return std::rotl((h ^ w) * kMul, 32);
}

/// MurmurHash3's 64-bit finalizer (a bijection).
std::uint64_t avalanche(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

std::uint64_t hash_bytes(const void* data, std::size_t size,
                         std::uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t lane[4] = {seed, seed + kMul, seed + 2 * kMul,
                           seed + 3 * kMul};
  std::size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    lane[0] = lane_step(lane[0], load_word(p + i, 8));
    lane[1] = lane_step(lane[1], load_word(p + i + 8, 8));
    lane[2] = lane_step(lane[2], load_word(p + i + 16, 8));
    lane[3] = lane_step(lane[3], load_word(p + i + 24, 8));
  }
  // Tail: the remaining words, the last one zero-padded, into lanes 0..3
  // in turn; the length folded in below tells the padding apart.
  for (int l = 0; i < size; i += 8, ++l) {
    const std::size_t len = std::min<std::size_t>(8, size - i);
    lane[l] = lane_step(lane[l], load_word(p + i, len));
  }
  std::uint64_t h = avalanche(static_cast<std::uint64_t>(size) ^ seed);
  for (const std::uint64_t x : lane) h = (h ^ avalanche(x)) * kMul;
  return avalanche(h);
}

std::vector<index_t> inverse_permutation(std::span<const index_t> p) {
  std::vector<index_t> inv(p.size(), -1);
  for (std::size_t i = 0; i < p.size(); ++i) {
    GESP_CHECK(p[i] >= 0 && static_cast<std::size_t>(p[i]) < p.size(),
               Errc::invalid_argument, "permutation entry out of range");
    GESP_CHECK(inv[p[i]] == -1, Errc::invalid_argument,
               "duplicate permutation entry");
    inv[p[i]] = static_cast<index_t>(i);
  }
  return inv;
}

bool is_permutation(std::span<const index_t> p) {
  std::vector<bool> seen(p.size(), false);
  for (index_t v : p) {
    if (v < 0 || static_cast<std::size_t>(v) >= p.size() || seen[v])
      return false;
    seen[v] = true;
  }
  return true;
}

}  // namespace gesp::sparse
