#include "persist/crc32.h"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PSNAP_CRC32_FOLDING 1
#include <immintrin.h>
#endif

namespace psnap::persist {

namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups advance the state over eight input bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < t.size(); ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

// Little-endian word assembly, independent of the host's byte order (the
// reflected CRC consumes the lowest-addressed byte first).
std::uint32_t load_le32(const std::byte* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

#ifdef PSNAP_CRC32_FOLDING

// The folding kernel covers the 16-byte-multiple prefix of spans at least
// this long; shorter spans and the tail go through slicing-by-8.
constexpr std::size_t kFoldMin = 64;

#define PSNAP_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

PSNAP_FOLD_TARGET __m128i load(const std::byte* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// Advances lane x past the data k spans and adds the next block.
PSNAP_FOLD_TARGET __m128i fold(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Folds n bytes (n >= 64, n % 16 == 0) into the CRC state with carry-less
// multiplication, after Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009).  Four 128-bit
// lanes advance 64 bytes per step, fold into one lane that takes any
// remaining 16-byte blocks, and the lane reduces to 64 and then 32 bits.
// The constants are the paper's for the reflected polynomial, each
// [x^e mod P << 32]' << 1 (' = bit-reflected):
//   k1, k2  e = 4*128+32, 4*128-32   four-lane fold
//   k3, k4  e = 128+32, 128-32       one-lane fold and 128 -> 64 bits
//   k5      e = 64                   64 -> 32 bits
//   mu, P'  floor(x^64 / P)', P'     Barrett reduction
PSNAP_FOLD_TARGET std::uint32_t fold_crc32(std::uint32_t state,
                                           const std::byte* p,
                                           std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 64 bits, then 64 -> 32 bits with k5.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
                    _mm_srli_si128(x, 4));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

bool cpu_has_folding() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // PSNAP_CRC32_FOLDING

// The CPU check runs once, on the first CRC.
bool use_folding() {
#ifdef PSNAP_CRC32_FOLDING
  static const bool supported = cpu_has_folding();
  return supported;
#else
  return false;
#endif
}

}  // namespace

std::uint32_t crc32_init() { return 0xFFFFFFFFu; }

std::uint32_t crc32_update_slicing8(std::uint32_t state,
                                    std::span<const std::byte> bytes) {
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ state;
    const std::uint32_t hi = load_le32(p + 4);
    state = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = kTables[0][(state ^ static_cast<std::uint32_t>(*p)) & 0xFFu] ^
            (state >> 8);
  }
  return state;
}

std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::byte> bytes) {
#ifdef PSNAP_CRC32_FOLDING
  if (bytes.size() >= kFoldMin && use_folding()) {
    const std::size_t folded = bytes.size() & ~std::size_t{15};
    state = fold_crc32(state, bytes.data(), folded);
    bytes = bytes.subspan(folded);
  }
#endif
  return crc32_update_slicing8(state, bytes);
}

std::uint32_t crc32_finish(std::uint32_t state) { return state ^ 0xFFFFFFFFu; }

std::uint32_t crc32(std::span<const std::byte> bytes) {
  return crc32_finish(crc32_update(crc32_init(), bytes));
}

std::string_view crc32_kernel() {
  return use_folding() ? "pclmul" : "slicing-by-8";
}

}  // namespace psnap::persist
