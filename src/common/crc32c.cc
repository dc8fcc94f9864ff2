#include "common/crc32c.h"

#include <array>

#include "common/coding.h"
#include "common/crc32c_internal.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace sias {
namespace crc32c_internal {
namespace {

// Reflected CRC32C polynomial. kTables[0] is the classic byte table;
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups fold one 64-bit word (slice-by-8).
constexpr uint32_t kPoly = 0x82f63b78u;
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) crc = (crc >> 1) ^ (kPoly & (0u - (crc & 1)));
    t[0][i] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr Tables kTables = BuildTables();

}  // namespace

uint32_t Portable(const void* data, size_t n, uint32_t init) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~init;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t v = DecodeFixed64(p) ^ crc;
    crc = kTables[7][v & 0xff] ^ kTables[6][(v >> 8) & 0xff] ^
          kTables[5][(v >> 16) & 0xff] ^ kTables[4][(v >> 24) & 0xff] ^
          kTables[3][(v >> 32) & 0xff] ^ kTables[2][(v >> 40) & 0xff] ^
          kTables[1][(v >> 48) & 0xff] ^ kTables[0][v >> 56];
  }
  for (; n > 0; ++p, --n) crc = kTables[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  return ~crc;
}

#if defined(__x86_64__)
bool HardwareAvailable() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

// Compiled for SSE4.2 regardless of the build flags; only reached through
// the runtime check above.
__attribute__((target("sse4.2"))) uint32_t Hardware(const void* data,
                                                    size_t n, uint32_t init) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~init;
  for (; n >= 8; p += 8, n -= 8) crc = _mm_crc32_u64(crc, DecodeFixed64(p));
  uint32_t c = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) c = _mm_crc32_u8(c, *p);
  return ~c;
}
#else
bool HardwareAvailable() { return false; }

uint32_t Hardware(const void* data, size_t n, uint32_t init) {
  return Portable(data, n, init);
}
#endif

}  // namespace crc32c_internal

uint32_t Crc32c(const void* data, size_t n, uint32_t init) {
  using Impl = uint32_t (*)(const void*, size_t, uint32_t);
  static const Impl impl = crc32c_internal::HardwareAvailable()
                               ? crc32c_internal::Hardware
                               : crc32c_internal::Portable;
  return impl(data, n, init);
}

}  // namespace sias
