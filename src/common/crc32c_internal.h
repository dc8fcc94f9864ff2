// The two CRC32C implementations behind Crc32c(), exposed so tests and
// kernels can check and time each one directly. Engine code calls Crc32c()
// (crc32c.h), which picks one once, from CPU feature detection.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sias::crc32c_internal {

/// Slice-by-8 table implementation (8 bytes per step, 8 KB of tables); runs
/// on any CPU.
uint32_t Portable(const void* data, size_t n, uint32_t init);

/// True when the CPU has the SSE4.2 `crc32` instruction.
bool HardwareAvailable();

/// SSE4.2 `crc32` implementation, 8 bytes per instruction. Only call it
/// when HardwareAvailable(); on non-x86 builds it is Portable().
uint32_t Hardware(const void* data, size_t n, uint32_t init);

}  // namespace sias::crc32c_internal
