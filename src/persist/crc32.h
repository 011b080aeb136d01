// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected) for checkpoint
// frame integrity.
//
// The durability layer never trusts bytes it reads back from disk: a
// frame's CRC is computed over everything before the trailer and verified
// before a single field is believed (persist/checkpoint.h).  CRC-32
// detects every single-bit error and every burst up to 32 bits -- the
// torn-write and bit-rot shapes the torn-checkpoint tests inject -- which
// is the right tool for "reject and fall back", as opposed to a
// cryptographic hash, which would defend against an adversary the
// recovery model does not include.
//
// Two kernels compute the same CRC.  On x86-64 CPUs with PCLMULQDQ and
// SSE4.1, crc32_update folds the 16-byte-multiple prefix of any span of
// 64 bytes or more with carry-less multiplication (four 128-bit lanes,
// the constants of Intel's "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ Instruction"), and slicing-by-8 takes the tail.  The
// CPU check runs once, on the first CRC; elsewhere slicing-by-8 does all
// of the work.  Same polynomial, same bytes on disk: a frame written
// under one kernel verifies under the other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace psnap::persist {

// One-shot CRC-32 of a byte range.  check("123456789") == 0xCBF43926.
std::uint32_t crc32(std::span<const std::byte> bytes);

// Incremental form: feed chunks with `state` threaded through, starting
// and finishing with crc32_init/crc32_finish.  The frame writer checksums
// header and payload this way without concatenating them
// (persist/checkpoint.h).
std::uint32_t crc32_init();
std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::byte> bytes);
std::uint32_t crc32_finish(std::uint32_t state);

// The slicing-by-8 kernel alone, whatever the CPU: the fallback, exposed
// so tests can hold both kernels against a bit-at-a-time reference.
std::uint32_t crc32_update_slicing8(std::uint32_t state,
                                    std::span<const std::byte> bytes);

// The kernel crc32_update uses on this CPU: "pclmul" or "slicing-by-8".
std::string_view crc32_kernel();

}  // namespace psnap::persist
