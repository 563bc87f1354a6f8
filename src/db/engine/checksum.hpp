// CRC32 (IEEE 802.3 reflected polynomial) and hex helpers for the storage
// engine's WAL frames and snapshot footers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace gptc::db::engine {

/// CRC32 of `data` (init 0xFFFFFFFF, reflected 0xEDB88320, final xor).
std::uint32_t crc32(std::string_view data);

/// Fixed-width lowercase hex (8 digits for 32-bit, 16 for 64-bit values).
std::string hex32(std::uint32_t v);
std::string hex64(std::uint64_t v);

/// Parses fixed-width lowercase/uppercase hex; nullopt on any non-hex digit
/// or length mismatch.
std::optional<std::uint32_t> parse_hex32(std::string_view s);
std::optional<std::uint64_t> parse_hex64(std::string_view s);

}  // namespace gptc::db::engine
