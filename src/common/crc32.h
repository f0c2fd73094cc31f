#ifndef RSMI_COMMON_CRC32_H_
#define RSMI_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace rsmi {

/// CRC-32 (IEEE 802.3 polynomial, reflected), the checksum guarding index
/// container payloads (io/index_container.h) and write-behind log records
/// (xmem/write_behind.h) against torn writes and bit rot. Table-driven,
/// byte-at-a-time; the table is built once on first use.
inline uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0) {
  static const uint32_t* kTable = [] {
    static uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace rsmi

#endif  // RSMI_COMMON_CRC32_H_
