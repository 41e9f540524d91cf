#include "workload/instruction_stream.hpp"

#include <algorithm>
#include <iterator>

namespace nbx {

std::vector<Instruction> make_stream(const Bitmap& image, const PixelOp& op) {
  std::vector<Instruction> stream;
  stream.reserve(image.pixel_count());
  for (std::size_t i = 0; i < image.pixel_count(); ++i) {
    Instruction ins;
    ins.id = static_cast<std::uint16_t>(i);
    ins.op = op.op;
    ins.a = image.pixel(i);
    ins.b = op.constant;
    ins.golden = golden_alu(op.op, ins.a, ins.b);
    stream.push_back(ins);
  }
  return stream;
}

std::vector<Instruction> random_stream(std::size_t count, Rng& rng) {
  std::vector<Instruction> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Instruction ins;
    ins.id = static_cast<std::uint16_t>(i);
    ins.op = kAllOpcodes[rng.below(4)];
    ins.a = static_cast<std::uint8_t>(rng.below(256));
    ins.b = static_cast<std::uint8_t>(rng.below(256));
    ins.golden = golden_alu(ins.op, ins.a, ins.b);
    stream.push_back(ins);
  }
  return stream;
}

std::vector<Instruction> make_binary_stream(const Bitmap& a,
                                            const Bitmap& b, Opcode op) {
  std::vector<Instruction> stream;
  stream.reserve(a.pixel_count());
  for (std::size_t i = 0; i < a.pixel_count(); ++i) {
    Instruction ins;
    ins.id = static_cast<std::uint16_t>(i);
    ins.op = op;
    ins.a = a.pixel(i);
    ins.b = b.pixel(i);
    ins.golden = golden_alu(op, ins.a, ins.b);
    stream.push_back(ins);
  }
  return stream;
}

Bitmap apply_golden_binary(const Bitmap& a, const Bitmap& b, Opcode op) {
  Bitmap out(a.width(), a.height());
  for (std::size_t i = 0; i < a.pixel_count(); ++i) {
    out.set_pixel(i, golden_alu(op, a.pixel(i), b.pixel(i)));
  }
  return out;
}

namespace {

constexpr std::uint8_t kStreamMagic[4] = {'N', 'B', 'X', 'S'};
constexpr std::uint8_t kStreamVersion = 1;
constexpr std::size_t kHeaderBytes = 4 + 1 + 4;  // magic, version, count
constexpr std::size_t kRecordBytes = 6;  // id lo/hi, op, a, b, golden

std::uint8_t xor_checksum(const std::vector<std::uint8_t>& bytes,
                          std::size_t lo, std::size_t hi) {
  std::uint8_t sum = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    sum = static_cast<std::uint8_t>(sum ^ bytes[i]);
  }
  return sum;
}

}  // namespace

std::string_view stream_decode_status_name(StreamDecodeStatus s) {
  switch (s) {
    case StreamDecodeStatus::kOk:
      return "kOk";
    case StreamDecodeStatus::kTruncated:
      return "kTruncated";
    case StreamDecodeStatus::kBadMagic:
      return "kBadMagic";
    case StreamDecodeStatus::kBadVersion:
      return "kBadVersion";
    case StreamDecodeStatus::kBadOpcode:
      return "kBadOpcode";
    case StreamDecodeStatus::kBadGolden:
      return "kBadGolden";
    case StreamDecodeStatus::kBadChecksum:
      return "kBadChecksum";
    case StreamDecodeStatus::kTrailingBytes:
      return "kTrailingBytes";
  }
  return "?";
}

std::vector<std::uint8_t> encode_stream(
    const std::vector<Instruction>& stream) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(kHeaderBytes + kRecordBytes * stream.size() + 1);
  // Byte-wise appends: a range insert into the fresh buffer trips a
  // -Wstringop-overflow false positive in GCC 12's libstdc++.
  for (const std::uint8_t m : kStreamMagic) {
    bytes.push_back(m);
  }
  bytes.push_back(kStreamVersion);
  const auto count = static_cast<std::uint32_t>(stream.size());
  for (int shift = 0; shift < 32; shift += 8) {
    bytes.push_back(static_cast<std::uint8_t>(count >> shift));
  }
  for (const Instruction& ins : stream) {
    bytes.push_back(static_cast<std::uint8_t>(ins.id & 0xff));
    bytes.push_back(static_cast<std::uint8_t>(ins.id >> 8));
    bytes.push_back(static_cast<std::uint8_t>(ins.op));
    bytes.push_back(ins.a);
    bytes.push_back(ins.b);
    bytes.push_back(ins.golden);
  }
  bytes.push_back(xor_checksum(bytes, kHeaderBytes, bytes.size()));
  return bytes;
}

StreamDecodeStatus decode_stream(const std::vector<std::uint8_t>& bytes,
                                 std::vector<Instruction>* out) {
  out->clear();
  if (bytes.size() < kHeaderBytes + 1) {
    return bytes.size() >= 4 && !std::equal(std::begin(kStreamMagic),
                                            std::end(kStreamMagic),
                                            bytes.begin())
               ? StreamDecodeStatus::kBadMagic
               : StreamDecodeStatus::kTruncated;
  }
  if (!std::equal(std::begin(kStreamMagic), std::end(kStreamMagic),
                  bytes.begin())) {
    return StreamDecodeStatus::kBadMagic;
  }
  if (bytes[4] != kStreamVersion) {
    return StreamDecodeStatus::kBadVersion;
  }
  std::uint32_t count = 0;
  for (int i = 0; i < 4; ++i) {
    count |= static_cast<std::uint32_t>(bytes[5 + i]) << (8 * i);
  }
  const std::size_t expected =
      kHeaderBytes + kRecordBytes * static_cast<std::size_t>(count) + 1;
  if (bytes.size() < expected) {
    return StreamDecodeStatus::kTruncated;
  }
  if (bytes.size() > expected) {
    return StreamDecodeStatus::kTrailingBytes;
  }
  if (xor_checksum(bytes, kHeaderBytes, expected - 1) !=
      bytes[expected - 1]) {
    return StreamDecodeStatus::kBadChecksum;
  }
  std::vector<Instruction> decoded;
  decoded.reserve(count);
  for (std::uint32_t r = 0; r < count; ++r) {
    const std::size_t at = kHeaderBytes + kRecordBytes * r;
    Instruction ins;
    ins.id = static_cast<std::uint16_t>(
        bytes[at] | (static_cast<std::uint16_t>(bytes[at + 1]) << 8));
    if (!opcode_is_valid(bytes[at + 2])) {
      return StreamDecodeStatus::kBadOpcode;
    }
    ins.op = static_cast<Opcode>(bytes[at + 2]);
    ins.a = bytes[at + 3];
    ins.b = bytes[at + 4];
    ins.golden = bytes[at + 5];
    // The golden byte is derived data; a record whose golden disagrees
    // with the opcode semantics is corrupt even if the checksum holds
    // (e.g. a forged blob), and accepting it would poison every
    // correctness score downstream.
    if (ins.golden != golden_alu(ins.op, ins.a, ins.b)) {
      return StreamDecodeStatus::kBadGolden;
    }
    decoded.push_back(ins);
  }
  *out = std::move(decoded);
  return StreamDecodeStatus::kOk;
}

std::size_t reassemble_image(
    const std::vector<std::pair<std::uint16_t, std::uint8_t>>& results,
    Bitmap& reference) {
  std::size_t applied = 0;
  for (const auto& [id, value] : results) {
    if (id < reference.pixel_count()) {
      reference.set_pixel(id, value);
      ++applied;
    }
  }
  return applied;
}

}  // namespace nbx
