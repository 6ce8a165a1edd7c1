// Checkpoint envelope codec: canonical bytes, round-trips, and the
// corruption known-answer tests — truncation, flipped CRC bytes, wrong
// magic/version — every one a typed CheckpointError, never UB or a
// partially parsed envelope.
#include "persist/checkpoint.h"

#include <gtest/gtest.h>

#include "persist/crc32.h"

namespace icbtc::persist {
namespace {

util::Bytes sample_envelope() {
  CheckpointWriter w;
  auto& a = w.begin_section(1);
  a.u32le(0xdeadbeef);
  a.str("section one");
  auto& b = w.begin_section(5);
  b.u64le(42);
  auto& c = w.begin_section(9);
  c.var_bytes(util::Bytes{1, 2, 3});
  return std::move(w).finish();
}

CheckpointError::Code decode_code(util::ByteSpan file) {
  try {
    CheckpointReader reader(file);
  } catch (const CheckpointError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected CheckpointError";
  return CheckpointError::Code::kIo;
}

TEST(Crc32Test, KnownAnswers) {
  // IEEE reflected CRC-32 reference vectors.
  EXPECT_EQ(crc32(util::ByteSpan{}), 0x00000000u);
  util::Bytes check{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check), 0xCBF43926u);
  util::Bytes hello{'h', 'e', 'l', 'l', 'o'};
  EXPECT_EQ(crc32(hello), 0x3610A686u);
}

TEST(Crc32Test, Chainable) {
  util::Bytes data{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  std::uint32_t split = crc32(util::ByteSpan(data.data() + 4, 5),
                              crc32(util::ByteSpan(data.data(), 4)));
  EXPECT_EQ(split, crc32(data));
}

TEST(CheckpointCodecTest, RoundTrip) {
  util::Bytes file = sample_envelope();
  CheckpointReader reader(file);
  EXPECT_EQ(reader.section_count(), 3u);
  EXPECT_TRUE(reader.has_section(1));
  EXPECT_TRUE(reader.has_section(5));
  EXPECT_TRUE(reader.has_section(9));
  EXPECT_FALSE(reader.has_section(2));

  util::ByteReader a = reader.section(1);
  EXPECT_EQ(a.u32le(), 0xdeadbeefu);
  util::ByteReader b = reader.section(5);
  EXPECT_EQ(b.u64le(), 42u);
  util::ByteReader c = reader.section(9);
  EXPECT_EQ(c.var_bytes(), (util::Bytes{1, 2, 3}));
}

TEST(CheckpointCodecTest, CanonicalBytes) {
  // Same logical content → byte-identical envelope (the CI `cmp` gate).
  EXPECT_EQ(sample_envelope(), sample_envelope());
}

TEST(CheckpointCodecTest, EmptyEnvelopeRoundTrips) {
  util::Bytes file = std::move(CheckpointWriter{}).finish();
  CheckpointReader reader(file);
  EXPECT_EQ(reader.section_count(), 0u);
  EXPECT_THROW(reader.section(1), CheckpointError);
}

TEST(CheckpointCodecTest, WriterRejectsNonMonotoneIds) {
  CheckpointWriter w;
  w.begin_section(3);
  EXPECT_THROW(w.begin_section(3), CheckpointError);
  EXPECT_THROW(w.begin_section(2), CheckpointError);
}

// ---------------------------------------------------------------------------
// Corruption KATs

TEST(CheckpointCorruptionTest, BadMagic) {
  util::Bytes file = sample_envelope();
  file[0] ^= 0xff;
  EXPECT_EQ(decode_code(file), CheckpointError::Code::kBadMagic);
}

TEST(CheckpointCorruptionTest, BadVersion) {
  util::Bytes file = sample_envelope();
  file[4] += 1;
  EXPECT_EQ(decode_code(file), CheckpointError::Code::kBadVersion);
}

TEST(CheckpointCorruptionTest, NonzeroFlags) {
  util::Bytes file = sample_envelope();
  file[12] = 1;
  EXPECT_EQ(decode_code(file), CheckpointError::Code::kBadSection);
}

TEST(CheckpointCorruptionTest, TruncatedAtEveryLength) {
  // Cutting the file anywhere must yield a typed error, never UB. (Shorter
  // prefixes usually read as truncation; cutting inside the trailing file
  // CRC can also surface as a CRC mismatch. Both are typed.)
  util::Bytes file = sample_envelope();
  for (std::size_t len = 0; len < file.size(); ++len) {
    util::ByteSpan prefix(file.data(), len);
    CheckpointError::Code code = decode_code(prefix);
    EXPECT_TRUE(code == CheckpointError::Code::kTruncated ||
                code == CheckpointError::Code::kCrcMismatch)
        << "len=" << len << " code=" << to_string(code);
  }
}

TEST(CheckpointCorruptionTest, FlippedSectionCrcByte) {
  util::Bytes file = sample_envelope();
  // First section header starts at 16: id(4) + len(8) then crc at 28.
  file[28] ^= 0x01;
  EXPECT_EQ(decode_code(file), CheckpointError::Code::kCrcMismatch);
}

TEST(CheckpointCorruptionTest, FlippedPayloadByte) {
  util::Bytes file = sample_envelope();
  file[32] ^= 0x40;  // first payload byte of section 1
  EXPECT_EQ(decode_code(file), CheckpointError::Code::kCrcMismatch);
}

TEST(CheckpointCorruptionTest, FlippedFileCrcByte) {
  util::Bytes file = sample_envelope();
  file[file.size() - 1] ^= 0x80;
  EXPECT_EQ(decode_code(file), CheckpointError::Code::kCrcMismatch);
}

TEST(CheckpointCorruptionTest, TrailingBytes) {
  util::Bytes file = sample_envelope();
  file.push_back(0x00);
  CheckpointError::Code code = decode_code(file);
  // The extra byte either trips the envelope walk (trailing) or, because the
  // parser sizes sections against the file end, a bounds/CRC check. Typed
  // either way; the canonical single-byte case is kTrailingBytes.
  EXPECT_TRUE(code == CheckpointError::Code::kTrailingBytes ||
              code == CheckpointError::Code::kCrcMismatch ||
              code == CheckpointError::Code::kTruncated)
      << to_string(code);
}

TEST(CheckpointCorruptionTest, OversizedSectionCountIsTyped) {
  // The section count (bytes 8..11) is untrusted: a huge claim must neither
  // allocate for it nor escape the typed errors. The walk consumes the three
  // real sections, then stands at the 4-byte file CRC with too few bytes
  // left for another section header.
  for (std::uint32_t count : {0x80000003u, 0xFFFFFFFFu}) {
    util::Bytes file = sample_envelope();
    for (int i = 0; i < 4; ++i) file[8 + i] = static_cast<std::uint8_t>(count >> (8 * i));
    EXPECT_EQ(decode_code(file), CheckpointError::Code::kTruncated) << "count=" << count;
  }
}

TEST(CheckpointCorruptionTest, EveryFlippedBitIsTyped) {
  // Exhaustive single-bit-flip sweep: no flip may parse cleanly (the file
  // CRC covers every byte) and none may escape the typed error hierarchy.
  util::Bytes file = sample_envelope();
  for (std::size_t byte = 0; byte < file.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      util::Bytes corrupt = file;
      corrupt[byte] ^= static_cast<std::uint8_t>(1u << bit);
      bool threw = false;
      try {
        CheckpointReader reader(corrupt);
      } catch (const CheckpointError&) {
        threw = true;
      }
      EXPECT_TRUE(threw) << "byte " << byte << " bit " << bit << " parsed cleanly";
    }
  }
}

TEST(CheckpointCodecTest, FileIoRoundTripAndErrors) {
  util::Bytes file = sample_envelope();
  std::string path = ::testing::TempDir() + "codec_test.ckpt";
  write_checkpoint_file(path, file);
  EXPECT_EQ(read_checkpoint_file(path), file);
  try {
    read_checkpoint_file(::testing::TempDir() + "does_not_exist.ckpt");
    FAIL() << "expected kIo";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.code(), CheckpointError::Code::kIo);
  }
}

}  // namespace
}  // namespace icbtc::persist
