#include "persist/checkpoint.h"

#include <algorithm>
#include <cstdio>

#include "persist/crc32.h"

namespace icbtc::persist {

const char* to_string(CheckpointError::Code code) {
  switch (code) {
    case CheckpointError::Code::kIo: return "io";
    case CheckpointError::Code::kBadMagic: return "bad magic";
    case CheckpointError::Code::kBadVersion: return "bad version";
    case CheckpointError::Code::kTruncated: return "truncated";
    case CheckpointError::Code::kCrcMismatch: return "crc mismatch";
    case CheckpointError::Code::kBadSection: return "bad section";
    case CheckpointError::Code::kTrailingBytes: return "trailing bytes";
    case CheckpointError::Code::kMalformed: return "malformed";
  }
  return "?";
}

util::ByteWriter& CheckpointWriter::begin_section(std::uint32_t id) {
  if (!sections_.empty() && sections_.back().id >= id) {
    throw CheckpointError(CheckpointError::Code::kBadSection,
                          "section ids must strictly increase");
  }
  sections_.emplace_back();
  sections_.back().id = id;
  return sections_.back().payload;
}

util::Bytes CheckpointWriter::finish() && {
  util::ByteWriter w;
  w.u32le(kCheckpointMagic);
  w.u32le(kCheckpointVersion);
  w.u32le(static_cast<std::uint32_t>(sections_.size()));
  w.u32le(0);  // flags
  for (const Section& s : sections_) {
    w.u32le(s.id);
    w.u64le(s.payload.size());
    w.u32le(crc32(s.payload.data()));
    w.bytes(s.payload.data());
  }
  w.u32le(crc32(w.data()));
  return std::move(w).take();
}

namespace {

constexpr std::size_t kEnvelopeHeader = 16;   // magic + version + count + flags
constexpr std::size_t kSectionHeader = 16;    // id + len + crc

std::uint32_t read_u32(util::ByteSpan file, std::size_t at) {
  return static_cast<std::uint32_t>(file[at]) | (static_cast<std::uint32_t>(file[at + 1]) << 8) |
         (static_cast<std::uint32_t>(file[at + 2]) << 16) |
         (static_cast<std::uint32_t>(file[at + 3]) << 24);
}

std::uint64_t read_u64(util::ByteSpan file, std::size_t at) {
  return static_cast<std::uint64_t>(read_u32(file, at)) |
         (static_cast<std::uint64_t>(read_u32(file, at + 4)) << 32);
}

}  // namespace

CheckpointReader::CheckpointReader(util::ByteSpan file) {
  using Code = CheckpointError::Code;
  if (file.size() < kEnvelopeHeader + 4) throw CheckpointError(Code::kTruncated, "short file");
  if (read_u32(file, 0) != kCheckpointMagic) throw CheckpointError(Code::kBadMagic, "bad magic");
  std::uint32_t version = read_u32(file, 4);
  if (version != kCheckpointVersion) {
    throw CheckpointError(Code::kBadVersion,
                          "unsupported version " + std::to_string(version));
  }
  std::uint32_t count = read_u32(file, 8);
  if (read_u32(file, 12) != 0) throw CheckpointError(Code::kBadSection, "nonzero flags");

  // Walk the section table with explicit bounds checks; nothing is trusted
  // until the file CRC has been verified too. The count is untrusted, so the
  // reservation is capped at the most sections the file has room for (each
  // needs a full header, and the file CRC must still fit); a larger claim is
  // rejected by the walk as truncation.
  std::size_t pos = kEnvelopeHeader;
  std::size_t max_sections = (file.size() - kEnvelopeHeader - 4) / kSectionHeader;
  sections_.reserve(std::min<std::size_t>(count, max_sections));
  for (std::uint32_t i = 0; i < count; ++i) {
    if (file.size() - pos < kSectionHeader + 4) {  // +4: the file CRC must still fit
      throw CheckpointError(Code::kTruncated, "section header past end of file");
    }
    Section s;
    s.id = read_u32(file, pos);
    std::uint64_t len = read_u64(file, pos + 4);
    std::uint32_t crc = read_u32(file, pos + 12);
    pos += kSectionHeader;
    if (len > file.size() - pos - 4) {
      throw CheckpointError(Code::kTruncated, "section payload past end of file");
    }
    if (!sections_.empty() && sections_.back().id >= s.id) {
      throw CheckpointError(Code::kBadSection, "section ids not strictly increasing");
    }
    s.payload = file.subspan(pos, static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    if (crc32(s.payload) != crc) {
      throw CheckpointError(Code::kCrcMismatch,
                            "section " + std::to_string(s.id) + " crc mismatch");
    }
    sections_.push_back(s);
  }

  if (file.size() - pos < 4) throw CheckpointError(Code::kTruncated, "missing file crc");
  if (crc32(file.subspan(0, pos)) != read_u32(file, pos)) {
    throw CheckpointError(Code::kCrcMismatch, "file crc mismatch");
  }
  pos += 4;
  if (pos != file.size()) throw CheckpointError(Code::kTrailingBytes, "trailing bytes");
}

bool CheckpointReader::has_section(std::uint32_t id) const {
  for (const Section& s : sections_) {
    if (s.id == id) return true;
  }
  return false;
}

util::ByteReader CheckpointReader::section(std::uint32_t id) const {
  for (const Section& s : sections_) {
    if (s.id == id) return util::ByteReader(s.payload);
  }
  throw CheckpointError(CheckpointError::Code::kBadSection,
                        "missing section " + std::to_string(id));
}

util::Bytes read_checkpoint_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw CheckpointError(CheckpointError::Code::kIo, "cannot open " + path);
  }
  util::Bytes out;
  std::uint8_t buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.insert(out.end(), buf, buf + n);
  bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) throw CheckpointError(CheckpointError::Code::kIo, "read error on " + path);
  return out;
}

void write_checkpoint_file(const std::string& path, util::ByteSpan bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw CheckpointError(CheckpointError::Code::kIo, "cannot create " + path);
  }
  bool failed = std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size();
  failed |= std::fclose(f) != 0;
  if (failed) throw CheckpointError(CheckpointError::Code::kIo, "write error on " + path);
}

}  // namespace icbtc::persist
