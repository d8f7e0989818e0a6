#include "serve/persist/wal.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/binary_io.h"
#include "common/format_magic.h"
#include "common/log_io.h"
#include "serve/persist/kill_point.h"
#include "verify/verifier.h"

#ifdef __unix__
#include <unistd.h>
#endif

namespace geqo::serve::persist {

namespace {

constexpr size_t kHeaderSize = 4 * sizeof(uint64_t);

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

Status SyncFile(std::FILE* file, const std::string& path) {
  if (std::fflush(file) != 0) return Errno("cannot flush", path);
#ifdef __unix__
  if (::fsync(fileno(file)) != 0) return Errno("cannot fsync", path);
#endif
  return Status::OK();
}

}  // namespace

std::string EncodeWalRecord(const WalRecord& record) {
  std::ostringstream payload;
  io::BinaryWriter writer(payload, "wal record");
  writer.U8(static_cast<uint8_t>(record.type));
  switch (record.type) {
    case WalRecordType::kAddEntry:
      writer.U64(record.gid);
      writer.U64(record.a);
      writer.U64(record.b);
      break;
    case WalRecordType::kVerdict:
      writer.U64(record.a);
      writer.U64(record.b);
      writer.U64(record.c);
      writer.U64(record.d);
      writer.U8(record.verdict);
      break;
    case WalRecordType::kUnion:
    case WalRecordType::kPending:
      writer.U64(record.a);
      writer.U64(record.b);
      break;
  }
  return payload.str();
}

Result<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path,
                                                     uint64_t file_id,
                                                     uint64_t shard) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return Errno("cannot create log partition", path);
  const uint64_t header[4] = {io::kWalMagic, io::kWalVersion, file_id, shard};
  if (std::fwrite(header, sizeof(header), 1, file) != 1 ||
      std::fflush(file) != 0) {
    const Status status = Errno("cannot write log header to", path);
    std::fclose(file);
    return status;
  }
  return std::unique_ptr<WalWriter>(new WalWriter(file, path));
}

WalWriter::~WalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status WalWriter::Append(const WalRecord& record, bool flush) {
  std::string framed;
  io::AppendFramedRecord(&framed, EncodeWalRecord(record));
  if (std::fwrite(framed.data(), 1, framed.size(), file_) != framed.size()) {
    return Errno("cannot append to log partition", path_);
  }
  if (flush && std::fflush(file_) != 0) {
    return Errno("cannot flush log partition", path_);
  }
  ++appended_;
  KillPoint("wal-append");
  return Status::OK();
}

Status WalWriter::Sync() { return SyncFile(file_, path_); }

bool DecodeWal(std::string_view bytes, WalReplay* out,
               io::DecodeErrors* errors) {
  if (bytes.size() < kHeaderSize) {
    // The creation crash window: the partition exists but its header never
    // completed, so it cannot hold records. The caller decides whether this
    // generation is allowed to be half-created.
    out->header_torn = true;
    out->torn = true;
    return true;
  }
  io::ByteReader header(bytes);
  if (header.U64() != io::kWalMagic) {
    return io::Reject(errors, "wal.magic", 0, "missing GEQOWALG magic");
  }
  const uint64_t version = header.U64();
  if (version != io::kWalVersion) {
    return io::Reject(errors, "wal.version", sizeof(uint64_t),
                      "unsupported log version " + std::to_string(version));
  }
  out->file_id = header.U64();
  out->shard = header.U64();
  if (out->file_id == 0) {
    io::Reject(errors, "wal.file-id", 2 * sizeof(uint64_t),
               "partition header names file id 0 (never issued)");
  }
  if (out->shard >= io::kMaxStoredShards) {
    return io::Reject(errors, "wal.shard", 3 * sizeof(uint64_t),
                      "implausible shard index " + std::to_string(out->shard));
  }
  const io::FramedScan scan = io::ScanFramedRecords(bytes, kHeaderSize);
  if (scan.mid_corruption) {
    return io::Reject(errors, "wal.mid-corruption", scan.clean_size,
                      "a record fails its checksum but valid records follow "
                      "— interior damage, not a torn tail (refusing to "
                      "truncate over durable records)");
  }
  out->torn = scan.torn;
  out->clean_size = scan.clean_size;
  out->records.clear();
  out->records.reserve(scan.records.size());
  size_t offset = kHeaderSize;
  bool saw_add = false;
  uint64_t prev_add_gid = 0;
  for (size_t i = 0; i < scan.records.size(); ++i) {
    const std::string at = "record " + std::to_string(i);
    io::ByteReader reader(scan.records[i]);
    WalRecord record;
    record.type = static_cast<WalRecordType>(reader.U8());
    switch (record.type) {
      case WalRecordType::kAddEntry:
        record.gid = reader.U64();
        record.a = reader.U64();
        record.b = reader.U64();
        break;
      case WalRecordType::kVerdict:
        record.a = reader.U64();
        record.b = reader.U64();
        record.c = reader.U64();
        record.d = reader.U64();
        record.verdict = reader.U8();
        break;
      case WalRecordType::kUnion:
      case WalRecordType::kPending:
        record.a = reader.U64();
        record.b = reader.U64();
        break;
      default:
        return io::Reject(errors, "wal.record-type", offset,
                          at + " has unknown type " +
                              std::to_string(static_cast<int>(record.type)));
    }
    if (!reader.ok() || !reader.AtEnd()) {
      return io::Reject(errors, "wal.record-size", offset,
                        at + " does not match its type's payload size");
    }
    if (record.type == WalRecordType::kAddEntry) {
      if (saw_add && record.gid <= prev_add_gid) {
        return io::Reject(errors, "wal.add-order", offset,
                          at + " adds gid " + std::to_string(record.gid) +
                              " at or below an earlier add in the same "
                              "partition (gid " +
                              std::to_string(prev_add_gid) + ")");
      }
      saw_add = true;
      prev_add_gid = record.gid;
    }
    if (record.type == WalRecordType::kVerdict) {
      if (record.a > record.b || (record.a == record.b && record.c > record.d)) {
        return io::Reject(errors, "wal.verdict-key", offset,
                          at + " carries a non-normalized memo key");
      }
      if (record.verdict >
          static_cast<uint8_t>(EquivalenceVerdict::kUnknown)) {
        return io::Reject(errors, "wal.verdict-range", offset,
                          at + " has verdict byte " +
                              std::to_string(record.verdict) +
                              " outside the tri-state range");
      }
    }
    if (record.type == WalRecordType::kUnion && record.a == record.b) {
      return io::Reject(errors, "wal.union", offset,
                        at + " unions gid " + std::to_string(record.a) +
                            " with itself");
    }
    out->records.push_back(record);
    offset += io::kFrameOverhead + scan.records[i].size();
  }
  return true;
}

Result<WalReplay> ReadWalFile(const std::string& path, uint64_t expect_file_id,
                              uint64_t expect_shard) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Errno("cannot open log partition", path);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const std::string context = "log partition " + path;
  WalReplay replay;
  io::DecodeErrors errors;
  DecodeWal(bytes, &replay, &errors);
  GEQO_RETURN_NOT_OK(io::DecodeStatus(errors, context));
  if (!replay.header_torn &&
      (replay.file_id != expect_file_id || replay.shard != expect_shard)) {
    return Status::InvalidArgument(
        context + ": header names file " + std::to_string(replay.file_id) +
        " shard " + std::to_string(replay.shard) + ", manifest expects file " +
        std::to_string(expect_file_id) + " shard " +
        std::to_string(expect_shard) + " (misplaced or corrupt log)");
  }
  return replay;
}

}  // namespace geqo::serve::persist
