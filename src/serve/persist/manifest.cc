#include "serve/persist/manifest.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/binary_io.h"
#include "common/checksum_io.h"
#include "common/format_magic.h"
#include "serve/persist/kill_point.h"

#ifdef __unix__
#include <fcntl.h>
#include <unistd.h>
#endif

namespace geqo::serve::persist {

namespace {

char Digit(uint64_t v, uint64_t div) { return '0' + (v / div) % 10; }

std::string SixDigits(uint64_t id) {
  std::string out;
  for (uint64_t div = 100000; div >= 1; div /= 10) out += Digit(id, div);
  return out;
}

Status SyncDirectory(const std::string& dir) {
#ifdef __unix__
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("cannot open directory for fsync " + dir + ": " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("cannot fsync directory " + dir + ": " +
                           std::strerror(errno));
  }
#endif
  return Status::OK();
}

}  // namespace

std::string ManifestFileName() { return "MANIFEST"; }

std::string BaseSegmentFileName(uint64_t id) {
  return "base-" + SixDigits(id) + ".seg";
}

std::string WalPartitionFileName(uint64_t id, uint64_t shard) {
  std::string out = "wal-" + SixDigits(id) + ".s";
  for (uint64_t div = 100; div >= 1; div /= 10) out += Digit(shard, div);
  return out + ".log";
}

Status WriteManifest(const std::string& dir, const ManifestState& state) {
  std::ostringstream payload;
  io::BinaryWriter writer(payload, "catalog store manifest");
  writer.U64(io::kManifestMagic);
  writer.U64(io::kManifestVersion);
  writer.U64(io::kManifestShardedKind);
  writer.U64(state.num_shards);
  writer.U64(state.base_id);
  writer.U64(state.base_entry_count);
  writer.U64(state.next_file_id);
  writer.U64(state.log_ids.size());
  for (const uint64_t id : state.log_ids) writer.U64(id);
  writer.U64(io::kManifestEndMagic);
  GEQO_RETURN_NOT_OK(writer.status());

  const std::string tmp_path = dir + "/" + ManifestFileName() + ".tmp";
  const std::string final_path = dir + "/" + ManifestFileName();
  {
    // stdio, not ofstream: the tmp file must be fsync'ed before the rename,
    // or the rename could reach disk ahead of the bytes it publishes.
    std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
    if (file == nullptr) {
      return Status::IoError("cannot create " + tmp_path + ": " +
                             std::strerror(errno));
    }
    const std::string bytes = payload.str();
    const uint64_t checksum = io::PayloadChecksum(bytes);
    bool ok = std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
    ok = ok && std::fwrite(&checksum, sizeof(checksum), 1, file) == 1;
    ok = ok && std::fflush(file) == 0;
#ifdef __unix__
    ok = ok && ::fsync(fileno(file)) == 0;
#endif
    const int close_rc = std::fclose(file);
    if (!ok || close_rc != 0) {
      return Status::IoError("cannot write " + tmp_path + ": " +
                             std::strerror(errno));
    }
  }
  KillPoint("manifest-tmp");
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Status::IoError("cannot publish manifest " + final_path + ": " +
                           std::strerror(errno));
  }
  GEQO_RETURN_NOT_OK(SyncDirectory(dir));
  KillPoint("manifest-renamed");
  return Status::OK();
}

bool DecodeManifest(std::string_view bytes, ManifestState* out,
                    io::DecodeErrors* errors) {
  io::ByteReader reader(io::CheckFooter(bytes, "manifest", errors));
  if (reader.U64() != io::kManifestMagic || !reader.ok()) {
    return io::Reject(errors, "manifest.magic", 0, "missing GEQOMANI magic");
  }
  const size_t version_offset = reader.offset();
  const uint64_t version = reader.U64();
  if (!reader.ok() || version != io::kManifestVersion) {
    return io::Reject(errors, "manifest.version", version_offset,
                      "unsupported manifest version " +
                          std::to_string(version));
  }
  const size_t kind_offset = reader.offset();
  const uint64_t kind = reader.U64();
  const size_t shards_offset = reader.offset();
  out->num_shards = reader.U64();
  const size_t base_offset = reader.offset();
  out->base_id = reader.U64();
  out->base_entry_count = reader.U64();
  const size_t allocator_offset = reader.offset();
  out->next_file_id = reader.U64();
  const size_t logs_offset = reader.offset();
  const uint64_t num_logs = reader.U64();
  if (!reader.ok()) {
    return io::Reject(errors, "manifest.truncated", 0,
                      "manifest header is cut off");
  }
  if (kind != io::kManifestShardedKind) {
    return io::Reject(errors, "manifest.kind", kind_offset,
                      "unsupported store kind " + std::to_string(kind) +
                          " (only sharded-catalog stores, kind " +
                          std::to_string(io::kManifestShardedKind) +
                          ", are readable)");
  }
  if (out->num_shards == 0 || out->num_shards > io::kMaxStoredShards) {
    return io::Reject(errors, "manifest.shard-count", shards_offset,
                      "implausible shard count " +
                          std::to_string(out->num_shards));
  }
  if (out->base_id == 0 && out->base_entry_count != 0) {
    io::Reject(errors, "manifest.base", base_offset,
               "entry count " + std::to_string(out->base_entry_count) +
                   " without a base segment");
  }
  if (out->base_id != 0 && out->base_id >= out->next_file_id) {
    io::Reject(errors, "manifest.base", allocator_offset,
               "base id " + std::to_string(out->base_id) +
                   " outruns the id allocator (next " +
                   std::to_string(out->next_file_id) + ")");
  }
  if (!reader.Fits(num_logs, sizeof(uint64_t))) {
    return io::Reject(errors, "manifest.truncated", logs_offset,
                      "log list of " + std::to_string(num_logs) +
                          " ids exceeds what the file can hold");
  }
  out->log_ids.clear();
  out->log_ids.reserve(num_logs);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < num_logs; ++i) {
    const size_t id_offset = reader.offset();
    const uint64_t id = reader.U64();
    if (id == 0 || id <= prev) {
      return io::Reject(errors, "manifest.log-ids", id_offset,
                        "log ids must be nonzero and strictly increasing (id " +
                            std::to_string(id) + " after " +
                            std::to_string(prev) + ")");
    }
    if (id >= out->next_file_id || id == out->base_id) {
      return io::Reject(errors, "manifest.log-ids", id_offset,
                        "log id " + std::to_string(id) +
                            " collides with the id allocator or the base "
                            "segment");
    }
    out->log_ids.push_back(id);
    prev = id;
  }
  const size_t end_offset = reader.offset();
  if (reader.U64() != io::kManifestEndMagic || !reader.ok()) {
    return io::Reject(errors, "manifest.end-magic", end_offset,
                      "manifest is missing its end marker");
  }
  reader.ExpectEnd(errors, "manifest.trailing", "the end marker");
  return true;
}

Result<ManifestState> ReadManifest(const std::string& dir) {
  const std::string path = dir + "/" + ManifestFileName();
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::IoError("cannot open manifest " + path + ": " +
                           std::strerror(errno));
  }
  const std::string bytes((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  ManifestState state;
  io::DecodeErrors errors;
  DecodeManifest(bytes, &state, &errors);
  GEQO_RETURN_NOT_OK(
      io::DecodeStatus(errors, "catalog store manifest " + path));
  return state;
}

}  // namespace geqo::serve::persist
