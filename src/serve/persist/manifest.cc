#include "serve/persist/manifest.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
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

/// Same sanity bound as the sharded catalog's option validation.
constexpr uint64_t kMaxShards = 4096;

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

Result<ManifestState> ReadManifest(const std::string& dir) {
  const std::string path = dir + "/" + ManifestFileName();
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::IoError("cannot open manifest " + path + ": " +
                           std::strerror(errno));
  }
  const std::string context = "catalog store manifest " + path;
  GEQO_ASSIGN_OR_RETURN(const std::string payload,
                        io::ReadChecksummed(file, context));
  std::istringstream stream(payload);
  io::BinaryReader reader(stream, context);
  const uint64_t magic = reader.U64();
  GEQO_RETURN_NOT_OK(reader.status());
  if (magic != io::kManifestMagic) {
    return Status::InvalidArgument(context +
                                   ": bad magic (not a store manifest)");
  }
  const uint64_t version = reader.U64();
  GEQO_RETURN_NOT_OK(reader.status());
  if (version != io::kManifestVersion) {
    return Status::InvalidArgument(
        context + ": unsupported version " + std::to_string(version) +
        " (expected " + std::to_string(io::kManifestVersion) + ")");
  }
  ManifestState state;
  const uint64_t kind = reader.U64();
  state.num_shards = reader.U64();
  state.base_id = reader.U64();
  state.base_entry_count = reader.U64();
  state.next_file_id = reader.U64();
  const uint64_t num_logs = reader.U64();
  GEQO_RETURN_NOT_OK(reader.status());
  if (kind != io::kManifestShardedKind) {
    return Status::InvalidArgument(
        context + ": unsupported store kind " + std::to_string(kind) +
        " (only sharded-catalog stores, kind " +
        std::to_string(io::kManifestShardedKind) + ", are readable)");
  }
  if (state.num_shards == 0 || state.num_shards > kMaxShards) {
    return Status::InvalidArgument(
        context + ": implausible shard count " +
        std::to_string(state.num_shards) + " (corrupt manifest)");
  }
  if (num_logs > payload.size()) {
    return Status::InvalidArgument(
        context + ": implausible log count (corrupt manifest)");
  }
  state.log_ids.resize(num_logs);
  uint64_t prev = 0;
  for (uint64_t& id : state.log_ids) {
    id = reader.U64();
    if (reader.ok() && (id == 0 || id <= prev)) {
      reader.Fail("log ids must be nonzero and strictly increasing");
    }
    prev = id;
  }
  GEQO_RETURN_NOT_OK(reader.status());
  if (reader.U64() != io::kManifestEndMagic) reader.Fail("missing end marker");
  GEQO_RETURN_NOT_OK(reader.status());
  if (!reader.AtEof()) {
    return Status::InvalidArgument(
        context + ": trailing bytes after end marker (corrupt manifest)");
  }
  for (const uint64_t id : state.log_ids) {
    if (id >= state.next_file_id || id == state.base_id) {
      return Status::InvalidArgument(
          context + ": log id " + std::to_string(id) +
          " collides with the id allocator or the base segment (corrupt "
          "manifest)");
    }
  }
  if (state.base_id >= state.next_file_id && state.base_id != 0) {
    return Status::InvalidArgument(
        context + ": base id outruns the id allocator (corrupt manifest)");
  }
  if (state.base_id == 0 && state.base_entry_count != 0) {
    return Status::InvalidArgument(
        context + ": entry count without a base segment (corrupt manifest)");
  }
  return state;
}

}  // namespace geqo::serve::persist
