#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>

#include "common/format_magic.h"

namespace geqo::nn {
namespace {

constexpr uint64_t kMagic = io::kModelStateMagic;  // "GEQOMODL"
/// Sanity bounds on the entry table: a real state dict has a few dozen
/// short names.
constexpr uint64_t kMaxStateEntries = 1 << 12;
constexpr uint64_t kMaxNameLength = 1 << 12;

}  // namespace

Status SaveState(const std::vector<StateEntry>& state, std::ostream& os) {
  io::BinaryWriter writer(os, "model state");
  writer.U64(kMagic);
  writer.U64(state.size());
  for (const auto& [name, tensor] : state) {
    writer.String(name);
    writer.U64(tensor->rows());
    writer.U64(tensor->cols());
    writer.Bytes(tensor->data(), tensor->size() * sizeof(float));
  }
  return writer.status();
}

Status SaveState(const std::vector<StateEntry>& state,
                 const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::IoError("cannot open for writing: " + path);
  GEQO_RETURN_NOT_OK(SaveState(state, file));
  if (!file.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

bool DecodeState(io::ByteReader* reader, StateImage* out,
                 io::DecodeErrors* errors) {
  const size_t magic_offset = reader->offset();
  if (reader->U64() != kMagic || !reader->ok()) {
    return io::Reject(
        errors, "model.magic", magic_offset,
        "model state section does not start with the GEQOMODL magic");
  }
  const size_t count_offset = reader->offset();
  const uint64_t count = reader->U64();
  if (!reader->ok() || count > kMaxStateEntries) {
    return io::Reject(errors, "model.count", count_offset,
                      "implausible state entry count " +
                          std::to_string(count));
  }
  out->entries.clear();
  for (uint64_t i = 0; i < count; ++i) {
    StateImageEntry entry;
    const size_t entry_offset = reader->offset();
    entry.name = std::string(reader->String(kMaxNameLength));
    if (!reader->ok()) {
      return io::Reject(errors, "model.name", entry_offset,
                        "state entry " + std::to_string(i) +
                            " has a truncated or oversized name");
    }
    const size_t shape_offset = reader->offset();
    entry.rows = reader->U64();
    entry.cols = reader->U64();
    if (!reader->ok() || entry.rows > io::kMaxStoredDim ||
        entry.cols > io::kMaxStoredDim) {
      return io::Reject(errors, "model.shape", shape_offset,
                        "state entry '" + entry.name +
                            "' declares an implausible shape " +
                            std::to_string(entry.rows) + "x" +
                            std::to_string(entry.cols));
    }
    entry.data = reader->Bytes(entry.rows * entry.cols * sizeof(float));
    if (!reader->ok()) {
      return io::Reject(errors, "model.truncated", shape_offset,
                        "state entry '" + entry.name +
                            "' is cut off before its " +
                            std::to_string(entry.rows * entry.cols) +
                            " float payload ends");
    }
    out->entries.push_back(std::move(entry));
  }
  return true;
}

Status BindState(const std::vector<StateEntry>& state,
                 const StateImage& image) {
  if (image.entries.size() != state.size()) {
    return Status::InvalidArgument(
        "model state: entry count mismatch (expected " +
        std::to_string(state.size()) + ", found " +
        std::to_string(image.entries.size()) + ")");
  }
  for (size_t i = 0; i < state.size(); ++i) {
    const auto& [name, tensor] = state[i];
    const StateImageEntry& saved = image.entries[i];
    if (saved.name != name) {
      return Status::InvalidArgument("model state: name mismatch: expected " +
                                     name + ", found " + saved.name);
    }
    if (saved.rows != tensor->rows() || saved.cols != tensor->cols()) {
      return Status::InvalidArgument(
          "model state: shape mismatch for " + name + ": expected " +
          std::to_string(tensor->rows()) + "x" +
          std::to_string(tensor->cols()) + ", found " +
          std::to_string(saved.rows) + "x" + std::to_string(saved.cols));
    }
  }
  // Every entry checked before any is written: a refused image leaves the
  // tensors untouched.
  for (size_t i = 0; i < state.size(); ++i) {
    std::memcpy(state[i].second->data(), image.entries[i].data.data(),
                image.entries[i].data.size());
  }
  return Status::OK();
}

Status LoadState(const std::vector<StateEntry>& state,
                 const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open for reading: " + path);
  const std::string bytes((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  io::ByteReader reader(bytes);
  StateImage image;
  io::DecodeErrors errors;
  if (DecodeState(&reader, &image, &errors)) {
    reader.ExpectEnd(&errors, "model.trailing", "the last state entry");
  }
  GEQO_RETURN_NOT_OK(io::DecodeStatus(errors, "model state " + path));
  return BindState(state, image);
}

}  // namespace geqo::nn
