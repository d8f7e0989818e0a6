#include "analysis/artifact_lint.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "analysis/shape_checker.h"
#include "ann/hnsw.h"
#include "common/format_magic.h"
#include "core/geqo_system.h"
#include "nn/serialize.h"
#include "serve/persist/manifest.h"
#include "serve/persist/wal.h"
#include "serve/sharded_catalog.h"

namespace geqo::analysis {
namespace {

std::string OffsetContext(size_t offset) {
  return "offset " + std::to_string(offset);
}

void AppendDecodeErrors(const io::DecodeErrors& errors, Diagnostics* out) {
  for (const io::DecodeError& error : errors) {
    Report(out, error.code, error.message, OffsetContext(error.offset));
  }
}

/// Lint-only policy: a decoded state dict that announces the EMF trunk gets
/// the layer-graph proof; GEQOMODL itself is a generic named-tensor
/// container, so other state dicts only have to decode.
void CheckEmfState(const nn::StateImage& model, size_t expected_input_dim,
                   Diagnostics* out) {
  std::vector<NamedShape> shapes;
  bool looks_like_emf = false;
  for (const nn::StateImageEntry& entry : model.entries) {
    shapes.push_back(NamedShape{entry.name, entry.rows, entry.cols});
    looks_like_emf = looks_like_emf || entry.name == "conv1.self";
  }
  if (!looks_like_emf) return;
  for (Diagnostic diagnostic :
       CheckEmfStateShapes(shapes, expected_input_dim)) {
    out->push_back(std::move(diagnostic));
  }
}

/// Lint-only policy: the loader accepts a torn partition (recovery truncates
/// it), but a cleanly closed store syncs its logs, so a torn file is a
/// finding.
void CheckWalTorn(const serve::persist::WalReplay& wal, size_t file_size,
                  Diagnostics* out) {
  if (wal.header_torn) {
    Report(out, "wal.truncated",
           "file is shorter than the partition header (creation crash "
           "window)",
           OffsetContext(0));
  } else if (wal.torn) {
    Report(out, "wal.torn-tail",
           std::to_string(file_size - wal.clean_size) +
               " bytes past the last valid frame do not form a record "
               "(interrupted append)",
           OffsetContext(wal.clean_size));
  }
}

}  // namespace

std::string_view ArtifactKindToString(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kSystemSnapshot:
      return "system snapshot";
    case ArtifactKind::kServingCatalog:
      return "serving catalog";
    case ArtifactKind::kModelState:
      return "model state";
    case ArtifactKind::kHnswIndex:
      return "hnsw index";
    case ArtifactKind::kShardedCatalog:
      return "sharded catalog";
    case ArtifactKind::kStoreManifest:
      return "catalog store manifest";
    case ArtifactKind::kWalLog:
      return "catalog delta log";
    case ArtifactKind::kUnknown:
      break;
  }
  return "unknown";
}

ArtifactKind SniffArtifact(std::string_view bytes) {
  if (bytes.size() < sizeof(uint64_t)) return ArtifactKind::kUnknown;
  uint64_t magic = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  switch (magic) {
    case io::kSystemSnapshotMagic:
      return ArtifactKind::kSystemSnapshot;
    case io::kCatalogMagic:
      return ArtifactKind::kServingCatalog;
    case io::kModelStateMagic:
      return ArtifactKind::kModelState;
    case io::kHnswMagic:
      return ArtifactKind::kHnswIndex;
    case io::kShardedCatalogMagic:
      return ArtifactKind::kShardedCatalog;
    case io::kManifestMagic:
      return ArtifactKind::kStoreManifest;
    case io::kWalMagic:
      return ArtifactKind::kWalLog;
    default:
      return ArtifactKind::kUnknown;
  }
}

Diagnostics LintArtifactBytes(std::string_view bytes) {
  io::DecodeErrors errors;
  Diagnostics policy;
  switch (SniffArtifact(bytes)) {
    case ArtifactKind::kSystemSnapshot: {
      SystemSnapshotImage image;
      if (DecodeSystemSnapshot(bytes, &image, &errors)) {
        CheckEmfState(image.model, image.input_dim, &policy);
      }
      break;
    }
    case ArtifactKind::kServingCatalog: {
      serve::CatalogSegmentImage image;
      serve::DecodeCatalogSegment(bytes, &image, &errors);
      break;
    }
    case ArtifactKind::kModelState: {
      io::ByteReader reader(bytes);
      nn::StateImage image;
      if (nn::DecodeState(&reader, &image, &errors)) {
        reader.ExpectEnd(&errors, "model.trailing", "the last state entry");
        CheckEmfState(image, /*expected_input_dim=*/0, &policy);
      }
      break;
    }
    case ArtifactKind::kHnswIndex: {
      io::ByteReader reader(bytes);
      ann::HnswImage image;
      if (ann::DecodeHnsw(&reader, &image, &errors)) {
        reader.ExpectEnd(&errors, "hnsw.trailing", "the end marker");
      }
      break;
    }
    case ArtifactKind::kShardedCatalog: {
      serve::ShardedSnapshotImage image;
      serve::DecodeShardedSnapshot(bytes, &image, &errors);
      break;
    }
    case ArtifactKind::kStoreManifest: {
      serve::persist::ManifestState manifest;
      serve::persist::DecodeManifest(bytes, &manifest, &errors);
      break;
    }
    case ArtifactKind::kWalLog: {
      serve::persist::WalReplay wal;
      serve::persist::DecodeWal(bytes, &wal, &errors);
      CheckWalTorn(wal, bytes.size(), &policy);
      break;
    }
    case ArtifactKind::kUnknown:
      io::Reject(&errors, "artifact.unknown-magic", 0,
                 "file does not start with any known GEqO artifact magic");
      break;
  }
  Diagnostics out;
  AppendDecodeErrors(errors, &out);
  for (Diagnostic& diagnostic : policy) out.push_back(std::move(diagnostic));
  return out;
}

Result<Diagnostics> LintArtifactFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open for reading: " + path);
  std::ostringstream contents;
  contents << file.rdbuf();
  return LintArtifactBytes(contents.str());
}

}  // namespace geqo::analysis
