#include "core/geqo_system.h"

#include <fstream>
#include <sstream>

#include "analysis/model_check.h"
#include "analysis/plan_validator.h"
#include "common/binary_io.h"
#include "common/checksum_io.h"
#include "common/format_magic.h"
#include "filters/emf_filter.h"
#include "filters/vmf.h"
#include "nn/serialize.h"
#include "plan/schema.h"

namespace geqo {

GeqoSystem::GeqoSystem(const Catalog* catalog, GeqoSystemOptions options)
    : catalog_(catalog),
      options_(options),
      instance_layout_(EncodingLayout::FromCatalog(*catalog)),
      agnostic_layout_(EncodingLayout::Agnostic(
          options.agnostic_tables, options.agnostic_columns_per_table)) {
  options_.model.input_dim = agnostic_layout_.node_vector_size();
  model_ = std::make_unique<ml::EmfModel>(options_.model);
  trainer_ = std::make_unique<ml::EmfTrainer>(model_.get(), options_.training);
  pipeline_ = std::make_unique<GeqoPipeline>(catalog_, model_.get(),
                                             &instance_layout_,
                                             &agnostic_layout_,
                                             options_.pipeline);
}

Result<ml::TrainReport> GeqoSystem::TrainOnSyntheticWorkload(uint64_t seed) {
  Rng rng(seed);
  GEQO_ASSIGN_OR_RETURN(
      std::vector<LabeledPair> pairs,
      BuildLabeledPairs(*catalog_, options_.synthetic_data, &rng));
  return TrainOnPairs(pairs);
}

Result<ml::TrainReport> GeqoSystem::TrainOnPairs(
    const std::vector<LabeledPair>& pairs) {
  // Static shape proof before any MatMul runs: a mis-assembled model fails
  // here with named diagnostics rather than deep inside the first batch.
  GEQO_RETURN_NOT_OK(analysis::CheckModelShapes(*model_));
  GEQO_ASSIGN_OR_RETURN(
      ml::PairDataset dataset,
      EncodeLabeledPairs(pairs, *catalog_, instance_layout_, agnostic_layout_,
                         options_.value_range));
  if (dataset.empty()) {
    return Status::InvalidArgument("no trainable pairs after encoding");
  }
  GEQO_ASSIGN_OR_RETURN(ml::TrainReport report, Result<ml::TrainReport>(trainer_->Train(dataset)));
  // Calibrate the VMF threshold on the freshly trained embedding space so
  // that ~98% of known-equivalent pairs fall within radius tau (Table 1).
  GeqoOptions calibrated = pipeline_->options();
  const Result<float> radius = CalibrateVmfRadius(model_.get(), dataset);
  if (radius.ok()) calibrated.vmf.radius = *radius;
  // Likewise pick the EMF operating point that keeps recall near-perfect
  // (false negatives are the costly error; false positives only waste
  // verifier time, §7.1.1).
  const Result<float> threshold = CalibrateEmfThreshold(model_.get(), dataset);
  if (threshold.ok()) calibrated.emf.threshold = *threshold;
  GEQO_RETURN_NOT_OK(pipeline_->UpdateOptions(calibrated));
  options_.pipeline = calibrated;
  return report;
}

Result<GeqoResult> GeqoSystem::DetectEquivalences(
    const std::vector<PlanPtr>& workload) {
  return pipeline_->DetectEquivalences(workload, options_.value_range);
}

Result<EquivalenceVerdict> GeqoSystem::CheckPair(const PlanPtr& a,
                                                 const PlanPtr& b) {
  return pipeline_->CheckPair(a, b, options_.value_range);
}

Result<std::vector<SsflIterationReport>> GeqoSystem::RunSsfl(
    const std::vector<PlanPtr>& workload, SsflOptions options) {
  Ssfl ssfl(catalog_, model_.get(), trainer_.get(), &instance_layout_,
            &agnostic_layout_, options);
  return ssfl.Run(workload, options_.value_range);
}

Status GeqoSystem::SaveSnapshot(const std::string& path) {
  GEQO_RETURN_NOT_OK(analysis::CheckModelShapes(*model_));
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::IoError("cannot open for writing: " + path);
  // The payload is buffered so the v2 footer can checksum it whole: any
  // later bit flip or truncation fails loudly at load time instead of
  // surviving as silently corrupted weights.
  std::ostringstream payload;
  io::BinaryWriter writer(payload, "system snapshot");
  writer.U64(io::kSystemSnapshotMagic);
  writer.U64(io::kSystemSnapshotVersion);
  writer.U64(CatalogFingerprint(*catalog_));
  writer.U64(options_.agnostic_tables);
  writer.U64(options_.agnostic_columns_per_table);
  // The calibrated operating point (TrainOnPairs) travels with the weights,
  // so a restored system needs no recalibration data.
  writer.F32(options_.pipeline.vmf.radius);
  writer.F32(options_.pipeline.emf.threshold);
  GEQO_RETURN_NOT_OK(writer.status());
  GEQO_RETURN_NOT_OK(nn::SaveState(model_->State(), payload));
  GEQO_RETURN_NOT_OK(
      io::WriteChecksummed(file, payload.str(), "system snapshot"));
  if (!file.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Status GeqoSystem::LoadSnapshot(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open for reading: " + path);
  GEQO_ASSIGN_OR_RETURN(
      const std::string payload,
      io::ReadChecksummed(file, "system snapshot " + path));
  std::istringstream stream(payload);
  io::BinaryReader reader(stream, "system snapshot");
  const uint64_t magic = reader.U64();
  GEQO_RETURN_NOT_OK(reader.status());
  if (magic != io::kSystemSnapshotMagic) {
    return Status::InvalidArgument(
        "system snapshot: bad magic (not a GEqO snapshot): " + path);
  }
  const uint64_t version = reader.U64();
  GEQO_RETURN_NOT_OK(reader.status());
  if (version != io::kSystemSnapshotVersion) {
    return Status::InvalidArgument(
        "system snapshot: unsupported version " + std::to_string(version) +
        " (expected " + std::to_string(io::kSystemSnapshotVersion) +
        "): " + path);
  }
  const uint64_t fingerprint = reader.U64();
  const uint64_t tables = reader.U64();
  const uint64_t columns = reader.U64();
  const float radius = reader.F32();
  const float threshold = reader.F32();
  GEQO_RETURN_NOT_OK(reader.status());
  if (tables == 0 || tables > kMaxAgnosticSymbols || columns == 0 ||
      columns > kMaxAgnosticSymbols) {
    return Status::InvalidArgument(
        "system snapshot: implausible agnostic layout " +
        std::to_string(tables) + "x" + std::to_string(columns) + ": " + path);
  }
  const uint64_t expected = CatalogFingerprint(*catalog_);
  if (fingerprint != expected) {
    return Status::InvalidArgument(
        "system snapshot: database schema fingerprint mismatch (snapshot " +
        std::to_string(fingerprint) + ", current " + std::to_string(expected) +
        ") — the snapshot was trained against a different catalog: " + path);
  }
  if (tables != options_.agnostic_tables ||
      columns != options_.agnostic_columns_per_table) {
    return Status::InvalidArgument(
        "system snapshot: agnostic layout mismatch (snapshot " +
        std::to_string(tables) + "x" + std::to_string(columns) + ", system " +
        std::to_string(options_.agnostic_tables) + "x" +
        std::to_string(options_.agnostic_columns_per_table) + "): " + path);
  }
  GEQO_RETURN_NOT_OK(nn::LoadState(model_->State(), stream));
  if (!reader.AtEof()) {
    return Status::InvalidArgument(
        "system snapshot: trailing bytes after the model state: " + path);
  }
  // The loaded weights must still assemble into a shape-sound network.
  GEQO_RETURN_NOT_OK(analysis::CheckModelShapes(*model_));
  GeqoOptions calibrated = pipeline_->options();
  calibrated.vmf.radius = radius;
  calibrated.emf.threshold = threshold;
  GEQO_RETURN_NOT_OK(pipeline_->UpdateOptions(calibrated));
  options_.pipeline = calibrated;
  return Status::OK();
}

serve::CatalogComponents GeqoSystem::ServeComponents() {
  serve::CatalogComponents components;
  components.db_catalog = catalog_;
  components.model = model_.get();
  components.instance_layout = &instance_layout_;
  components.agnostic_layout = &agnostic_layout_;
  components.value_range = options_.value_range;
  return components;
}

std::unique_ptr<serve::ShardedCatalog> GeqoSystem::OpenShardedCatalog(
    serve::ShardedCatalogOptions options) {
  return std::make_unique<serve::ShardedCatalog>(ServeComponents(), options);
}

std::unique_ptr<serve::ShardedCatalog> GeqoSystem::OpenShardedCatalog() {
  serve::ShardedCatalogOptions options;
  options.catalog.pipeline = options_.pipeline;
  return OpenShardedCatalog(options);
}

Result<std::unique_ptr<serve::ShardedCatalog>> GeqoSystem::ImportShardedSnapshot(
    std::istream& is, const std::vector<PlanPtr>& plans,
    serve::ShardedCatalogOptions options) {
  options.catalog.pipeline = options_.pipeline;
  return serve::ShardedCatalog::ImportSnapshot(is, ServeComponents(), plans,
                                               options);
}

Result<std::unique_ptr<serve::CatalogStore>> GeqoSystem::OpenShardedCatalogStore(
    const std::string& dir, const std::vector<PlanPtr>& plans,
    serve::ShardedCatalogOptions options, serve::DurabilityOptions durability) {
  options.catalog.pipeline = options_.pipeline;
  return serve::CatalogStore::Open(dir, ServeComponents(), plans, options,
                                   durability);
}

}  // namespace geqo
