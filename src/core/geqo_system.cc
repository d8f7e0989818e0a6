#include "core/geqo_system.h"

#include <cmath>
#include <fstream>
#include <iterator>
#include <sstream>

#include "analysis/model_check.h"
#include "analysis/plan_validator.h"
#include "common/binary_io.h"
#include "common/checksum_io.h"
#include "common/format_magic.h"
#include "filters/emf_filter.h"
#include "filters/vmf.h"
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

bool DecodeSystemSnapshot(std::string_view bytes, SystemSnapshotImage* out,
                          io::DecodeErrors* errors) {
  io::ByteReader reader(io::CheckFooter(bytes, "snapshot", errors));
  if (reader.U64() != io::kSystemSnapshotMagic || !reader.ok()) {
    return io::Reject(errors, "snapshot.magic", 0, "missing GEQOSNAP magic");
  }
  const size_t version_offset = reader.offset();
  const uint64_t version = reader.U64();
  if (!reader.ok() || version != io::kSystemSnapshotVersion) {
    return io::Reject(errors, "snapshot.version", version_offset,
                      "unsupported snapshot version " +
                          std::to_string(version));
  }
  out->schema_fingerprint = reader.U64();
  const size_t layout_offset = reader.offset();
  out->agnostic_tables = reader.U64();
  out->agnostic_columns = reader.U64();
  const size_t calibration_offset = reader.offset();
  out->vmf_radius = reader.F32();
  out->emf_threshold = reader.F32();
  if (!reader.ok()) {
    return io::Reject(errors, "snapshot.truncated", 0,
                      "snapshot header is cut off");
  }
  const uint64_t tables = out->agnostic_tables;
  const uint64_t columns = out->agnostic_columns;
  if (tables == 0 || tables > kMaxAgnosticSymbols || columns == 0 ||
      columns > kMaxAgnosticSymbols) {
    io::Reject(errors, "snapshot.layout", layout_offset,
               "implausible agnostic layout " + std::to_string(tables) + "x" +
                   std::to_string(columns));
  } else {
    out->input_dim =
        EncodingLayout::Agnostic(tables, columns).node_vector_size();
  }
  if (!std::isfinite(out->vmf_radius) || out->vmf_radius < 0.0f) {
    io::Reject(errors, "snapshot.radius", calibration_offset,
               "calibrated VMF radius is not a finite non-negative value");
  }
  if (!std::isfinite(out->emf_threshold) || out->emf_threshold < 0.0f ||
      out->emf_threshold > 1.0f) {
    io::Reject(errors, "snapshot.threshold", calibration_offset,
               "calibrated EMF threshold is outside [0, 1]");
  }
  if (!nn::DecodeState(&reader, &out->model, errors)) return false;
  reader.ExpectEnd(errors, "snapshot.trailing",
                   "the model state section");
  return true;
}

Status GeqoSystem::LoadSnapshot(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open for reading: " + path);
  const std::string bytes((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  SystemSnapshotImage image;
  io::DecodeErrors errors;
  DecodeSystemSnapshot(bytes, &image, &errors);
  GEQO_RETURN_NOT_OK(io::DecodeStatus(errors, "system snapshot " + path));
  const uint64_t expected = CatalogFingerprint(*catalog_);
  if (image.schema_fingerprint != expected) {
    return Status::InvalidArgument(
        "system snapshot: database schema fingerprint mismatch (snapshot " +
        std::to_string(image.schema_fingerprint) + ", current " +
        std::to_string(expected) +
        ") — the snapshot was trained against a different catalog: " + path);
  }
  if (image.agnostic_tables != options_.agnostic_tables ||
      image.agnostic_columns != options_.agnostic_columns_per_table) {
    return Status::InvalidArgument(
        "system snapshot: agnostic layout mismatch (snapshot " +
        std::to_string(image.agnostic_tables) + "x" +
        std::to_string(image.agnostic_columns) + ", system " +
        std::to_string(options_.agnostic_tables) + "x" +
        std::to_string(options_.agnostic_columns_per_table) + "): " + path);
  }
  GEQO_RETURN_NOT_OK(nn::BindState(model_->State(), image.model));
  // The loaded weights must still assemble into a shape-sound network.
  GEQO_RETURN_NOT_OK(analysis::CheckModelShapes(*model_));
  GeqoOptions calibrated = pipeline_->options();
  calibrated.vmf.radius = image.vmf_radius;
  calibrated.emf.threshold = image.emf_threshold;
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
