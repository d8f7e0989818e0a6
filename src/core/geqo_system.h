#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/binary_io.h"
#include "ml/trainer.h"
#include "nn/serialize.h"
#include "pipeline/baselines.h"
#include "pipeline/geqo.h"
#include "pipeline/ssfl.h"
#include "serve/persist/catalog_store.h"
#include "serve/sharded_catalog.h"
#include "workload/labeled_data.h"

/// \file geqo_system.h
/// High-level facade over the GEqO library: one object that owns the
/// catalog-bound encoding layouts, the EMF model and its trainer, and the
/// detection pipeline. This is the API the examples and most downstream
/// users interact with; the underlying modules remain available for
/// fine-grained control.
///
/// Typical usage:
/// \code
///   geqo::GeqoSystem system(catalog);
///   system.TrainOnSyntheticWorkload(/*seed=*/42);
///   auto result = system.DetectEquivalences(subexpressions);
/// \endcode

namespace geqo {

/// \brief A decoded GEQOSNAP system snapshot (layout:
/// GeqoSystem::SaveSnapshot).
struct SystemSnapshotImage {
  uint64_t schema_fingerprint = 0;  ///< CatalogFingerprint of the db schema
  uint64_t agnostic_tables = 0;
  uint64_t agnostic_columns = 0;
  /// Node vector size the agnostic layout implies (the EMF input dim); 0
  /// when the layout is implausible.
  uint64_t input_dim = 0;
  float vmf_radius = 0.0f;
  float emf_threshold = 0.0f;
  nn::StateImage model;
};

/// \brief Decodes GEQOSNAP \p bytes, checksum footer included — the one
/// decoder of the format, shared by GeqoSystem::LoadSnapshot and geqo_lint.
/// Proves the agnostic layout is buildable, the calibration values are in
/// range (radius finite and non-negative, threshold in [0, 1]) and the
/// model section decodes with nothing after it. Refusals carry snapshot.*
/// and model.* codes.
bool DecodeSystemSnapshot(std::string_view bytes, SystemSnapshotImage* out,
                          io::DecodeErrors* errors);

/// \brief Configuration for a GeqoSystem.
struct GeqoSystemOptions {
  /// Symbol capacity of the db-agnostic layout (§4.2): t01..tNN tables,
  /// c01..cMM columns per table.
  size_t agnostic_tables = 6;
  size_t agnostic_columns_per_table = 8;
  ml::EmfModelOptions model;      ///< input_dim is filled automatically
  ml::TrainOptions training;
  LabeledDataOptions synthetic_data;
  GeqoOptions pipeline;
  ValueRange value_range{0.0, 100.0};
};

/// \brief An assembled GEqO deployment bound to one catalog.
class GeqoSystem {
 public:
  explicit GeqoSystem(const Catalog* catalog,
                      GeqoSystemOptions options = GeqoSystemOptions());

  /// Trains the EMF on synthetic AMOEBA/WeTune-style labeled data generated
  /// over this catalog (§5). Returns the training report.
  Result<ml::TrainReport> TrainOnSyntheticWorkload(uint64_t seed);

  /// Trains on a caller-provided labeled pair set (e.g. pairs labeled by
  /// the verifier on a production workload).
  Result<ml::TrainReport> TrainOnPairs(const std::vector<LabeledPair>& pairs);

  /// GEqO_SET over a workload of subexpressions.
  Result<GeqoResult> DetectEquivalences(const std::vector<PlanPtr>& workload);

  /// GEqO_PAIR for two subexpressions. kEquivalent means proved (or, with
  /// run_verifier disabled, survived the filter cascade), kNotEquivalent
  /// means filter-rejected or refuted, kUnknown means the proof budget ran
  /// out before a verdict.
  Result<EquivalenceVerdict> CheckPair(const PlanPtr& a, const PlanPtr& b);

  /// Runs the semi-supervised feedback loop on \p workload (§6).
  Result<std::vector<SsflIterationReport>> RunSsfl(
      const std::vector<PlanPtr>& workload, SsflOptions options);

  /// Saves / restores the trained deployment as a versioned snapshot:
  /// magic + version, the database-catalog fingerprint, the agnostic layout
  /// shape, the calibrated VMF radius and EMF threshold, and the model
  /// weights. LoadSnapshot fails loudly when the snapshot was produced for
  /// a different database schema, a different layout shape, or by a
  /// different format version — and applies the saved calibration, so a
  /// loaded system probes exactly like the one that saved it.
  Status SaveSnapshot(const std::string& path);
  Status LoadSnapshot(const std::string& path);

  /// Opens an empty online serving catalog (§7.7): concurrent Probe/Add
  /// with an async verification plane (see serve::ShardedCatalog), wired to
  /// this system's model and layouts. The no-argument overload uses the
  /// system's calibrated pipeline options with the default shard and
  /// verifier-thread counts. ShardedCatalogOptions::Synchronous(), drained
  /// after each ProbeAdd, gives the synchronous contract. The catalog
  /// borrows the system's components: the system must outlive it.
  std::unique_ptr<serve::ShardedCatalog> OpenShardedCatalog(
      serve::ShardedCatalogOptions options);
  std::unique_ptr<serve::ShardedCatalog> OpenShardedCatalog();

  /// Restores a one-shot sharded catalog export (GEQOSHRD stream) against
  /// this system; \p plans are all entries in global Add order. \p options
  /// supplies the runtime knobs (verifier threads, queue bound) — the
  /// shard count comes from the snapshot. For durable serving state use
  /// OpenShardedCatalogStore.
  Result<std::unique_ptr<serve::ShardedCatalog>> ImportShardedSnapshot(
      std::istream& is, const std::vector<PlanPtr>& plans,
      serve::ShardedCatalogOptions options = serve::ShardedCatalogOptions());

  /// Opens (creating or recovering) a durable catalog store at \p dir
  /// (see serve::CatalogStore). \p options.catalog.pipeline is overridden
  /// with the system's calibrated pipeline options. Same borrowing contract
  /// as OpenShardedCatalog: the system must outlive the store.
  Result<std::unique_ptr<serve::CatalogStore>> OpenShardedCatalogStore(
      const std::string& dir, const std::vector<PlanPtr>& plans,
      serve::ShardedCatalogOptions options = serve::ShardedCatalogOptions(),
      serve::DurabilityOptions durability = serve::DurabilityOptions());

  /// The component wiring a serve::CatalogStore needs (borrowed from this
  /// system; the system must outlive any store built from it).
  serve::CatalogComponents ServeComponents();

  // Component access for advanced use and benchmarking.
  const Catalog& catalog() const { return *catalog_; }
  const EncodingLayout& instance_layout() const { return instance_layout_; }
  const EncodingLayout& agnostic_layout() const { return agnostic_layout_; }
  ml::EmfModel& model() { return *model_; }
  ml::EmfTrainer& trainer() { return *trainer_; }
  GeqoPipeline& pipeline() { return *pipeline_; }
  const GeqoSystemOptions& options() const { return options_; }
  ValueRange value_range() const { return options_.value_range; }

 private:
  const Catalog* catalog_;
  GeqoSystemOptions options_;
  EncodingLayout instance_layout_;
  EncodingLayout agnostic_layout_;
  std::unique_ptr<ml::EmfModel> model_;
  std::unique_ptr<ml::EmfTrainer> trainer_;
  std::unique_ptr<GeqoPipeline> pipeline_;
};

}  // namespace geqo
