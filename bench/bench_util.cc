#include "bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "filters/emf_filter.h"
#include "obs/json.h"
#include "tensor/kernels/kernel_table.h"
#include "obs/trace.h"

namespace geqo::bench {

Scale GetScale() {
  const char* env = std::getenv("GEQO_BENCH_SCALE");
  if (env == nullptr) return Scale::kDefault;
  const std::string value = ToLower(env);
  if (value == "smoke") return Scale::kSmoke;
  if (value == "full") return Scale::kFull;
  return Scale::kDefault;
}

std::string_view ScaleName(Scale scale) {
  switch (scale) {
    case Scale::kSmoke:
      return "smoke";
    case Scale::kDefault:
      return "default";
    case Scale::kFull:
      return "full";
  }
  return "?";
}

size_t Pick(size_t smoke, size_t default_size, size_t full) {
  switch (GetScale()) {
    case Scale::kSmoke:
      return smoke;
    case Scale::kDefault:
      return default_size;
    case Scale::kFull:
      return full;
  }
  return default_size;
}

GeqoSystemOptions StandardOptions(Scale scale) {
  GeqoSystemOptions options;
  const bool full = scale == Scale::kFull;
  options.model.conv1_size = full ? 128 : 64;
  options.model.conv2_size = full ? 128 : 64;
  options.model.fc1_size = full ? 128 : 64;
  options.model.fc2_size = full ? 64 : 32;
  options.model.dropout = 0.3f;
  options.training.epochs = full ? 24 : 15;
  options.synthetic_data.num_base_queries =
      scale == Scale::kSmoke ? 40 : (full ? 400 : 160);
  options.synthetic_data.variants_per_query = 3;
  options.pipeline.emf.threshold = 0.5f;
  return options;
}

BenchContext BuildTrainedSystem(const std::string& tag,
                                std::unique_ptr<Catalog> catalog,
                                GeqoSystemOptions options, uint64_t seed,
                                bool join_free) {
  if (join_free) options.synthetic_data.generator.max_tables = 1;

  BenchContext context;
  context.catalog = std::move(catalog);
  context.system =
      std::make_unique<GeqoSystem>(context.catalog.get(), options);

  const std::string cache_dir = "bench_cache";
  const std::string cache_path = cache_dir + "/" + tag + "_" +
                                 std::string(ScaleName(GetScale())) + ".bin";
  if (std::filesystem::exists(cache_path)) {
    // The snapshot carries the calibrated VMF radius and EMF threshold, so
    // a cache hit needs no recalibration sample. Pre-snapshot cache files
    // fail the magic check and fall through to retraining.
    const Status loaded = context.system->LoadSnapshot(cache_path);
    if (loaded.ok()) {
      context.loaded_from_cache = true;
      std::printf("# model '%s': loaded from %s\n", tag.c_str(),
                  cache_path.c_str());
      return context;
    }
    std::printf("# model '%s': cache load failed (%s); retraining\n",
                tag.c_str(), loaded.ToString().c_str());
  }

  Stopwatch watch;
  // Two generator profiles: the default diverse one plus the narrow
  // collision-heavy profile detection workloads use, so the model sees the
  // same pattern distribution at train and test time (the paper's training
  // corpus likewise comes from the evaluation generator, §5).
  Rng rng(seed);
  LabeledDataOptions diverse = options.synthetic_data;
  auto pairs = BuildLabeledPairs(*context.catalog, diverse, &rng);
  GEQO_CHECK(pairs.ok()) << pairs.status().ToString();
  if (!join_free) {
    LabeledDataOptions narrow = options.synthetic_data;
    narrow.generator.fixed_projection_columns = 2;
    for (const char* table : {"store_sales", "date_dim", "item", "customer",
                              "lineitem", "orders"}) {
      if (context.catalog->FindTable(table) != nullptr) {
        narrow.generator.table_pool.push_back(table);
      }
    }
    auto narrow_pairs = BuildLabeledPairs(*context.catalog, narrow, &rng);
    GEQO_CHECK(narrow_pairs.ok());
    pairs->insert(pairs->end(), narrow_pairs->begin(), narrow_pairs->end());
  }
  auto report = context.system->TrainOnPairs(*pairs);
  GEQO_CHECK(report.ok()) << report.status().ToString();
  context.train_seconds = watch.ElapsedSeconds();
  std::printf("# model '%s': trained in %.1fs (loss %.3f)\n", tag.c_str(),
              context.train_seconds, report->final_epoch_loss);

  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  const Status saved = context.system->SaveSnapshot(cache_path);
  if (!saved.ok()) {
    std::printf("# model '%s': cache save failed (%s)\n", tag.c_str(),
                saved.ToString().c_str());
  }
  return context;
}

BenchContext TpchTrainedSystem(Scale scale) {
  return BuildTrainedSystem("emf_tpch",
                            std::make_unique<Catalog>(MakeTpchCatalog()),
                            StandardOptions(scale), /*seed=*/0xBE9C);
}

ForeignPipeline MakeForeignPipeline(GeqoSystem& system,
                                    std::unique_ptr<Catalog> catalog,
                                    GeqoOptions options) {
  ForeignPipeline foreign;
  foreign.catalog = std::move(catalog);
  foreign.instance_layout = std::make_unique<EncodingLayout>(
      EncodingLayout::FromCatalog(*foreign.catalog));
  // Carry over the calibrated VMF radius and EMF threshold.
  options.vmf.radius = system.pipeline().options().vmf.radius;
  options.emf.threshold = system.pipeline().options().emf.threshold;
  foreign.pipeline = std::make_unique<GeqoPipeline>(
      foreign.catalog.get(), &system.model(), foreign.instance_layout.get(),
      &system.agnostic_layout(), options);
  return foreign;
}

EvalSet MakeEvalSet(const GeqoSystem& system, const Catalog& catalog,
                    size_t num_bases, size_t variants, uint64_t seed) {
  Rng rng(seed);
  LabeledDataOptions options;
  options.num_base_queries = num_bases;
  options.variants_per_query = variants;
  auto pairs = BuildLabeledPairs(catalog, options, &rng);
  GEQO_CHECK(pairs.ok()) << pairs.status().ToString();

  const EncodingLayout foreign_layout = EncodingLayout::FromCatalog(catalog);
  auto dataset =
      EncodeLabeledPairs(*pairs, catalog, foreign_layout,
                         system.agnostic_layout(), system.value_range());
  GEQO_CHECK(dataset.ok()) << dataset.status().ToString();
  return EvalSet{std::move(*pairs), std::move(*dataset)};
}

DetectionWorkload MakeDetectionWorkload(const Catalog& catalog,
                                        size_t num_subexpressions,
                                        size_t num_equivalences,
                                        uint64_t seed) {
  GEQO_CHECK(num_equivalences * 2 <= num_subexpressions);
  Rng rng(seed);
  // Concentrate the workload on a narrow table pool with a fixed output
  // arity so that SF-groups are large, as in the paper's subexpression
  // corpora (Table 1 reports SF TNR of only 0.37: most pairs share an SF
  // signature and must be pruned by the later, smarter filters).
  GeneratorOptions generator_options;
  generator_options.fixed_projection_columns = 2;
  for (const char* table : {"store_sales", "date_dim", "item",
                            "customer", "lineitem", "orders"}) {
    if (catalog.FindTable(table) != nullptr) {
      generator_options.table_pool.push_back(table);
    }
  }
  QueryGenerator generator(&catalog, generator_options);
  Rewriter rewriter(&catalog);

  DetectionWorkload workload;
  const size_t num_bases = num_subexpressions - num_equivalences;
  for (size_t i = 0; i < num_bases; ++i) {
    workload.subexpressions.push_back(generator.Generate(&rng));
  }
  for (size_t i = 0; i < num_equivalences; ++i) {
    auto variant = rewriter.RewriteOnce(workload.subexpressions[i], &rng);
    GEQO_CHECK(variant.ok());
    workload.planted.emplace_back(i, workload.subexpressions.size());
    workload.subexpressions.push_back(*variant);
  }
  return workload;
}

bool ContainsPair(const std::vector<std::pair<size_t, size_t>>& pairs,
                  const std::pair<size_t, size_t>& pair) {
  return std::find(pairs.begin(), pairs.end(), pair) != pairs.end();
}

ml::ConfusionMatrix ScoreDetection(
    const DetectionWorkload& workload,
    const std::vector<std::pair<size_t, size_t>>& detected) {
  ml::ConfusionMatrix matrix;
  std::vector<std::pair<size_t, size_t>> detected_sorted = detected;
  std::vector<std::pair<size_t, size_t>> planted_sorted = workload.planted;
  std::sort(detected_sorted.begin(), detected_sorted.end());
  std::sort(planted_sorted.begin(), planted_sorted.end());
  const size_t n = workload.subexpressions.size();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const std::pair<size_t, size_t> pair{i, j};
      matrix.Add(std::binary_search(detected_sorted.begin(),
                                    detected_sorted.end(), pair),
                 std::binary_search(planted_sorted.begin(),
                                    planted_sorted.end(), pair));
    }
  }
  return matrix;
}

namespace {

/// Evaluates a model on an encoded labeled dataset.
SsflStudyPoint EvaluatePoint(ml::EmfModel* model,
                             const ml::PairDataset& eval_set) {
  const ml::ConfusionMatrix matrix =
      ml::EvaluateBinary(ml::PredictAll(model, eval_set), eval_set.labels);
  SsflStudyPoint point;
  point.accuracy = matrix.Accuracy();
  point.f1 = matrix.F1();
  return point;
}

std::vector<SsflStudyPoint> RunSsflMode(bool filter_based, Scale scale,
                                        const std::vector<PlanPtr>& workload,
                                        const Catalog& tpcds,
                                        const EncodingLayout& tpcds_layout,
                                        const ml::PairDataset& eval_set) {
  // Degenerate initial model: trained on join-free TPC-H only (§7.3).
  BenchContext context = BuildTrainedSystem(
      "emf_tpch_joinfree", std::make_unique<Catalog>(MakeTpchCatalog()),
      StandardOptions(scale), /*seed=*/0x10f7, /*join_free=*/true);
  GeqoSystem& system = *context.system;

  SsflOptions options;
  options.filter_based_sampling = filter_based;
  options.max_iterations = 1;  // driven one batch at a time from here
  options.sample_batch = Pick(128, 256, 512);
  options.confidence_sample = Pick(100, 300, 1000);
  options.confidence_threshold = 1.01f;  // never stop early: fixed batches
  options.finetune_epochs = Pick(6, 8, 10);
  options.vmf.radius = system.pipeline().options().vmf.radius;
  options.seed = filter_based ? 0xF117E4 : 0x4A4D04;

  ml::TrainOptions finetune_options;
  finetune_options.adam.learning_rate = 5e-4f;  // gentle fine-tuning
  ml::EmfTrainer tuner(&system.model(), finetune_options);
  Ssfl ssfl(&tpcds, &system.model(), &tuner, &tpcds_layout,
            &system.agnostic_layout(), options);

  // Seed the pool with (join-free) pretraining data so fine-tuning augments
  // rather than replaces the model's knowledge (§6).
  {
    Rng seed_rng(0x5EED0);
    LabeledDataOptions seed_options;
    seed_options.num_base_queries = Pick(20, 40, 80);
    seed_options.generator.max_tables = 1;
    auto seed_pairs =
        BuildLabeledPairs(*context.catalog, seed_options, &seed_rng);
    GEQO_CHECK(seed_pairs.ok());
    auto seed_dataset = EncodeLabeledPairs(
        *seed_pairs, *context.catalog, context.system->instance_layout(),
        system.agnostic_layout(), system.value_range());
    GEQO_CHECK(seed_dataset.ok());
    ssfl.SeedTrainingData(*seed_dataset);
  }

  std::vector<SsflStudyPoint> points;
  points.push_back(EvaluatePoint(&system.model(), eval_set));  // untuned

  const size_t iterations = Pick(3, 5, 8);
  size_t cumulative = 0;
  for (size_t iteration = 0; iteration < iterations; ++iteration) {
    auto reports = ssfl.Run(workload, system.value_range());
    GEQO_CHECK(reports.ok()) << reports.status().ToString();
    GEQO_CHECK(!reports->empty());
    const SsflIterationReport& report = reports->back();
    cumulative += report.new_positives + report.new_negatives;
    std::printf("#   %s batch %zu: %zu positives / %zu negatives\n",
                filter_based ? "filter" : "random", iteration + 1,
                report.new_positives, report.new_negatives);

    SsflStudyPoint point = EvaluatePoint(&system.model(), eval_set);
    point.cumulative_samples = cumulative;
    point.sample_seconds = report.sample_seconds;
    point.verify_seconds = report.verify_seconds;
    point.featurize_seconds = report.featurize_seconds;
    point.train_seconds = report.train_seconds;
    points.push_back(point);
  }
  return points;
}

}  // namespace

SsflStudyResult RunSsflStudy(Scale scale) {
  const Catalog tpcds = MakeTpcdsCatalog();
  const EncodingLayout tpcds_layout = EncodingLayout::FromCatalog(tpcds);

  // The evolving workload the model has never seen: TPC-DS with joins.
  const DetectionWorkload detection = MakeDetectionWorkload(
      tpcds, Pick(60, 120, 240), Pick(15, 30, 60), /*seed=*/0x55F1D5);

  // Held-out labeled TPC-DS evaluation set. Any trained system instance can
  // encode it (the agnostic layout is shared); build a throwaway context.
  BenchContext probe = BuildTrainedSystem(
      "emf_tpch_joinfree", std::make_unique<Catalog>(MakeTpchCatalog()),
      StandardOptions(scale), /*seed=*/0x10f7, /*join_free=*/true);
  EvalSet eval = MakeEvalSet(*probe.system, tpcds, Pick(25, 80, 200), 3,
                             /*seed=*/0xE7A19);
  std::printf("# SSFL study: %zu-subexpression TPC-DS workload, "
              "%zu-pair eval set\n",
              detection.subexpressions.size(), eval.dataset.size());

  SsflStudyResult result;
  result.filter_based =
      RunSsflMode(true, scale, detection.subexpressions, tpcds, tpcds_layout,
                  eval.dataset);
  result.random =
      RunSsflMode(false, scale, detection.subexpressions, tpcds, tpcds_layout,
                  eval.dataset);
  return result;
}

void WritePipelineArtifact(const std::string& label,
                           const GeqoResult& result) {
  struct Entry {
    std::string label;
    GeqoResult result;
  };
  static std::vector<Entry> entries;  // harness processes are single-threaded
  entries.push_back(Entry{label, result});

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("runs").BeginArray();
  for (const Entry& entry : entries) {
    json.BeginObject();
    json.Key("label").String(entry.label);
    json.Key("total_pairs")
        .Number(static_cast<uint64_t>(entry.result.total_pairs));
    json.Key("candidates")
        .Number(static_cast<uint64_t>(entry.result.candidates.size()));
    json.Key("equivalences")
        .Number(static_cast<uint64_t>(entry.result.equivalences.size()));
    json.Key("total_seconds").Number(entry.result.total_seconds);
    json.Key("stages").BeginArray();
    for (const StageReport& stage : entry.result.stages) {
      json.BeginObject();
      json.Key("name").String(stage.name);
      json.Key("enabled").Bool(stage.enabled);
      json.Key("pairs_in").Number(static_cast<uint64_t>(stage.pairs_in));
      json.Key("pairs_out").Number(static_cast<uint64_t>(stage.pairs_out));
      json.Key("seconds").Number(stage.seconds);
      json.Key("metrics").BeginObject();
      for (const auto& [name, delta] : stage.metrics) {
        json.Key(name).Number(delta);
      }
      json.EndObject();
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  std::ofstream out("BENCH_pipeline.json", std::ios::trunc);
  if (out) out << std::move(json).Finish();
  obs::WriteTraceArtifactsIfEnabled();
}

void WriteServeArtifact(const std::vector<ServeBenchReport>& phases,
                        const std::vector<KernelBenchReport>& kernel_phases,
                        double speedup,
                        const std::vector<ConcurrentServeReport>& concurrent,
                        double concurrent_p99_speedup,
                        const DurabilityBenchReport* durability) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("kernel").BeginObject();
  json.Key("isa").String(kernels::ActiveIsaName());
  json.EndObject();
  json.Key("phases").BeginArray();
  for (const ServeBenchReport& phase : phases) {
    json.BeginObject();
    json.Key("label").String(phase.label);
    json.Key("catalog_size").Number(static_cast<uint64_t>(phase.catalog_size));
    json.Key("classes").Number(static_cast<uint64_t>(phase.num_classes));
    json.Key("probes").Number(static_cast<uint64_t>(phase.probes));
    json.Key("verifier_calls").Number(phase.verifier_calls);
    json.Key("memo_hits").Number(phase.memo_hits);
    json.Key("class_shortcuts").Number(phase.class_shortcuts);
    json.Key("memo_hit_rate").Number(phase.memo_hit_rate);
    json.Key("probe_p50_seconds").Number(phase.p50_seconds);
    json.Key("probe_p99_seconds").Number(phase.p99_seconds);
    json.Key("total_seconds").Number(phase.total_seconds);
    json.EndObject();
  }
  json.EndArray();
  if (!kernel_phases.empty()) {
    json.Key("embed_probe").BeginArray();
    for (const KernelBenchReport& phase : kernel_phases) {
      json.BeginObject();
      json.Key("isa").String(phase.isa);
      json.Key("ops").Number(static_cast<uint64_t>(phase.ops));
      json.Key("seconds").Number(phase.seconds);
      json.Key("ops_per_second").Number(phase.ops_per_second);
      json.EndObject();
    }
    json.EndArray();
    json.Key("embed_probe_speedup").Number(speedup);
  }
  if (!concurrent.empty()) {
    json.Key("concurrent").BeginArray();
    for (const ConcurrentServeReport& report : concurrent) {
      json.BeginObject();
      json.Key("label").String(report.label);
      json.Key("probers").Number(static_cast<uint64_t>(report.probers));
      json.Key("adders").Number(static_cast<uint64_t>(report.adders));
      json.Key("shards").Number(static_cast<uint64_t>(report.num_shards));
      json.Key("verifier_threads")
          .Number(static_cast<uint64_t>(report.verifier_threads));
      json.Key("probes").Number(static_cast<uint64_t>(report.probes));
      json.Key("adds").Number(static_cast<uint64_t>(report.adds));
      json.Key("probe_p50_seconds").Number(report.p50_seconds);
      json.Key("probe_p99_seconds").Number(report.p99_seconds);
      json.Key("wall_seconds").Number(report.wall_seconds);
      json.EndObject();
    }
    json.EndArray();
    json.Key("concurrent_p99_speedup").Number(concurrent_p99_speedup);
  }
  if (durability != nullptr) {
    json.Key("durability").BeginObject();
    json.Key("entries").Number(static_cast<uint64_t>(durability->entries));
    json.Key("wal_records")
        .Number(static_cast<uint64_t>(durability->wal_records));
    json.Key("snapshot_pause_ms").Number(durability->snapshot_pause_ms);
    json.Key("checkpoint_pause_ms").Number(durability->checkpoint_pause_ms);
    json.Key("recovery_replay_ms").Number(durability->recovery_replay_ms);
    json.EndObject();
  }
  json.EndObject();

  std::ofstream out("BENCH_serve.json", std::ios::trunc);
  if (out) out << std::move(json).Finish();
  obs::WriteTraceArtifactsIfEnabled();
}

void WriteE2eArtifact(const std::vector<E2eStreamReport>& streams,
                      double cached_speedup, size_t catalog_entries,
                      size_t catalog_classes, size_t cache_used_bytes,
                      size_t cache_budget_bytes) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("kernel").BeginObject();
  json.Key("isa").String(kernels::ActiveIsaName());
  json.EndObject();
  json.Key("streams").BeginArray();
  for (const E2eStreamReport& stream : streams) {
    json.BeginObject();
    json.Key("label").String(stream.label);
    json.Key("clients").Number(static_cast<uint64_t>(stream.clients));
    json.Key("queries").Number(static_cast<uint64_t>(stream.queries));
    json.Key("executions").Number(static_cast<uint64_t>(stream.executions));
    json.Key("cache_hits").Number(static_cast<uint64_t>(stream.cache_hits));
    json.Key("query_p50_seconds").Number(stream.p50_seconds);
    json.Key("query_p99_seconds").Number(stream.p99_seconds);
    json.Key("wall_seconds").Number(stream.wall_seconds);
    json.Key("queries_per_second").Number(stream.queries_per_second);
    json.EndObject();
  }
  json.EndArray();
  json.Key("cached_speedup").Number(cached_speedup);
  json.Key("catalog").BeginObject();
  json.Key("entries").Number(static_cast<uint64_t>(catalog_entries));
  json.Key("classes").Number(static_cast<uint64_t>(catalog_classes));
  json.EndObject();
  json.Key("result_cache").BeginObject();
  json.Key("used_bytes").Number(static_cast<uint64_t>(cache_used_bytes));
  json.Key("budget_bytes").Number(static_cast<uint64_t>(cache_budget_bytes));
  json.EndObject();
  json.EndObject();

  std::ofstream out("BENCH_e2e.json", std::ios::trunc);
  if (out) out << std::move(json).Finish();
  obs::WriteTraceArtifactsIfEnabled();
}

void PrintHeader(const std::string& name, const std::string& reproduces) {
  std::printf("================================================================\n");
  std::printf("%s  --  reproduces %s\n", name.c_str(), reproduces.c_str());
  std::printf("scale: %s (set GEQO_BENCH_SCALE=smoke|default|full)\n",
              std::string(ScaleName(GetScale())).c_str());
  std::printf("================================================================\n");
}

}  // namespace geqo::bench
