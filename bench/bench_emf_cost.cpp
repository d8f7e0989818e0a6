/// \file bench_emf_cost.cpp
/// Reproduces §7.1.2 (computational cost of the EMF): training time for a
/// 20-epoch run, serialized model size, and per-pair prediction latency.
///
/// Paper reference points (on a 32-core Xeon + T4): ~40 min to train on
/// ~47k pairs, ~2.3 MB on disk, 3.19 ms per prediction. Our substrate is a
/// single CPU core and a scaled dataset; the harness reports the same
/// quantities at the configured scale.

#include <cstdio>
#include <filesystem>

#include "bench_util.h"
#include "common/stopwatch.h"

using namespace geqo;
using namespace geqo::bench;

int main() {
  PrintHeader("bench_emf_cost", "§7.1.2: EMF training/prediction/space cost");

  // Fresh model: this harness measures training, so the cache is not used.
  auto catalog = std::make_unique<Catalog>(MakeTpchCatalog());
  GeqoSystemOptions options = StandardOptions(GetScale());
  options.training.epochs = Pick(4, 12, 20);
  options.synthetic_data.num_base_queries = Pick(30, 150, 400);
  GeqoSystem system(catalog.get(), options);

  Rng rng(0xC057);
  auto pairs = BuildLabeledPairs(*catalog, options.synthetic_data, &rng);
  GEQO_CHECK(pairs.ok());

  Stopwatch watch;
  auto report = system.TrainOnPairs(*pairs);
  GEQO_CHECK(report.ok()) << report.status().ToString();
  const double train_seconds = watch.ElapsedSeconds();

  std::error_code ec;
  std::filesystem::create_directories("bench_cache", ec);
  const std::string snapshot_path = "bench_cache/emf_cost_probe.bin";
  GEQO_CHECK_OK(system.SaveSnapshot(snapshot_path));
  const uintmax_t size = std::filesystem::file_size(snapshot_path, ec);
  GEQO_CHECK(!ec) << snapshot_path << ": " << ec.message();

  // Prediction latency over fresh TPC-DS pairs (as in the paper).
  const Catalog tpcds = MakeTpcdsCatalog();
  EvalSet eval = MakeEvalSet(system, tpcds, Pick(20, 60, 150), 3,
                             /*seed=*/0x1A7E);
  watch.Reset();
  ml::PredictAll(&system.model(), eval.dataset);
  const double predict_seconds = watch.ElapsedSeconds();

  std::printf("training pairs            : %zu\n", pairs->size());
  std::printf("training epochs           : %zu\n", options.training.epochs);
  std::printf("training time             : %.1f s  (paper: ~40 min at 47k "
              "pairs, 20 epochs, 32 cores)\n",
              train_seconds);
  std::printf("model parameters          : %zu\n",
              system.model().NumParameters());
  std::printf("serialized model size     : %.2f MB  (paper: ~2.3 MB)\n",
              static_cast<double>(size) / 1e6);
  std::printf("prediction pairs          : %zu\n", eval.dataset.size());
  std::printf("prediction time per pair  : %.3f ms  (paper: 3.19 ms)\n",
              predict_seconds * 1e3 /
                  static_cast<double>(std::max<size_t>(eval.dataset.size(), 1)));
  return 0;
}
