#include "inputs.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "plan/canonicalize.h"
#include "workload/generator.h"
#include "workload/rewrite.h"
#include "workload/schemas.h"

namespace perfbench {

using geqo::PlanPtr;

namespace {

/// Distinct streams per purpose, so resizing one input leaves the others
/// unchanged for the same seed.
constexpr uint64_t kDetectStream = 0xD37EC7;
constexpr uint64_t kReuseStream = 0x4E05E;
constexpr uint64_t kIngestStream = 0x1A6E57;
/// Seed of the reuse fixture (see ReuseInputs); never the workload seed.
constexpr uint64_t kReuseFixtureSeed = 0x2E05E;

uint64_t Mix(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL ^ stream;
}

/// A rewrite of \p plan. Rewrite rules can refuse a plan shape; retrying
/// with the next draws of the same generator keeps the result a pure
/// function of the seed.
PlanPtr Rewrite(const geqo::Rewriter& rewriter, const PlanPtr& plan,
                geqo::Rng* rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    auto variant = rewriter.RewriteOnce(plan, rng);
    if (variant.ok()) return *variant;
  }
  GEQO_CHECK(false) << "no rewrite applies to a generated plan";
  return plan;
}

/// A narrow table pool with a fixed output arity, so signature groups are
/// large and most pairs must be pruned by the VMF/EMF rather than the
/// schema filter.
geqo::GeneratorOptions NarrowProfile(const geqo::Catalog& catalog) {
  geqo::GeneratorOptions options;
  options.fixed_projection_columns = 2;
  for (const char* table : {"lineitem", "orders", "customer"}) {
    if (catalog.FindTable(table) != nullptr) {
      options.table_pool.push_back(table);
    }
  }
  return options;
}

}  // namespace

TrainedSystem TrainSystem() {
  malloc_trim(0);
  geqo::ThreadPool::SetGlobalThreads(kTrainThreads);
  TrainedSystem out;
  out.catalog = std::make_unique<geqo::Catalog>(geqo::MakeTpchCatalog());
  geqo::GeqoSystemOptions options;
  options.model.conv1_size = 64;
  options.model.conv2_size = 64;
  options.model.fc1_size = 64;
  options.model.fc2_size = 32;
  options.model.dropout = 0.3f;
  options.training.epochs = 8;
  options.synthetic_data.num_base_queries = 120;
  options.synthetic_data.variants_per_query = 3;
  options.synthetic_data.generator = NarrowProfile(*out.catalog);
  out.system = std::make_unique<geqo::GeqoSystem>(out.catalog.get(), options);
  geqo::Stopwatch watch;
  auto report = out.system->TrainOnSyntheticWorkload(kTrainSeed);
  GEQO_CHECK(report.ok()) << report.status().ToString();
  out.train_seconds = watch.ElapsedSeconds();
  return out;
}

DetectInputs MakeDetectInputs(const geqo::Catalog& catalog, size_t n,
                              size_t num_planted, uint64_t seed) {
  GEQO_CHECK(num_planted * 2 <= n);
  geqo::Rng rng(Mix(seed, kDetectStream));
  const geqo::QueryGenerator generator(&catalog, NarrowProfile(catalog));
  const geqo::Rewriter rewriter(&catalog);
  DetectInputs inputs;
  inputs.subexpressions = generator.GenerateMany(n - num_planted, &rng);
  for (size_t i = 0; i < num_planted; ++i) {
    inputs.planted.emplace_back(i, inputs.subexpressions.size());
    inputs.subexpressions.push_back(
        Rewrite(rewriter, inputs.subexpressions[i], &rng));
  }
  return inputs;
}

ReuseInputs MakeReuseInputs(const geqo::Catalog& catalog, size_t num_classes,
                            size_t variants_per_class, size_t num_one_off,
                            size_t num_arrivals, size_t num_fixture_arrivals,
                            uint64_t seed) {
  geqo::Rng fixture(Mix(kReuseFixtureSeed, kReuseStream));
  geqo::Rng rng(Mix(seed, kReuseStream));
  const geqo::Rewriter rewriter(&catalog);
  // Queries join at most two tables: bounded join fan-out keeps each
  // query's execution cost, and the process's memory, in a narrow range.
  geqo::GeneratorOptions profile = NarrowProfile(catalog);
  profile.max_tables = 2;
  const geqo::QueryGenerator generator(&catalog, profile);
  ReuseInputs inputs;
  inputs.num_classes = num_classes;
  inputs.variants_per_class = variants_per_class;
  for (size_t c = 0; c < num_classes; ++c) {
    const PlanPtr base = generator.Generate(&fixture);
    inputs.texts.push_back(base);
    for (size_t v = 0; v < variants_per_class; ++v) {
      inputs.texts.push_back(Rewrite(rewriter, base, &fixture));
    }
  }
  for (size_t i = 0; i < num_one_off; ++i) {
    inputs.texts.push_back(generator.Generate(&rng));
  }

  // Zipf(1) over classes: a few popular classes carry most arrivals. The
  // class ranks are a permutation, so popularity is not tied to generation
  // order.
  std::vector<size_t> rank_to_class(num_classes);
  for (size_t c = 0; c < num_classes; ++c) rank_to_class[c] = c;
  fixture.Shuffle(rank_to_class);
  std::vector<double> cdf(num_classes);
  double total = 0.0;
  for (size_t r = 0; r < num_classes; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  constexpr double kOneOffShare = 0.001;
  size_t next_one_off = 0;
  inputs.arrivals.reserve(num_arrivals);
  for (size_t a = 0; a < num_arrivals; ++a) {
    geqo::Rng& draw = a < num_fixture_arrivals ? fixture : rng;
    if (num_one_off > 0 && draw.Bernoulli(kOneOffShare)) {
      inputs.arrivals.push_back(static_cast<uint32_t>(
          inputs.NumClassTexts() + next_one_off++ % num_one_off));
      continue;
    }
    const double u = draw.NextDouble() * total;
    const size_t rank = std::min<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        num_classes - 1);
    const size_t cls = rank_to_class[rank];
    const size_t member = draw.Uniform(inputs.TextsPerClass());
    inputs.arrivals.push_back(
        static_cast<uint32_t>(cls * inputs.TextsPerClass() + member));
  }

  inputs.data.default_rows = 300;
  inputs.data.key_cardinality = 60;
  inputs.data.seed = Mix(kReuseFixtureSeed, kReuseStream + 1);
  return inputs;
}

IngestInputs MakeIngestInputs(const geqo::Catalog& catalog, size_t num_warm,
                              size_t num_stream, double planted_share,
                              size_t num_probes, uint64_t seed) {
  geqo::Rng rng(Mix(seed, kIngestStream));
  // The whole TPC-H schema: signature groups are smaller than in the
  // narrow profile, so each probe scores tens of candidates, not hundreds.
  const geqo::QueryGenerator generator(&catalog, geqo::GeneratorOptions());
  const geqo::Rewriter rewriter(&catalog);
  IngestInputs inputs;
  // Fresh subexpressions: a generated plan whose canonical form is already
  // in the catalog is drawn again, so the only equivalences are the planted
  // ones (and the probes' rewrites).
  std::unordered_set<uint64_t> seen;
  const auto fresh = [&] {
    for (int attempt = 0;; ++attempt) {
      PlanPtr plan = generator.Generate(&rng);
      if (seen.insert(geqo::CanonicalHash(plan)).second || attempt == 100) {
        return plan;
      }
    }
  };
  for (size_t i = 0; i < num_warm; ++i) inputs.warm.push_back(fresh());
  for (size_t i = 0; i < num_stream; ++i) {
    const size_t position = num_warm + i;
    if (rng.Bernoulli(planted_share)) {
      // A rewrite of a recent entry (within the last 1000 adds), so the
      // pending verification lands while the writer is still running.
      const size_t window = std::min<size_t>(position, 1000);
      const size_t source = position - 1 - rng.Uniform(window);
      const PlanPtr& original = source < num_warm
                                    ? inputs.warm[source]
                                    : inputs.stream[source - num_warm];
      inputs.stream.push_back(Rewrite(rewriter, original, &rng));
      inputs.planted.emplace_back(source, position);
    } else {
      inputs.stream.push_back(fresh());
    }
  }
  // Probes: half rewrites of warm entries (which have a class to find),
  // half never-seen queries.
  for (size_t i = 0; i < num_probes; ++i) {
    if (num_warm > 0 && i % 2 == 0) {
      inputs.probes.push_back(
          Rewrite(rewriter, inputs.warm[rng.Uniform(num_warm)], &rng));
    } else {
      inputs.probes.push_back(fresh());
    }
  }
  return inputs;
}

std::string InputFingerprint(const std::vector<PlanPtr>& plans) {
  std::string out;
  for (const PlanPtr& plan : plans) {
    out += plan->ToString();
    out += "\n--\n";
  }
  return out;
}

}  // namespace perfbench
