#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <set>

#include "common/thread_pool.h"
#include "core/geqo_system.h"
#include "filters/emf_filter.h"
#include "filters/vmf.h"
#include "obs/metrics.h"
#include "tensor/kernels/kernel_table.h"
#include "test_util.h"
#include "workload/generator.h"
#include "workload/schemas.h"

namespace geqo {
namespace {

using testing::MustParse;

/// Shared small trained system over TPC-H (training amortized per suite).
class FiltersTest : public ::testing::Test {
 protected:
  static GeqoSystem& System() {
    static GeqoSystem* system = [] {
      static Catalog catalog = MakeTpchCatalog();
      GeqoSystemOptions options;
      options.model.conv1_size = 32;
      options.model.conv2_size = 32;
      options.model.fc1_size = 32;
      options.model.fc2_size = 16;
      options.model.dropout = 0.2f;
      options.training.epochs = 8;
      options.synthetic_data.num_base_queries = 40;
      auto* out = new GeqoSystem(&catalog, options);
      GEQO_CHECK_OK(out->TrainOnSyntheticWorkload(0xF117).status());
      return out;
    }();
    return *system;
  }

  static std::vector<EncodedPlan> Encode(const std::vector<PlanPtr>& plans) {
    auto encoded = EncodeWorkload(plans, System().instance_layout(),
                                  System().catalog(), System().value_range());
    GEQO_CHECK(encoded.ok());
    return *encoded;
  }
};

TEST_F(FiltersTest, CalibrationSetsOperatingPoints) {
  // Training calibrated both thresholds away from their raw defaults.
  const GeqoOptions& options = System().pipeline().options();
  EXPECT_GT(options.vmf.radius, 0.0f);
  EXPECT_GE(options.emf.threshold, 0.02f);
  EXPECT_LE(options.emf.threshold, 0.5f);
}

TEST_F(FiltersTest, CalibratedVmfAdmitsKnownEquivalences) {
  // Build fresh labeled pairs; the calibrated radius must admit nearly all
  // positives (the Table-1 TPR ~0.98 operating point).
  Rng rng(0xAB);
  LabeledDataOptions data_options;
  data_options.num_base_queries = 25;
  auto pairs = BuildLabeledPairs(System().catalog(), data_options, &rng);
  ASSERT_TRUE(pairs.ok());
  auto dataset = EncodeLabeledPairs(*pairs, System().catalog(),
                                    System().instance_layout(),
                                    System().agnostic_layout(),
                                    System().value_range());
  ASSERT_TRUE(dataset.ok());

  const float radius = System().pipeline().options().vmf.radius;
  size_t admitted = 0;
  size_t positives = 0;
  for (size_t i = 0; i < dataset->size(); ++i) {
    if (dataset->labels[i] < 0.5f) continue;
    ++positives;
    const Tensor lhs = System().model().Embed({&dataset->lhs[i]});
    const Tensor rhs = System().model().Embed({&dataset->rhs[i]});
    const float distance = std::sqrt(
        ops::SquaredDistance(lhs.Row(0), rhs.Row(0), lhs.cols()));
    admitted += distance < radius;
  }
  ASSERT_GT(positives, 5u);
  EXPECT_GE(static_cast<double>(admitted) / static_cast<double>(positives),
            0.85);
}

TEST_F(FiltersTest, EmfThresholdCalibrationRespectsBounds) {
  Rng rng(0xAC);
  LabeledDataOptions data_options;
  data_options.num_base_queries = 15;
  auto pairs = BuildLabeledPairs(System().catalog(), data_options, &rng);
  ASSERT_TRUE(pairs.ok());
  auto dataset = EncodeLabeledPairs(*pairs, System().catalog(),
                                    System().instance_layout(),
                                    System().agnostic_layout(),
                                    System().value_range());
  ASSERT_TRUE(dataset.ok());
  const auto threshold = CalibrateEmfThreshold(&System().model(), *dataset);
  ASSERT_TRUE(threshold.ok());
  EXPECT_GE(*threshold, 0.02f);
  EXPECT_LE(*threshold, 0.5f);

  // Calibration without positives is an error, not a silent default.
  ml::PairDataset negatives_only;
  for (size_t i = 0; i < dataset->size(); ++i) {
    if (dataset->labels[i] < 0.5f) {
      negatives_only.Add(dataset->lhs[i], dataset->rhs[i], 0.0f);
    }
  }
  EXPECT_FALSE(
      CalibrateEmfThreshold(&System().model(), negatives_only).ok());
  EXPECT_FALSE(CalibrateVmfRadius(&System().model(), negatives_only).ok());
}

TEST_F(FiltersTest, VmfGroupEmbeddingShapes) {
  const Catalog& catalog = System().catalog();
  const std::vector<PlanPtr> plans = {
      MustParse("SELECT c_custkey FROM customer WHERE c_acctbal > 10",
                catalog),
      MustParse("SELECT c_custkey FROM customer WHERE 10 < c_acctbal",
                catalog),
      MustParse("SELECT c_custkey FROM customer WHERE c_acctbal > 95",
                catalog),
  };
  const std::vector<EncodedPlan> encoded = Encode(plans);
  const VectorMatchingFilter vmf(&System().model(),
                                 &System().instance_layout(),
                                 &System().agnostic_layout());
  const auto embeddings = vmf.EmbedGroup({0, 1, 2}, encoded);
  ASSERT_TRUE(embeddings.ok());
  EXPECT_EQ(embeddings->rows(), 3u);
  EXPECT_EQ(embeddings->cols(), System().model().embedding_dim());

  // The operand-swapped pair encodes identically, hence distance zero.
  const float d01 = std::sqrt(ops::SquaredDistance(
      embeddings->Row(0), embeddings->Row(1), embeddings->cols()));
  const float d02 = std::sqrt(ops::SquaredDistance(
      embeddings->Row(0), embeddings->Row(2), embeddings->cols()));
  EXPECT_FLOAT_EQ(d01, 0.0f);
  EXPECT_GT(d02, 0.0f);
}

TEST_F(FiltersTest, VmfCandidatesAreDeduplicatedAndOrdered) {
  const Catalog& catalog = System().catalog();
  std::vector<PlanPtr> plans;
  for (int i = 0; i < 6; ++i) {
    plans.push_back(MustParse("SELECT c_custkey FROM customer", catalog));
  }
  const std::vector<EncodedPlan> encoded = Encode(plans);
  VmfOptions options;
  options.radius = 10.0f;  // everything within radius
  const VectorMatchingFilter vmf(&System().model(),
                                 &System().instance_layout(),
                                 &System().agnostic_layout(), options);
  const auto pairs = vmf.CandidatePairs({0, 1, 2, 3, 4, 5}, encoded);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs->size(), 15u);  // C(6,2), each exactly once
  for (const auto& [i, j] : *pairs) EXPECT_LT(i, j);
}

TEST_F(FiltersTest, EmfFilterThresholdSplitsScores) {
  const Catalog& catalog = System().catalog();
  // The EMF runs after the SF, so its training distribution only contains
  // schema-compatible pairs; probe it with same-table pairs.
  const std::vector<PlanPtr> plans = {
      MustParse("SELECT c_custkey FROM customer WHERE c_acctbal > 10",
                catalog),
      MustParse("SELECT c_custkey FROM customer WHERE 10 < c_acctbal",
                catalog),
      MustParse("SELECT c_custkey FROM customer WHERE c_nationkey < 85",
                catalog),
  };
  const std::vector<EncodedPlan> encoded = Encode(plans);
  const EquivalenceModelFilter emf(&System().model(),
                                   &System().instance_layout(),
                                   &System().agnostic_layout());
  const auto scores = emf.Scores({{0, 1}, {0, 2}}, encoded);
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(scores->size(), 2u);
  // The identical-after-normalization pair must score higher than the
  // different-column, opposite-direction pair.
  EXPECT_GT((*scores)[0], (*scores)[1]);
}

TEST_F(FiltersTest, SystemSnapshotRoundTripKeepsCalibration) {
  const std::string path = ::testing::TempDir() + "/system_snapshot.bin";
  const float radius = System().options().pipeline.vmf.radius;
  const float threshold = System().options().pipeline.emf.threshold;
  ASSERT_TRUE(System().SaveSnapshot(path).ok());
  ASSERT_TRUE(System().LoadSnapshot(path).ok());
  EXPECT_EQ(System().options().pipeline.vmf.radius, radius);
  EXPECT_EQ(System().options().pipeline.emf.threshold, threshold);
  std::remove(path.c_str());
}


// ---------------------------------------------------------------------------
// EMF scoring from deduplicated trunk embeddings.

using Pairs = std::vector<std::pair<size_t, size_t>>;

/// The per-pair scoring path that EquivalenceModelFilter::Scores replaced,
/// kept as its oracle: batches of \p batch_size pairs, one
/// AgnosticConverter::Create per pair, PredictProba on the converted batch.
Result<std::vector<float>> OracleScores(
    const ml::EmfModel& model, const EncodingLayout& instance_layout,
    const EncodingLayout& agnostic_layout, size_t batch_size,
    const Pairs& pairs, const std::vector<const EncodedPlan*>& plans) {
  std::vector<float> scores;
  for (size_t begin = 0; begin < pairs.size(); begin += batch_size) {
    const size_t end = std::min(begin + batch_size, pairs.size());
    std::vector<EncodedPlan> lhs;
    std::vector<EncodedPlan> rhs;
    for (size_t p = begin; p < end; ++p) {
      const EncodedPlan& a = *plans[pairs[p].first];
      const EncodedPlan& b = *plans[pairs[p].second];
      GEQO_ASSIGN_OR_RETURN(
          AgnosticConverter converter,
          AgnosticConverter::Create(&instance_layout, &agnostic_layout,
                                    {&a, &b}));
      lhs.push_back(converter.Convert(a));
      rhs.push_back(converter.Convert(b));
    }
    std::vector<const EncodedPlan*> lhs_views;
    std::vector<const EncodedPlan*> rhs_views;
    for (size_t i = 0; i < lhs.size(); ++i) {
      lhs_views.push_back(&lhs[i]);
      rhs_views.push_back(&rhs[i]);
    }
    const Tensor probs = model.PredictProba(lhs_views, rhs_views);
    for (size_t i = 0; i < probs.rows(); ++i) scores.push_back(probs.At(i, 0));
  }
  return scores;
}

/// Index of the first score whose bits differ, or -1.
long FirstBitMismatch(const std::vector<float>& actual,
                      const std::vector<float>& expected) {
  if (actual.size() != expected.size()) return 0;
  for (size_t i = 0; i < actual.size(); ++i) {
    if (std::memcmp(&actual[i], &expected[i], sizeof(float)) != 0) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

class EmfDedupTest : public FiltersTest {
 protected:
  static constexpr size_t kBatch = 32;

  /// A generated multi-table TPC-H workload over a narrow table pool, so
  /// plans share tables and pairs share conversions.
  static const std::vector<EncodedPlan>& Workload() {
    static const std::vector<EncodedPlan>* encoded = [] {
      GeneratorOptions options;
      options.max_tables = 3;
      options.table_pool = {"customer", "nation", "orders", "lineitem"};
      const QueryGenerator generator(&System().catalog(), options);
      Rng rng(0xDED0);
      return new std::vector<EncodedPlan>(
          Encode(generator.GenerateMany(40, &rng)));
    }();
    return *encoded;
  }

  /// Every (i, j), i < j, cut so the last batch has 3 pairs: a short head
  /// batch occurs beside the full ones.
  static Pairs WorkloadPairs() {
    Pairs pairs;
    for (size_t i = 0; i < Workload().size(); ++i) {
      for (size_t j = i + 1; j < Workload().size(); ++j) pairs.emplace_back(i, j);
    }
    pairs.resize(kBatch * (pairs.size() / kBatch - 1) + 3);
    return pairs;
  }

  static std::vector<const EncodedPlan*> Views(
      const std::vector<EncodedPlan>& plans) {
    std::vector<const EncodedPlan*> views;
    for (const EncodedPlan& plan : plans) views.push_back(&plan);
    return views;
  }

  static EquivalenceModelFilter Filter() {
    EmfFilterOptions options;
    options.batch_size = kBatch;
    return EquivalenceModelFilter(&System().model(),
                                  &System().instance_layout(),
                                  &System().agnostic_layout(), options);
  }

  static Result<std::vector<float>> Oracle(
      const Pairs& pairs, const std::vector<const EncodedPlan*>& plans) {
    return OracleScores(System().model(), System().instance_layout(),
                        System().agnostic_layout(), kBatch, pairs, plans);
  }

  void TearDown() override {
    ThreadPool::SetGlobalThreads(threads_);
    kernels::SetIsa(isa_);
  }

 private:
  const size_t threads_ = ThreadPool::GlobalThreads();
  const kernels::Isa isa_ = kernels::ActiveIsa();
};

TEST_F(EmfDedupTest, ScoresMatchPerPairOracleBitForBit) {
  const Pairs pairs = WorkloadPairs();
  const std::vector<const EncodedPlan*> views = Views(Workload());
  const EquivalenceModelFilter emf = Filter();
  size_t combinations = 0;
  for (const kernels::Isa isa : {kernels::Isa::kScalar, kernels::Isa::kAvx2}) {
    if (!kernels::SetIsa(isa)) continue;  // no AVX2 on this host
    const auto expected = Oracle(pairs, views);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (const size_t threads : {1, 2, 8}) {
      ThreadPool::SetGlobalThreads(threads);
      const auto scores = emf.Scores(pairs, Workload());
      ASSERT_TRUE(scores.ok()) << scores.status().ToString();
      EXPECT_EQ(FirstBitMismatch(*scores, *expected), -1)
          << "isa=" << kernels::ActiveIsaName() << " threads=" << threads;
      ++combinations;
    }
  }
  EXPECT_GE(combinations, 3u);
}

TEST_F(EmfDedupTest, ViewOverloadWithQuerySlotMatchesOracle) {
  // Catalog-probe shape: slot 0 is the query, slots 1..k the candidates.
  const std::vector<EncodedPlan>& plans = Workload();
  const std::vector<const EncodedPlan*> views = Views(plans);
  Pairs pairs;
  for (size_t k = 1; k < plans.size(); ++k) pairs.emplace_back(0, k);
  const EquivalenceModelFilter emf = Filter();
  const auto expected = Oracle(pairs, views);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  for (const size_t threads : {1, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    const auto scores = emf.Scores(pairs, views);
    ASSERT_TRUE(scores.ok()) << scores.status().ToString();
    EXPECT_EQ(FirstBitMismatch(*scores, *expected), -1)
        << "threads=" << threads;
  }
}

TEST_F(EmfDedupTest, TelemetryCountsPairsAndTrunkRows) {
  const obs::TraceLevel saved = obs::GlobalTraceLevel();
  obs::SetTraceLevel(obs::TraceLevel::kMetrics);
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter& pairs_scored = registry.GetCounter("emf.pairs_scored");
  obs::Counter& trunk_rows = registry.GetCounter("emf.trunk_rows");
  const uint64_t pairs_before = pairs_scored.value();
  const uint64_t rows_before = trunk_rows.value();
  const Pairs pairs = WorkloadPairs();
  ASSERT_TRUE(Filter().Scores(pairs, Workload()).ok());
  obs::SetTraceLevel(saved);
  EXPECT_EQ(pairs_scored.value() - pairs_before, pairs.size());
  // Every plan is embedded at least once, and conversions are shared.
  const uint64_t rows = trunk_rows.value() - rows_before;
  EXPECT_GE(rows, Workload().size());
  EXPECT_LT(rows, 2 * pairs.size());
}

TEST_F(EmfDedupTest, LayoutOverflowReturnsFirstFailingPairStatus) {
  // A layout too small for the workload: some pairs overflow its tables,
  // some its columns per table. Scores must fail like the per-pair oracle,
  // i.e. with Create's status for the first failing pair in pair order.
  const EncodingLayout tiny = EncodingLayout::Agnostic(2, 2);
  EmfFilterOptions options;
  options.batch_size = kBatch;
  const EquivalenceModelFilter emf(&System().model(),
                                   &System().instance_layout(), &tiny, options);
  const std::vector<const EncodedPlan*> views = Views(Workload());
  Pairs pairs = WorkloadPairs();
  std::set<std::string> messages;
  for (int order = 0; order < 2; ++order) {
    Status expected;
    for (const auto& [a, b] : pairs) {
      const auto converter = AgnosticConverter::Create(
          &System().instance_layout(), &tiny, {views[a], views[b]});
      if (!converter.ok()) {
        expected = converter.status();
        break;
      }
    }
    ASSERT_FALSE(expected.ok());
    messages.insert(expected.message());
    for (const size_t threads : {1, 8}) {
      ThreadPool::SetGlobalThreads(threads);
      const auto scores = emf.Scores(pairs, views);
      ASSERT_FALSE(scores.ok());
      EXPECT_EQ(scores.status(), expected) << scores.status().ToString();
    }
    std::reverse(pairs.begin(), pairs.end());
  }
  EXPECT_EQ(messages.size(), 2u) << "both overflow kinds come first once";
}

TEST_F(EmfDedupTest, SameRestrictedMapGivesIdenticalConversion) {
  const Catalog& catalog = System().catalog();
  const std::vector<EncodedPlan> encoded = Encode({
      MustParse("SELECT c_nationkey FROM customer WHERE c_acctbal > 10",
                catalog),
      MustParse("SELECT o_orderkey FROM orders WHERE o_totalprice > 3",
                catalog),
      MustParse("SELECT l_orderkey FROM lineitem", catalog),
      MustParse("SELECT c_custkey FROM customer", catalog),
  });
  const EncodingLayout& instance = System().instance_layout();
  const EncodingLayout& agnostic = System().agnostic_layout();
  auto convert_first = [&](size_t partner) {
    const auto converter = AgnosticConverter::Create(
        &instance, &agnostic, {&encoded[0], &encoded[partner]});
    GEQO_CHECK_OK(converter.status());
    return converter->Convert(encoded[0]);
  };
  auto union_mask = [&](size_t partner) {
    ReferenceMask mask = ReferenceMask::Of(instance, encoded[0]);
    mask.Union(ReferenceMask::Of(instance, encoded[partner]));
    return mask;
  };
  auto same_bytes = [](const EncodedPlan& x, const EncodedPlan& y) {
    return x.nodes.rows() == y.nodes.rows() && x.nodes.cols() == y.nodes.cols() &&
           std::memcmp(x.nodes.Row(0), y.nodes.Row(0),
                       x.nodes.size() * sizeof(float)) == 0 &&
           x.left == y.left && x.right == y.right;
  };
  // Partners 1 (orders) and 2 (lineitem) give different union masks, but
  // customer stays the first table and c_acctbal, c_nationkey its first two
  // columns: the same restricted map, hence the same bytes.
  EXPECT_NE(union_mask(1).tables, union_mask(2).tables);
  EXPECT_TRUE(same_bytes(convert_first(1), convert_first(2)));
  // Partner 3 adds c_custkey between them, moving c_nationkey's slot.
  EXPECT_FALSE(same_bytes(convert_first(1), convert_first(3)));
}

}  // namespace
}  // namespace geqo
