#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "ann/hnsw.h"
#include "common/aligned.h"
#include "tensor/tensor.h"

namespace geqo::ann {
namespace {

std::vector<std::vector<float>> RandomPoints(size_t n, size_t dim, Rng* rng) {
  std::vector<std::vector<float>> points(n, std::vector<float>(dim));
  for (auto& point : points) {
    for (float& v : point) v = static_cast<float>(rng->NextGaussian());
  }
  return points;
}

TEST(HnswTest, EmptyIndexReturnsNothing) {
  HnswIndex index(4);
  const float query[4] = {0, 0, 0, 0};
  EXPECT_TRUE(index.SearchKnn(query, 3).empty());
  EXPECT_TRUE(index.SearchRadius(query, 1.0f).empty());
}

TEST(HnswTest, SingleElement) {
  HnswIndex index(2);
  index.Add(std::vector<float>{1.0f, 2.0f});
  const float query[2] = {1.0f, 2.0f};
  const auto hits = index.SearchKnn(query, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 0u);
  EXPECT_FLOAT_EQ(hits[0].distance, 0.0f);
}

TEST(HnswTest, FindsExactNearestOnSmallSet) {
  Rng rng(21);
  HnswIndex index(8);
  const auto points = RandomPoints(200, 8, &rng);
  for (const auto& point : points) index.Add(point);

  // For every indexed point, querying it must return itself first.
  for (size_t i = 0; i < points.size(); i += 17) {
    const auto hits = index.SearchKnn(points[i].data(), 1);
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(hits[0].id, i);
  }
}

TEST(HnswTest, KnnResultsSortedByDistance) {
  Rng rng(22);
  HnswIndex index(4);
  for (const auto& point : RandomPoints(300, 4, &rng)) index.Add(point);
  const float query[4] = {0.1f, -0.2f, 0.3f, 0.0f};
  const auto hits = index.SearchKnn(query, 10);
  ASSERT_EQ(hits.size(), 10u);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i - 1].distance, hits[i].distance);
  }
}

TEST(HnswTest, RadiusSearchRespectsRadius) {
  Rng rng(23);
  HnswIndex index(4);
  for (const auto& point : RandomPoints(400, 4, &rng)) index.Add(point);
  const float query[4] = {0, 0, 0, 0};
  const float radius = 1.5f;
  for (const Neighbor& hit : index.SearchRadius(query, radius)) {
    EXPECT_LE(hit.distance, radius);
  }
}

TEST(HnswTest, RecallAgainstExactSearch) {
  Rng rng(24);
  HnswOptions options;
  options.ef_search = 128;
  HnswIndex index(8, options);
  const auto points = RandomPoints(500, 8, &rng);
  for (const auto& point : points) index.Add(point);

  size_t found = 0;
  size_t expected = 0;
  for (size_t q = 0; q < 50; ++q) {
    const float* query = points[q * 7].data();
    const auto exact = index.ExactRadius(query, 2.0f);
    const auto approx = index.SearchRadius(query, 2.0f, 128);
    expected += exact.size();
    for (const Neighbor& hit : exact) {
      for (const Neighbor& candidate : approx) {
        if (candidate.id == hit.id) {
          ++found;
          break;
        }
      }
    }
  }
  ASSERT_GT(expected, 0u);
  const double recall =
      static_cast<double>(found) / static_cast<double>(expected);
  EXPECT_GT(recall, 0.9) << "HNSW radius recall too low: " << recall;
}

TEST(HnswTest, ClustersStayTogether) {
  // Two well separated clusters: radius search within a cluster must never
  // return members of the other.
  Rng rng(25);
  HnswIndex index(2);
  for (size_t i = 0; i < 100; ++i) {
    const float offset = i < 50 ? 0.0f : 100.0f;
    index.Add(std::vector<float>{
        offset + static_cast<float>(rng.NextGaussian()) * 0.1f,
        offset + static_cast<float>(rng.NextGaussian()) * 0.1f});
  }
  const float query[2] = {0.0f, 0.0f};
  for (const Neighbor& hit : index.SearchRadius(query, 5.0f, 128)) {
    EXPECT_LT(hit.id, 50u);
  }
}

TEST(HnswTest, DeterministicForSeed) {
  Rng rng(26);
  const auto points = RandomPoints(100, 4, &rng);
  HnswOptions options;
  options.seed = 777;
  HnswIndex index1(4, options);
  HnswIndex index2(4, options);
  for (const auto& point : points) {
    index1.Add(point);
    index2.Add(point);
  }
  const auto hits1 = index1.SearchKnn(points[3].data(), 5);
  const auto hits2 = index2.SearchKnn(points[3].data(), 5);
  ASSERT_EQ(hits1.size(), hits2.size());
  for (size_t i = 0; i < hits1.size(); ++i) {
    EXPECT_EQ(hits1[i].id, hits2[i].id);
  }
}

TEST(HnswTest, DuplicatePointsRankDeterministically) {
  // Equal-distance neighbors tie-break by id, so duplicates come back in
  // insertion order regardless of graph wiring.
  HnswIndex index(2);
  for (size_t i = 0; i < 8; ++i) index.Add(std::vector<float>{1.0f, 1.0f});
  const float query[2] = {1.0f, 1.0f};
  const auto hits = index.SearchKnn(query, 8);
  ASSERT_EQ(hits.size(), 8u);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].id, i);
    EXPECT_FLOAT_EQ(hits[i].distance, 0.0f);
  }
}

TEST(HnswTest, SerializeRoundTripPreservesSearches) {
  Rng rng(27);
  HnswOptions options;
  options.seed = 4242;
  HnswIndex index(6, options);
  const auto points = RandomPoints(250, 6, &rng);
  for (const auto& point : points) index.Add(point);

  std::stringstream buffer;
  ASSERT_TRUE(index.Serialize(buffer).ok());
  auto loaded = HnswIndex::Deserialize(buffer.str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ((*loaded)->size(), index.size());
  EXPECT_EQ((*loaded)->dim(), index.dim());

  for (size_t q = 0; q < points.size(); q += 13) {
    const auto before = index.SearchKnn(points[q].data(), 7);
    const auto after = (*loaded)->SearchKnn(points[q].data(), 7);
    ASSERT_EQ(before.size(), after.size());
    for (size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(before[i].id, after[i].id);
      EXPECT_FLOAT_EQ(before[i].distance, after[i].distance);
    }
    const auto radius_before = index.SearchRadius(points[q].data(), 2.0f);
    const auto radius_after = (*loaded)->SearchRadius(points[q].data(), 2.0f);
    ASSERT_EQ(radius_before.size(), radius_after.size());
    for (size_t i = 0; i < radius_before.size(); ++i) {
      EXPECT_EQ(radius_before[i].id, radius_after[i].id);
    }
  }
}

TEST(HnswTest, AddsAfterLoadMatchUninterruptedIndex) {
  // The snapshot carries the level-assignment RNG state, so growing a
  // restored index must produce bit-identical structure (and therefore
  // searches) to an index that never stopped.
  Rng rng(28);
  const auto points = RandomPoints(300, 4, &rng);
  HnswOptions options;
  options.seed = 99;
  HnswIndex uninterrupted(4, options);
  HnswIndex first_half(4, options);
  for (size_t i = 0; i < points.size(); ++i) {
    uninterrupted.Add(points[i]);
    if (i < points.size() / 2) first_half.Add(points[i]);
  }

  std::stringstream buffer;
  ASSERT_TRUE(first_half.Serialize(buffer).ok());
  auto resumed = HnswIndex::Deserialize(buffer.str());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (size_t i = points.size() / 2; i < points.size(); ++i) {
    (*resumed)->Add(points[i]);
  }

  std::stringstream bytes_uninterrupted;
  std::stringstream bytes_resumed;
  ASSERT_TRUE(uninterrupted.Serialize(bytes_uninterrupted).ok());
  ASSERT_TRUE((*resumed)->Serialize(bytes_resumed).ok());
  EXPECT_EQ(bytes_uninterrupted.str(), bytes_resumed.str());
}

TEST(HnswTest, SerializedEmptyIndexRoundTrips) {
  HnswIndex index(3);
  std::stringstream buffer;
  ASSERT_TRUE(index.Serialize(buffer).ok());
  auto loaded = HnswIndex::Deserialize(buffer.str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->size(), 0u);
  const float query[3] = {0, 0, 0};
  EXPECT_TRUE((*loaded)->SearchKnn(query, 3).empty());
}

TEST(HnswTest, VectorStorageIsKernelAligned) {
  // The SIMD kernels rely on every stored row starting on a 32-byte
  // boundary; rows are padded to a whole number of kernel blocks.
  Rng rng(31);
  for (const size_t dim : {3u, 8u, 13u, 32u}) {
    HnswIndex index(dim);
    for (const auto& point : RandomPoints(17, dim, &rng)) index.Add(point);
    for (size_t id = 0; id < index.size(); ++id) {
      EXPECT_TRUE(IsKernelAligned(index.vector(id)))
          << "dim=" << dim << " id=" << id;
    }
  }
}

TEST(HnswTest, CorruptedHeaderIsRejectedAtLoad) {
  Rng rng(35);
  HnswIndex index(4);
  for (const auto& point : RandomPoints(30, 4, &rng)) index.Add(point);
  std::stringstream buffer;
  ASSERT_TRUE(index.Serialize(buffer).ok());
  const std::string bytes = buffer.str();

  // Header layout: magic, version, dim, M, ef_construction, ef_search, seed,
  // 4 rng words, max level, entry point, count — 14 u64s.
  const size_t header_size = 14 * sizeof(uint64_t);
  ASSERT_GT(bytes.size(), header_size);
  const auto status_of = [](const std::string& blob) {
    const auto loaded = HnswIndex::Deserialize(blob);
    return loaded.ok() ? Status::OK() : loaded.status();
  };

  // A cut anywhere inside the header is a Status naming where it stopped.
  for (size_t cut = 0; cut <= header_size; ++cut) {
    const Status status = status_of(bytes.substr(0, cut));
    ASSERT_FALSE(status.ok()) << "cut at " << cut;
    const std::string text = status.ToString();
    EXPECT_TRUE(text.find("hnsw.magic") != std::string::npos ||
                text.find("hnsw.version") != std::string::npos ||
                text.find("hnsw.truncated") != std::string::npos)
        << "cut at " << cut << ": " << text;
  }

  // Each header field that the decoder checks is named when corrupt.
  const struct {
    size_t word;
    uint64_t value;
    const char* code;
  } cases[] = {
      {1, 2, "hnsw.version"},           // the retired v2 layout
      {1, 4, "hnsw.version"},
      {2, 0, "hnsw.params"},            // dim 0
      {3, 1, "hnsw.params"},            // M below 2
      {11, 65, "hnsw.level"},           // max level past the sanity bound
      {12, 30, "hnsw.entry-point"},     // entry point out of range
  };
  for (const auto& test_case : cases) {
    std::string corrupted = bytes;
    std::memcpy(corrupted.data() + test_case.word * sizeof(uint64_t),
                &test_case.value, sizeof(uint64_t));
    const Status status = status_of(corrupted);
    ASSERT_FALSE(status.ok()) << "word " << test_case.word;
    EXPECT_NE(status.ToString().find(test_case.code), std::string::npos)
        << status.ToString();
  }
}

TEST(HnswTest, DeserializeRejectsGarbageAndTruncation) {
  // Not an index blob at all.
  std::stringstream garbage("this is not an hnsw index");
  EXPECT_FALSE(HnswIndex::Deserialize(garbage.str()).ok());

  // A valid blob cut short must fail loudly, not fabricate nodes.
  Rng rng(29);
  HnswIndex index(4);
  for (const auto& point : RandomPoints(50, 4, &rng)) index.Add(point);
  std::stringstream buffer;
  ASSERT_TRUE(index.Serialize(buffer).ok());
  const std::string bytes = buffer.str();
  for (const double fraction : {0.25, 0.5, 0.9}) {
    std::stringstream truncated(
        bytes.substr(0, static_cast<size_t>(bytes.size() * fraction)));
    EXPECT_FALSE(HnswIndex::Deserialize(truncated.str()).ok())
        << "fraction " << fraction;
  }
}

}  // namespace
}  // namespace geqo::ann
