#include "ann/hnsw.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <ostream>
#include <string>

#include "common/binary_io.h"
#include "common/format_magic.h"
#include "obs/metrics.h"

namespace geqo::ann {
namespace {

constexpr uint64_t kHnswMagic = io::kHnswMagic;        // "GEQOHNSW"
constexpr uint64_t kHnswEndMagic = io::kHnswEndMagic;  // "HNSWEND!"
constexpr uint64_t kHnswVersion = io::kHnswVersion;
/// Sanity bound on the stored max level: level draws are geometric with
/// ratio 1/M, so a real index never comes near it.
constexpr int64_t kMaxHnswLevel = 64;

/// Converts a beam of squared distances into true-distance neighbors and
/// restores the (distance, id) order: distinct squared distances can round
/// to one true distance, which the id tie-break then orders.
std::vector<Neighbor> FinishBeam(std::vector<Neighbor> beam) {
  for (Neighbor& neighbor : beam) {
    neighbor.distance = std::sqrt(neighbor.distance);
  }
  std::sort(beam.begin(), beam.end());
  return beam;
}

}  // namespace

HnswIndex::HnswIndex(size_t dim, HnswOptions options)
    : dim_(dim),
      padded_dim_(AlignedStride(dim, sizeof(float))),
      options_(options),
      level_multiplier_(1.0 /
                        std::log(static_cast<double>(options.max_connections))),
      rng_(options.seed) {
  GEQO_CHECK(dim_ > 0);
  GEQO_CHECK(options_.max_connections >= 2);
}

float HnswIndex::DistanceSq(const SearchContext& ctx, uint32_t id) const {
  if (obs::MetricsEnabled()) {
    pending_distances_.fetch_add(1, std::memory_order_relaxed);
  }
  return ops::SquaredDistance(ctx.query, vector(id), dim_);
}

float HnswIndex::StoredDistanceSq(uint32_t a, uint32_t b) const {
  if (obs::MetricsEnabled()) {
    pending_distances_.fetch_add(1, std::memory_order_relaxed);
  }
  return ops::SquaredDistance(vector(a), vector(b), dim_);
}

void HnswIndex::FoldMetrics() const {
  if (!obs::MetricsEnabled()) return;
  const uint64_t distances = pending_distances_.exchange(0);
  const uint64_t hops = pending_hops_.exchange(0);
  auto& registry = obs::MetricsRegistry::Global();
  if (distances > 0) {
    registry.GetCounter("hnsw.distance_computations").Add(distances);
  }
  if (hops > 0) registry.GetCounter("hnsw.hops").Add(hops);
}

int HnswIndex::RandomLevel() {
  const double u = std::max(rng_.NextDouble(), 1e-12);
  return static_cast<int>(-std::log(u) * level_multiplier_);
}

size_t HnswIndex::Add(const std::vector<float>& vector) {
  GEQO_CHECK(vector.size() == dim_);
  return Add(vector.data());
}

size_t HnswIndex::Add(const float* vector) {
  const auto id = static_cast<uint32_t>(nodes_.size());
  vectors_.resize(vectors_.size() + padded_dim_, 0.0f);
  float* stored = vectors_.data() + static_cast<size_t>(id) * padded_dim_;
  std::copy(vector, vector + dim_, stored);

  const int level = RandomLevel();
  Node node;
  node.level = level;
  node.neighbors.resize(static_cast<size_t>(level) + 1);
  nodes_.push_back(std::move(node));

  if (id == 0) {
    max_level_ = level;
    entry_point_ = 0;
    return id;
  }

  SearchContext ctx(stored);
  uint32_t entry = entry_point_;
  // Greedy descent through layers above the new node's level.
  for (int layer = max_level_; layer > level; --layer) {
    entry = GreedySearch(ctx, entry, layer);
  }
  // Insert into each layer from min(level, max_level_) down to 0.
  for (int layer = std::min(level, max_level_); layer >= 0; --layer) {
    const std::vector<Neighbor> candidates =
        SearchLayer(ctx, entry, options_.ef_construction, layer);
    const size_t max_links = layer == 0 ? options_.max_connections * 2
                                        : options_.max_connections;
    Connect(id, candidates, layer, max_links);
    if (!candidates.empty()) entry = static_cast<uint32_t>(candidates[0].id);
  }
  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = id;
  }
  FoldMetrics();
  return id;
}

uint32_t HnswIndex::GreedySearch(const SearchContext& ctx, uint32_t entry,
                                 int layer) const {
  uint32_t current = entry;
  float current_distance = DistanceSq(ctx, current);
  bool improved = true;
  while (improved) {
    improved = false;
    if (obs::MetricsEnabled()) {
      pending_hops_.fetch_add(1, std::memory_order_relaxed);
    }
    for (const uint32_t neighbor :
         nodes_[current].neighbors[static_cast<size_t>(layer)]) {
      const float d = DistanceSq(ctx, neighbor);
      if (d < current_distance) {
        current = neighbor;
        current_distance = d;
        improved = true;
      }
    }
  }
  return current;
}

std::vector<Neighbor> HnswIndex::SearchLayer(SearchContext& ctx,
                                             uint32_t entry, size_t ef,
                                             int layer) const {
  // Classic beam search over squared distances: `candidates` is a min-heap
  // of frontier nodes, `best` a max-heap of the ef closest results so far.
  // Both heaps and the visited mask live in the per-search scratch (their
  // capacity survives across layers and the mask is a flat byte array), so
  // the hot probe path performs no per-layer hash or heap allocations. The
  // heap algorithms match what std::priority_queue runs, so the beam —
  // including tie resolution among equal distances — is unchanged.
  const auto further = [](const Neighbor& a, const Neighbor& b) {
    return a.distance < b.distance;  // max-heap by distance
  };
  const auto closer = [](const Neighbor& a, const Neighbor& b) {
    return a.distance > b.distance;  // min-heap by distance
  };
  std::vector<Neighbor>& best = ctx.best_heap;
  std::vector<Neighbor>& candidates = ctx.candidate_heap;
  std::vector<uint8_t>& visited = ctx.visited;
  best.clear();
  candidates.clear();
  visited.assign(nodes_.size(), 0);

  const float entry_distance = DistanceSq(ctx, entry);
  best.push_back(Neighbor{entry, entry_distance});
  candidates.push_back(Neighbor{entry, entry_distance});
  visited[entry] = 1;

  while (!candidates.empty()) {
    const Neighbor current = candidates.front();
    std::pop_heap(candidates.begin(), candidates.end(), closer);
    candidates.pop_back();
    if (best.size() >= ef && current.distance > best.front().distance) break;
    if (obs::MetricsEnabled()) {
      pending_hops_.fetch_add(1, std::memory_order_relaxed);
    }
    for (const uint32_t neighbor :
         nodes_[current.id].neighbors[static_cast<size_t>(layer)]) {
      if (visited[neighbor] != 0) continue;
      visited[neighbor] = 1;
      const float d = DistanceSq(ctx, neighbor);
      if (best.size() < ef || d < best.front().distance) {
        best.push_back(Neighbor{neighbor, d});
        std::push_heap(best.begin(), best.end(), further);
        candidates.push_back(Neighbor{neighbor, d});
        std::push_heap(candidates.begin(), candidates.end(), closer);
        if (best.size() > ef) {
          std::pop_heap(best.begin(), best.end(), further);
          best.pop_back();
        }
      }
    }
  }

  // Closest first; ties broken by id (heap order among equal distances
  // depends on insertion interleaving, so a final sort makes it stable).
  std::vector<Neighbor> out(best.begin(), best.end());
  std::sort(out.begin(), out.end());
  return out;
}

void HnswIndex::Connect(uint32_t id, const std::vector<Neighbor>& candidates,
                        int layer, size_t max_links) {
  auto& my_links = nodes_[id].neighbors[static_cast<size_t>(layer)];
  for (const Neighbor& candidate : candidates) {
    if (my_links.size() >= max_links) break;
    if (candidate.id == id) continue;
    my_links.push_back(static_cast<uint32_t>(candidate.id));
    // Bidirectional link; prune the neighbor's list if it overflows by
    // keeping its max_links closest connections.
    auto& back_links =
        nodes_[candidate.id].neighbors[static_cast<size_t>(layer)];
    back_links.push_back(id);
    if (back_links.size() > max_links) {
      const auto anchor = static_cast<uint32_t>(candidate.id);
      std::sort(back_links.begin(), back_links.end(),
                [&](uint32_t a, uint32_t b) {
                  const float da = StoredDistanceSq(anchor, a);
                  const float db = StoredDistanceSq(anchor, b);
                  if (da != db) return da < db;
                  return a < b;  // deterministic prune among equidistant links
                });
      back_links.resize(max_links);
    }
  }
}

std::vector<Neighbor> HnswIndex::SearchKnn(const float* query, size_t k,
                                           size_t ef) const {
  if (nodes_.empty()) return {};
  if (ef == 0) ef = std::max(options_.ef_search, k);
  SearchContext ctx(query);
  uint32_t entry = entry_point_;
  for (int layer = max_level_; layer > 0; --layer) {
    entry = GreedySearch(ctx, entry, layer);
  }
  std::vector<Neighbor> result =
      FinishBeam(SearchLayer(ctx, entry, ef, /*layer=*/0));
  if (result.size() > k) result.resize(k);
  FoldMetrics();
  return result;
}

std::vector<Neighbor> HnswIndex::SearchRadius(const float* query, float radius,
                                              size_t ef) const {
  if (nodes_.empty()) return {};
  if (ef == 0) ef = options_.ef_search;
  SearchContext ctx(query);
  uint32_t entry = entry_point_;
  for (int layer = max_level_; layer > 0; --layer) {
    entry = GreedySearch(ctx, entry, layer);
  }
  const std::vector<Neighbor> beam =
      FinishBeam(SearchLayer(ctx, entry, ef, /*layer=*/0));
  std::vector<Neighbor> out;
  for (const Neighbor& neighbor : beam) {
    if (neighbor.distance <= radius) out.push_back(neighbor);
  }
  FoldMetrics();
  return out;
}

Status HnswIndex::Serialize(std::ostream& os) const {
  io::BinaryWriter writer(os, "HNSW index");
  writer.U64(kHnswMagic);
  writer.U64(kHnswVersion);
  writer.U64(dim_);
  writer.U64(options_.max_connections);
  writer.U64(options_.ef_construction);
  writer.U64(options_.ef_search);
  writer.U64(options_.seed);
  // The rng's stream position makes post-load Add assign the same levels the
  // uninterrupted index would have.
  for (const uint64_t word : rng_.SaveState()) writer.U64(word);
  writer.I64(max_level_);
  writer.U64(entry_point_);
  writer.U64(nodes_.size());
  for (size_t id = 0; id < nodes_.size(); ++id) {
    writer.Bytes(vector(id), dim_ * sizeof(float));
  }
  for (const Node& node : nodes_) {
    writer.I64(node.level);
    for (const auto& links : node.neighbors) {
      writer.U64(links.size());
      writer.Bytes(links.data(), links.size() * sizeof(uint32_t));
    }
  }
  writer.U64(kHnswEndMagic);
  return writer.status();
}

bool DecodeHnsw(io::ByteReader* reader, HnswImage* out,
                io::DecodeErrors* errors) {
  const size_t magic_offset = reader->offset();
  if (reader->U64() != kHnswMagic || !reader->ok()) {
    return io::Reject(errors, "hnsw.magic", magic_offset,
                      "index section does not start with the GEQOHNSW magic");
  }
  const size_t version_offset = reader->offset();
  const uint64_t version = reader->U64();
  if (!reader->ok() || version != kHnswVersion) {
    return io::Reject(errors, "hnsw.version", version_offset,
                      "unsupported index version " + std::to_string(version));
  }
  const size_t params_offset = reader->offset();
  out->dim = reader->U64();
  HnswOptions& options = out->options;
  options.max_connections = reader->U64();
  options.ef_construction = reader->U64();
  options.ef_search = reader->U64();
  options.seed = reader->U64();
  // The rng's stream position.
  for (uint64_t& word : out->rng_state) word = reader->U64();
  const size_t level_offset = reader->offset();
  out->max_level = reader->I64();
  out->entry_point = reader->U64();
  const size_t count_offset = reader->offset();
  out->count = reader->U64();
  if (!reader->ok()) {
    return io::Reject(errors, "hnsw.truncated", params_offset,
                      "index header is cut off");
  }
  const uint64_t dim = out->dim;
  const uint64_t count = out->count;
  if (dim == 0 || dim > io::kMaxStoredDim || options.max_connections < 2) {
    return io::Reject(errors, "hnsw.params", params_offset,
                      "invalid construction parameters (dim " +
                          std::to_string(dim) + ", M " +
                          std::to_string(options.max_connections) + ")");
  }
  if (out->max_level < -1 || out->max_level > kMaxHnswLevel) {
    return io::Reject(errors, "hnsw.level", level_offset,
                      "implausible max level " +
                          std::to_string(out->max_level));
  }
  if (count == 0 && out->max_level != -1) {
    io::Reject(errors, "hnsw.entry-point", level_offset,
               "empty index declares an entry point");
  }
  if (count > 0 && out->entry_point >= count) {
    io::Reject(errors, "hnsw.entry-point", level_offset,
               "entry point " + std::to_string(out->entry_point) +
                   " is out of range");
  }
  if (!reader->Fits(count, dim * sizeof(float))) {
    return io::Reject(errors, "hnsw.truncated", count_offset,
                      "vector payload is cut off");
  }
  out->vectors = reader->Bytes(count * dim * sizeof(float));
  // Each node takes at least its level and one link count.
  out->nodes.clear();
  if (reader->Fits(count, 2 * sizeof(uint64_t))) out->nodes.reserve(count);
  for (uint64_t id = 0; id < count; ++id) {
    const size_t node_offset = reader->offset();
    const int64_t level = reader->I64();
    if (!reader->ok() || level < 0 || level > out->max_level) {
      return io::Reject(errors, "hnsw.level", node_offset,
                        "node " + std::to_string(id) + " has level " +
                            std::to_string(level) + " outside [0, " +
                            std::to_string(out->max_level) + "]");
    }
    HnswNode node;
    node.level = static_cast<int>(level);
    node.neighbors.resize(static_cast<size_t>(level) + 1);
    for (size_t layer = 0; layer < node.neighbors.size(); ++layer) {
      const size_t links_offset = reader->offset();
      const uint64_t n_links = reader->U64();
      if (!reader->ok() || n_links > count ||
          !reader->Fits(n_links, sizeof(uint32_t))) {
        return io::Reject(errors, "hnsw.link", links_offset,
                          "node " + std::to_string(id) + " layer " +
                              std::to_string(layer) + " declares " +
                              std::to_string(n_links) + " links (index holds " +
                              std::to_string(count) + " nodes)");
      }
      std::vector<uint32_t>& links = node.neighbors[layer];
      links.resize(n_links);
      for (uint32_t& link : links) {
        link = reader->U32();
        if (link >= count) {
          return io::Reject(errors, "hnsw.link", links_offset,
                            "node " + std::to_string(id) +
                                " links to out-of-range id " +
                                std::to_string(link));
        }
      }
    }
    out->nodes.push_back(std::move(node));
  }
  if (count > 0 && out->entry_point < count &&
      out->nodes[out->entry_point].level != out->max_level) {
    io::Reject(errors, "hnsw.entry-point", level_offset,
               "entry point level " +
                   std::to_string(out->nodes[out->entry_point].level) +
                   " does not match the max level " +
                   std::to_string(out->max_level));
  }
  const size_t end_offset = reader->offset();
  if (reader->U64() != kHnswEndMagic || !reader->ok()) {
    return io::Reject(errors, "hnsw.end-magic", end_offset,
                      "index section is missing its end marker");
  }
  return true;
}

std::unique_ptr<HnswIndex> HnswIndex::FromImage(HnswImage image) {
  auto index = std::make_unique<HnswIndex>(image.dim, image.options);
  const size_t dim = index->dim_;
  const size_t count = image.count;
  index->rng_.RestoreState(image.rng_state);
  index->max_level_ = static_cast<int>(image.max_level);
  index->entry_point_ = static_cast<uint32_t>(image.entry_point);
  index->vectors_.assign(count * index->padded_dim_, 0.0f);
  for (size_t id = 0; id < count; ++id) {
    std::memcpy(index->vectors_.data() + id * index->padded_dim_,
                image.vectors.data() + id * dim * sizeof(float),
                dim * sizeof(float));
  }
  index->nodes_ = std::move(image.nodes);
  return index;
}

Result<std::unique_ptr<HnswIndex>> HnswIndex::Deserialize(
    std::string_view bytes) {
  io::ByteReader reader(bytes);
  HnswImage image;
  io::DecodeErrors errors;
  if (DecodeHnsw(&reader, &image, &errors)) {
    reader.ExpectEnd(&errors, "hnsw.trailing", "the end marker");
  }
  GEQO_RETURN_NOT_OK(io::DecodeStatus(errors, "HNSW index"));
  return FromImage(std::move(image));
}

std::vector<Neighbor> HnswIndex::ExactRadius(const float* query,
                                             float radius) const {
  std::vector<Neighbor> out;
  for (size_t id = 0; id < nodes_.size(); ++id) {
    if (obs::MetricsEnabled()) {
      pending_distances_.fetch_add(1, std::memory_order_relaxed);
    }
    const float d = std::sqrt(
        ops::SquaredDistance(query, vector(id), dim_));
    if (d <= radius) out.push_back(Neighbor{id, d});
  }
  std::sort(out.begin(), out.end());
  FoldMetrics();
  return out;
}

}  // namespace geqo::ann
