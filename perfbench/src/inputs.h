#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/geqo_system.h"
#include "exec/database.h"

/// \file inputs.h
/// Deterministic benchmark inputs. Everything a workload feeds the library
/// is generated here from the workload seed alone (the same seed yields
/// byte-identical plans, see InputFingerprint); the EMF is trained from a
/// fixed seed that no workload seed changes, so every run pays the same
/// set-up cost and serves with the same model.

namespace perfbench {

/// Training seed of the EMF; deliberately independent of --seed.
inline constexpr uint64_t kTrainSeed = 0xBE9C;
/// Global pool size while training. Nothing else runs during set-up, so
/// every workload trains the same model at the same cost.
inline constexpr size_t kTrainThreads = 4;

/// \brief A GeqoSystem trained on the synthetic TPC-H workload.
struct TrainedSystem {
  std::unique_ptr<geqo::Catalog> catalog;
  std::unique_ptr<geqo::GeqoSystem> system;
  double train_seconds = 0.0;
};

/// Builds the TPC-H catalog and trains the EMF with
/// GeqoSystem::TrainOnSyntheticWorkload(kTrainSeed) on a kTrainThreads pool
/// (the pool keeps that size until the caller resizes it). The training
/// corpus uses the narrow profile of the detect and reuse inputs. Freed
/// heap pages go back to the OS first, so repeated set-ups in one process
/// start from the same resident size.
TrainedSystem TrainSystem();

/// \brief `detect`: n subexpressions, the last `planted.size()` of which are
/// rewrites of the first ones.
struct DetectInputs {
  std::vector<geqo::PlanPtr> subexpressions;
  std::vector<std::pair<size_t, size_t>> planted;  ///< (i, j), i < j
  size_t TotalPairs() const {
    return subexpressions.size() * (subexpressions.size() - 1) / 2;
  }
};
DetectInputs MakeDetectInputs(const geqo::Catalog& catalog, size_t n,
                              size_t num_planted, uint64_t seed);

/// \brief `reuse`: recurring query classes over a generated database.
///
/// texts[k] for k < num_classes * (1 + variants_per_class) is class
/// k / (1 + variants_per_class); the first text of each class is its base
/// (added to the catalog during set-up), the others are rewritten variants
/// the catalog has never seen. Texts past that range are one-off queries.
/// `arrivals` indexes texts: class picks are Zipf-skewed, and 0.1% of
/// arrivals pick the next one-off query instead (each one-off's ProbeAdd
/// grows the catalog, so a larger share would make the load heavier the
/// further a run gets). Every text joins at most two tables (see
/// MakeReuseInputs).
///
/// The classes, their popularity order, the database and the first
/// `num_fixture_arrivals` arrivals (served during set-up) are a fixture
/// that no seed changes, like the EMF's training set; the seed draws the
/// one-off queries and the rest of the stream. Both choices keep the
/// throughput from depending on the seed more than on the program:
/// the online cache admits classes in the order their reuse shows, and
/// its residents then rarely change, so the early arrivals fix the hit
/// ratio. With a seeded population, throughput over five seeds spread by
/// 0.13-0.32 of its median (interquartile range; 300 or 1000 classes);
/// with a seeded warm-up, one seed in five settled at a hit ratio of 0.84
/// against 0.87-0.89 and ran 20% slower.
struct ReuseInputs {
  size_t num_classes = 0;
  size_t variants_per_class = 0;
  std::vector<geqo::PlanPtr> texts;
  std::vector<uint32_t> arrivals;
  geqo::DataGenOptions data;

  size_t TextsPerClass() const { return 1 + variants_per_class; }
  size_t NumClassTexts() const { return num_classes * TextsPerClass(); }
  /// The class of text \p t, or num_classes for a one-off query.
  size_t ClassOfText(size_t t) const {
    return t < NumClassTexts() ? t / TextsPerClass() : num_classes;
  }
};
ReuseInputs MakeReuseInputs(const geqo::Catalog& catalog, size_t num_classes,
                            size_t variants_per_class, size_t num_one_off,
                            size_t num_arrivals, size_t num_fixture_arrivals,
                            uint64_t seed);

/// \brief `ingest`: a warm-up set, an add stream with planted rewrites of
/// earlier entries, and a probe set, drawn from the whole TPC-H schema.
struct IngestInputs {
  std::vector<geqo::PlanPtr> warm;    ///< added during set-up
  std::vector<geqo::PlanPtr> stream;  ///< ProbeAdd'ed by the writer
  /// (index into warm ++ stream of the source, index of the rewrite), both
  /// in the concatenated add order; the rewrite always comes later.
  std::vector<std::pair<size_t, size_t>> planted;
  std::vector<geqo::PlanPtr> probes;  ///< issued by the open-loop prober
};
IngestInputs MakeIngestInputs(const geqo::Catalog& catalog, size_t num_warm,
                              size_t num_stream, double planted_share,
                              size_t num_probes, uint64_t seed);

/// Canonical text of a plan list (PlanNode::ToString, one plan per block),
/// used to prove that a seed regenerates byte-identical inputs.
std::string InputFingerprint(const std::vector<geqo::PlanPtr>& plans);

}  // namespace perfbench
