#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "tensor/tensor.h"

/// \file serialize.h
/// Binary (de)serialization of named tensors ("GEQOMODL"), used to persist
/// the trained EMF model (the paper reports a ~2.3 MB serialized size,
/// §7.1.2) and to swap fine-tuned models in after an SSFL round.

namespace geqo::nn {

/// A named tensor in a model's state (parameters + batch-norm statistics).
using StateEntry = std::pair<std::string, Tensor*>;

/// \brief Writes all \p state tensors to \p path. Format: magic, count, then
/// per tensor (name, rows, cols, float32 row-major data).
Status SaveState(const std::vector<StateEntry>& state, const std::string& path);

/// \brief Stream variant, for embedding a model state section inside a
/// larger snapshot (the section is self-delimiting).
Status SaveState(const std::vector<StateEntry>& state, std::ostream& os);

/// One decoded GEQOMODL tensor; \p data views the decoded bytes
/// (rows * cols float32, row-major).
struct StateImageEntry {
  std::string name;
  uint64_t rows = 0;
  uint64_t cols = 0;
  std::string_view data;
};

/// A decoded GEQOMODL section: the named tensors in file order.
struct StateImage {
  std::vector<StateImageEntry> entries;
};

/// \brief Decodes one GEQOMODL section at \p reader's position — the one
/// decoder of the format, shared by LoadState, GeqoSystem::LoadSnapshot and
/// geqo_lint. Refusals carry model.* codes. Returns false when the walk had
/// to stop early.
bool DecodeState(io::ByteReader* reader, StateImage* out,
                 io::DecodeErrors* errors);

/// \brief Copies a decoded \p image into \p state. Names and shapes must
/// match exactly, entry by entry.
Status BindState(const std::vector<StateEntry>& state, const StateImage& image);

/// \brief Restores \p state tensors from the state file at \p path.
Status LoadState(const std::vector<StateEntry>& state, const std::string& path);

}  // namespace geqo::nn
