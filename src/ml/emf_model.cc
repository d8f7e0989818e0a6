#include "ml/emf_model.h"

#include <cmath>

namespace geqo::ml {

EmfModel::EmfModel(EmfModelOptions options)
    : options_(options),
      rng_(options.seed),
      conv1_(options.input_dim, options.conv1_size, &rng_),
      bn1_(options.conv1_size),
      act1_(options.conv1_size),
      conv2_(options.conv1_size, options.conv2_size, &rng_),
      bn2_(options.conv2_size),
      act2_(options.conv2_size),
      fc1_(options.conv2_size * 3, options.fc1_size, &rng_),
      act3_(options.fc1_size),
      drop1_(options.dropout, &rng_),
      fc2_(options.fc1_size, options.fc2_size, &rng_),
      act4_(options.fc2_size),
      drop2_(options.dropout, &rng_),
      fc3_(options.fc2_size, 1, &rng_) {
  GEQO_CHECK(options.input_dim > 0) << "EmfModelOptions.input_dim is required";
}

Tensor EmfModel::ForwardTrunk(const nn::TreeBatch& batch, bool training) {
  nn::TreeBatch t = conv1_.Forward(batch);
  t.nodes = bn1_.Forward(t.nodes, training);
  t.nodes = act1_.Forward(t.nodes);
  t = conv2_.Forward(t);
  t.nodes = bn2_.Forward(t.nodes, training);
  t.nodes = act2_.Forward(t.nodes);
  return pool_.Forward(t);
}

Tensor EmfModel::InferTrunk(const nn::TreeBatch& batch) const {
  nn::TreeBatch t = conv1_.Infer(batch);
  t.nodes = bn1_.Infer(t.nodes);
  t.nodes = act1_.Infer(t.nodes);
  t = conv2_.Infer(t);
  t.nodes = bn2_.Infer(t.nodes);
  t.nodes = act2_.Infer(t.nodes);
  return nn::DynamicMaxPool::Infer(t);
}

void EmfModel::BackwardTrunk(const Tensor& pooled_grad) {
  nn::TreeBatch grad = pool_.Backward(pooled_grad);
  grad.nodes = act2_.Backward(grad.nodes);
  grad.nodes = bn2_.Backward(grad.nodes);
  grad = conv2_.Backward(grad);
  grad.nodes = act1_.Backward(grad.nodes);
  grad.nodes = bn1_.Backward(grad.nodes);
  conv1_.Backward(grad);  // input gradients are discarded at the leaves
}

Tensor EmfModel::Forward(const std::vector<const EncodedPlan*>& lhs,
                         const std::vector<const EncodedPlan*>& rhs,
                         bool training) {
  GEQO_CHECK(lhs.size() == rhs.size() && !lhs.empty());
  const size_t n = lhs.size();
  last_pair_count_ = n;

  // Both sides share convolution weights: run them as one combined batch
  // [lhs trees..., rhs trees...] so layer caches stay consistent for the
  // backward pass.
  std::vector<const EncodedPlan*> combined;
  combined.reserve(2 * n);
  combined.insert(combined.end(), lhs.begin(), lhs.end());
  combined.insert(combined.end(), rhs.begin(), rhs.end());
  const nn::TreeBatch batch = BuildTreeBatch(combined);

  const Tensor pooled = ForwardTrunk(batch, training);  // [2n, h]
  const Tensor lhs_embedding = pooled.Slice(0, n);
  const Tensor rhs_embedding = pooled.Slice(n, 2 * n);
  // Head input: [e_a | e_b | |e_a - e_b|].
  const size_t h = options_.conv2_size;
  Tensor abs_diff(n, h);
  cached_diff_sign_ = Tensor(n, h);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < h; ++c) {
      const float d = lhs_embedding.At(i, c) - rhs_embedding.At(i, c);
      abs_diff.At(i, c) = std::fabs(d);
      cached_diff_sign_.At(i, c) = d > 0.0f ? 1.0f : (d < 0.0f ? -1.0f : 0.0f);
    }
  }
  const Tensor concat = ops::ConcatColumns(
      ops::ConcatColumns(lhs_embedding, rhs_embedding), abs_diff);

  Tensor x = fc1_.Forward(concat);
  x = act3_.Forward(x);
  x = drop1_.Forward(x, training);
  x = fc2_.Forward(x);
  x = act4_.Forward(x);
  x = drop2_.Forward(x, training);
  return fc3_.Forward(x);
}

float EmfModel::TrainStep(const std::vector<const EncodedPlan*>& lhs,
                          const std::vector<const EncodedPlan*>& rhs,
                          const Tensor& labels, nn::Adam* optimizer) {
  optimizer->ZeroGrad();
  const Tensor logits = Forward(lhs, rhs, /*training=*/true);
  const float loss = nn::BceWithLogitsLoss(logits, labels);

  // Backward through the classifier head.
  Tensor grad = nn::BceWithLogitsGrad(logits, labels);
  grad = fc3_.Backward(grad);
  grad = drop2_.Backward(grad);
  grad = act4_.Backward(grad);
  grad = fc2_.Backward(grad);
  grad = drop1_.Backward(grad);
  grad = act3_.Backward(grad);
  grad = fc1_.Backward(grad);  // [n, 2h]

  // Split the concatenation gradient back into the combined pooled layout:
  // d e_a = g[0:h] + sign(e_a - e_b) * g[2h:3h], d e_b = g[h:2h] - same.
  const size_t n = last_pair_count_;
  const size_t h = options_.conv2_size;
  Tensor pooled_grad(2 * n, h);
  for (size_t i = 0; i < n; ++i) {
    const float* row = grad.Row(i);
    float* lhs_grad = pooled_grad.Row(i);
    float* rhs_grad = pooled_grad.Row(n + i);
    for (size_t c = 0; c < h; ++c) {
      const float diff_grad = row[2 * h + c] * cached_diff_sign_.At(i, c);
      lhs_grad[c] = row[c] + diff_grad;
      rhs_grad[c] = row[h + c] - diff_grad;
    }
  }
  BackwardTrunk(pooled_grad);
  optimizer->Step();
  return loss;
}

Tensor EmfModel::InferLogits(const std::vector<const EncodedPlan*>& lhs,
                             const std::vector<const EncodedPlan*>& rhs) const {
  GEQO_CHECK(lhs.size() == rhs.size() && !lhs.empty());
  const size_t n = lhs.size();
  std::vector<const EncodedPlan*> combined;
  combined.reserve(2 * n);
  combined.insert(combined.end(), lhs.begin(), lhs.end());
  combined.insert(combined.end(), rhs.begin(), rhs.end());
  const Tensor pooled = Embed(combined);  // [2n, h]
  return InferHead(pooled.Slice(0, n), pooled.Slice(n, 2 * n));
}

Tensor EmfModel::InferHead(const Tensor& lhs_embedding,
                           const Tensor& rhs_embedding) const {
  const size_t n = lhs_embedding.rows();
  const size_t h = options_.conv2_size;
  GEQO_CHECK(n > 0 && rhs_embedding.rows() == n &&
             lhs_embedding.cols() == h && rhs_embedding.cols() == h);
  // Head input: [e_a | e_b | |e_a - e_b|], as in Forward.
  Tensor abs_diff(n, h);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < h; ++c) {
      abs_diff.At(i, c) =
          std::fabs(lhs_embedding.At(i, c) - rhs_embedding.At(i, c));
    }
  }
  const Tensor concat = ops::ConcatColumns(
      ops::ConcatColumns(lhs_embedding, rhs_embedding), abs_diff);

  Tensor x = fc1_.Infer(concat);
  x = act3_.Infer(x);
  x = fc2_.Infer(x);  // dropout is the identity at inference
  x = act4_.Infer(x);
  return fc3_.Infer(x);
}

Tensor EmfModel::PredictProba(const std::vector<const EncodedPlan*>& lhs,
                              const std::vector<const EncodedPlan*>& rhs) const {
  return nn::Sigmoid(InferLogits(lhs, rhs));
}

Tensor EmfModel::Embed(const std::vector<const EncodedPlan*>& plans) const {
  GEQO_CHECK(!plans.empty());
  const nn::TreeBatch batch = BuildTreeBatch(plans);
  return InferTrunk(batch);
}

std::vector<nn::ParamRef> EmfModel::Params() {
  std::vector<nn::ParamRef> params;
  conv1_.CollectParams("conv1", &params);
  bn1_.CollectParams("bn1", &params);
  act1_.CollectParams("act1", &params);
  conv2_.CollectParams("conv2", &params);
  bn2_.CollectParams("bn2", &params);
  act2_.CollectParams("act2", &params);
  fc1_.CollectParams("fc1", &params);
  act3_.CollectParams("act3", &params);
  fc2_.CollectParams("fc2", &params);
  act4_.CollectParams("act4", &params);
  fc3_.CollectParams("fc3", &params);
  return params;
}

std::vector<nn::StateEntry> EmfModel::State() {
  std::vector<nn::StateEntry> state;
  for (const nn::ParamRef& param : Params()) {
    state.emplace_back(param.name, param.value);
  }
  state.emplace_back("bn1.running_mean", &bn1_.running_mean());
  state.emplace_back("bn1.running_var", &bn1_.running_var());
  state.emplace_back("bn2.running_mean", &bn2_.running_mean());
  state.emplace_back("bn2.running_var", &bn2_.running_var());
  return state;
}

size_t EmfModel::NumParameters() {
  size_t total = 0;
  for (const nn::ParamRef& param : Params()) total += param.value->size();
  return total;
}

}  // namespace geqo::ml
