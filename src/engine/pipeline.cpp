#include "engine/pipeline.hpp"

#include <utility>

#include "nn/maddness_network.hpp"
#include "util/check.hpp"

namespace ssma::engine {

maddness::QuantizedActivations stage_handoff(
    const maddness::Amm& prev, const maddness::Amm& next,
    const std::vector<std::int16_t>& acc, std::size_t rows) {
  SSMA_CHECK_MSG(static_cast<std::size_t>(next.cfg().total_dims()) ==
                     static_cast<std::size_t>(prev.lut().nout),
                 "stage handoff shape mismatch");
  const Matrix y = prev.dequantize_result(acc, rows);
  // Requantization saturates at [0, 255], which is exactly ReLU +
  // clip on the dequantized values — the inter-layer convention of the
  // uint8 activation pipeline.
  return maddness::quantize_activations(y, next.activation_scale());
}

std::vector<std::int16_t> pipeline_reference_apply(
    const ModelHandle& model, const maddness::QuantizedActivations& q) {
  std::vector<std::int16_t> acc = model.stage(0).apply_int16(q);
  for (std::size_t s = 1; s < model.num_stages(); ++s) {
    const maddness::QuantizedActivations qs =
        stage_handoff(model.stage(s - 1), model.stage(s), acc, q.rows);
    acc = model.stage(s).apply_int16(qs);
  }
  return acc;
}

maddness::Amm train_chained_stage(const maddness::Config& cfg,
                                  const Matrix& prev_output,
                                  const Matrix& weights,
                                  Matrix* next_input) {
  maddness::Amm amm = maddness::Amm::train(cfg, prev_output, weights);
  if (next_input) {
    // Error-aware chaining: the next stage calibrates on this stage's
    // *approximate* rectified output — the distribution it will see at
    // inference, not the exact-arithmetic one.
    Matrix out = amm.apply(prev_output);
    for (std::size_t i = 0; i < out.size(); ++i)
      if (out.data()[i] < 0.0f) out.data()[i] = 0.0f;
    *next_input = std::move(out);
  }
  return amm;
}

std::vector<std::string> register_segments(
    ModelRegistry& registry, const std::string& prefix,
    const std::vector<const maddness::Amm*>& amms) {
  std::vector<std::string> names;
  std::size_t seg = 0;
  std::size_t i = 0;
  while (i < amms.size()) {
    // Greedy maximal chaining run: extend while the next operator's
    // input width equals this one's output width.
    std::size_t j = i + 1;
    while (j < amms.size() &&
           static_cast<std::size_t>(amms[j]->cfg().total_dims()) ==
               static_cast<std::size_t>(amms[j - 1]->lut().nout))
      ++j;
    std::string name = prefix + ".seg" + std::to_string(seg++);
    if (j - i == 1) {
      registry.register_model(name, *amms[i]);
    } else {
      registry.register_pipeline(
          name, std::vector<const maddness::Amm*>(amms.begin() + i,
                                                  amms.begin() + j));
    }
    names.push_back(std::move(name));
    i = j;
  }
  return names;
}

std::vector<std::string> register_network(ModelRegistry& registry,
                                          const std::string& prefix,
                                          const nn::MaddnessNetwork& net) {
  return register_segments(registry, prefix, net.substituted_amms());
}

}  // namespace ssma::engine
