#include "models.hpp"

#include <utility>

#include "engine/pipeline.hpp"
#include "maddness/quantize.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace ssma;

WorkloadData make_data(const ModelShape& shape, std::uint64_t seed) {
  Rng rng(seed);
  WorkloadData d;
  d.cfg.ncodebooks = shape.ncodebooks;
  const std::size_t dims = static_cast<std::size_t>(d.cfg.total_dims());
  d.calib = Matrix(shape.calib_rows, dims);
  for (std::size_t i = 0; i < d.calib.size(); ++i)
    d.calib.data()[i] = static_cast<float>(rng.next_double(0, 220));
  std::size_t in = dims;
  for (const int nout : shape.stage_nout) {
    Matrix w(in, static_cast<std::size_t>(nout));
    for (std::size_t i = 0; i < w.size(); ++i)
      w.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
    d.weights.push_back(std::move(w));
    in = static_cast<std::size_t>(nout);
  }
  d.fresh = Matrix(shape.pool_rows, dims);
  for (std::size_t i = 0; i < d.fresh.size(); ++i)
    d.fresh.data()[i] = static_cast<float>(rng.next_double(0, 220));
  return d;
}

std::vector<maddness::Amm> train_stages(const WorkloadData& data) {
  std::vector<maddness::Amm> stages;
  Matrix current, next;
  const Matrix* input = &data.calib;
  for (std::size_t s = 0; s < data.weights.size(); ++s) {
    const bool last = s + 1 == data.weights.size();
    stages.push_back(engine::train_chained_stage(
        data.cfg, *input, data.weights[s], last ? nullptr : &next));
    if (!last) {
      current = std::move(next);
      next = Matrix();
      input = &current;
    }
  }
  return stages;
}

std::vector<const maddness::Amm*> stage_ptrs(
    const std::vector<maddness::Amm>& stages) {
  std::vector<const maddness::Amm*> ptrs;
  for (const maddness::Amm& amm : stages) ptrs.push_back(&amm);
  return ptrs;
}

maddness::QuantizedActivations quantize_pool(const WorkloadData& data,
                                             const maddness::Amm& stage0) {
  return maddness::quantize_activations(data.fresh,
                                        stage0.activation_scale());
}

maddness::QuantizedActivations slice_rows(
    const maddness::QuantizedActivations& pool, std::size_t row,
    std::size_t n) {
  maddness::QuantizedActivations q;
  q.rows = n;
  q.cols = pool.cols;
  q.scale = pool.scale;
  q.codes.assign(pool.row(row), pool.row(row) + n * pool.cols);
  return q;
}

}  // namespace perfbench
