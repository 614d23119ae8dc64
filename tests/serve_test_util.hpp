// Shared helpers for the serving/recovery test suites: a small trained
// operator + request pool, a self-cleaning temp directory, and the
// deterministic-seed plumbing (every randomized test derives its
// randomness — load generation AND fault injection — from one seed
// that is printed into the failure log, so any flake reproduces with
// SSMA_TEST_SEED=<value>).
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/model_registry.hpp"
#include "maddness/amm.hpp"
#include "serve/request_queue.hpp"
#include "util/rng.hpp"

namespace ssma::serve {

/// One seed per test binary run: SSMA_TEST_SEED env override, else a
/// fixed default. Tests wrap their bodies in SCOPED_TRACE(seed_trace())
/// so the reproduction command lands in every failure message.
inline std::uint64_t test_seed() {
  if (const char* env = std::getenv("SSMA_TEST_SEED"))
    return std::strtoull(env, nullptr, 0);
  return 0x5eedfa57u;
}

inline std::string seed_trace(std::uint64_t seed) {
  std::ostringstream oss;
  oss << "reproduce with: SSMA_TEST_SEED=" << seed;
  return oss.str();
}

/// A small trained operator + a quantized request pool.
struct ServeFixture {
  maddness::Amm amm;
  maddness::QuantizedActivations pool;

  static ServeFixture make(int ncodebooks = 4, int nout = 8,
                           std::size_t pool_rows = 256,
                           std::uint64_t seed = 7) {
    Rng rng(seed);
    const std::size_t d = static_cast<std::size_t>(ncodebooks) * 9;
    Matrix train(512, d);
    for (std::size_t i = 0; i < train.size(); ++i)
      train.data()[i] = static_cast<float>(rng.next_double(0, 220));
    Matrix w(d, static_cast<std::size_t>(nout));
    for (std::size_t i = 0; i < w.size(); ++i)
      w.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));

    maddness::Config cfg;
    cfg.ncodebooks = ncodebooks;
    ServeFixture f{maddness::Amm::train(cfg, train, w), {}};

    Matrix fresh(pool_rows, d);
    for (std::size_t i = 0; i < fresh.size(); ++i)
      fresh.data()[i] = static_cast<float>(rng.next_double(0, 220));
    f.pool =
        maddness::quantize_activations(fresh, f.amm.activation_scale());
    return f;
  }

  /// Payload of the canonical request `id`: one pool row, wrapping.
  std::vector<std::uint8_t> codes_for(std::size_t id) const {
    const std::size_t r = id % pool.rows;
    return std::vector<std::uint8_t>(pool.row(r), pool.row(r) + pool.cols);
  }

  /// Reference outputs for an arbitrary codes payload — the fault-free
  /// single-threaded ground truth every served result must match.
  std::vector<std::int16_t> expected_for(
      const std::vector<std::uint8_t>& codes, std::size_t rows) const {
    maddness::QuantizedActivations q;
    q.rows = rows;
    q.cols = pool.cols;
    q.scale = pool.scale;
    q.codes = codes;
    return amm.apply_int16(q);
  }

  /// Reference outputs for a row slice of the pool (with wraparound).
  std::vector<std::int16_t> expected(std::size_t first_row,
                                     std::size_t rows) const {
    maddness::QuantizedActivations q;
    q.rows = rows;
    q.cols = pool.cols;
    q.scale = pool.scale;
    std::size_t r = first_row;
    for (std::size_t i = 0; i < rows; ++i) {
      q.codes.insert(q.codes.end(), pool.row(r), pool.row(r) + pool.cols);
      r = (r + 1) % pool.rows;
    }
    return amm.apply_int16(q);
  }
};

/// A registry holding `amm` as the "default" model, version 1: the
/// single-model layout of v1 checkpoints and model-less journal records.
inline std::shared_ptr<engine::ModelRegistry> default_registry(
    const maddness::Amm& amm) {
  auto registry = std::make_shared<engine::ModelRegistry>();
  registry->register_model(engine::ModelRegistry::kDefaultModel, amm);
  return registry;
}

/// Pushes one request as a group of one, waiting for room when
/// `blocking`. True when it was queued; `req` is left untouched
/// otherwise.
inline bool push_one(RequestQueue& q, InferenceRequest&& req,
                     bool blocking = true) {
  std::vector<InferenceRequest> one;
  one.push_back(std::move(req));
  if (q.push_group(one, blocking) == 1) return true;
  req = std::move(one.front());
  return false;
}

/// Unique per-test scratch directory, removed on scope exit.
class TmpDir {
 public:
  explicit TmpDir(const std::string& tag) {
    static int counter = 0;
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::ostringstream oss;
    oss << "ssma-" << tag << "-" << (info ? info->name() : "x") << "-"
        << ::getpid() << "-" << counter++;
    path_ = std::filesystem::temp_directory_path() / oss.str();
    std::filesystem::create_directories(path_);
  }
  ~TmpDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace ssma::serve
