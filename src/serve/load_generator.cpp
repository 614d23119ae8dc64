#include "serve/load_generator.hpp"

#include <atomic>
#include <sstream>
#include <thread>

#include "util/check.hpp"

namespace ssma::serve {

std::string LoadReport::json() const {
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(3);
  oss << "{\"completed\":" << completed << ",\"tokens\":" << tokens
      << ",\"wall_seconds\":" << wall_seconds
      << ",\"achieved_rps\":" << achieved_rps
      << ",\"tokens_per_sec\":" << tokens_per_sec
      << ",\"p50_ms\":" << p50_ms << ",\"p95_ms\":" << p95_ms
      << ",\"p99_ms\":" << p99_ms << ",\"mean_ms\":" << mean_ms
      << ",\"max_ms\":" << max_ms << "}";
  return oss.str();
}

LoadGenerator::LoadGenerator(const maddness::QuantizedActivations& pool,
                             const LoadSpec& spec)
    : pool_(pool), spec_(spec) {
  SSMA_CHECK(pool.rows >= 1);
  SSMA_CHECK(spec.total_requests >= 1);
  SSMA_CHECK(spec.rows_per_request >= 1);
  SSMA_CHECK_MSG(!spec.model_refs.empty(), "LoadSpec needs a model ref");
}

std::size_t LoadGenerator::first_row(std::uint64_t id) const {
  return static_cast<std::size_t>(id * spec_.rows_per_request) %
         pool_.rows;
}

const std::string& LoadGenerator::model_ref(std::uint64_t id) const {
  return spec_.model_refs[static_cast<std::size_t>(
      id % spec_.model_refs.size())];
}

std::vector<std::uint8_t> LoadGenerator::request_codes(
    std::uint64_t id) const {
  std::vector<std::uint8_t> codes;
  codes.reserve(spec_.rows_per_request * pool_.cols);
  std::size_t row = first_row(id);
  for (std::size_t r = 0; r < spec_.rows_per_request; ++r) {
    codes.insert(codes.end(), pool_.row(row), pool_.row(row) + pool_.cols);
    row = (row + 1) % pool_.rows;
  }
  return codes;
}

LoadReport LoadGenerator::run_closed_loop(InferenceServer& server,
                                          int concurrency) {
  SSMA_CHECK(concurrency >= 1);
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::vector<LatencyHistogram> per_client(
      static_cast<std::size_t>(concurrency));

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(concurrency));
  for (int c = 0; c < concurrency; ++c) {
    clients.emplace_back([&, c] {
      for (;;) {
        const std::uint64_t id =
            next.fetch_add(1, std::memory_order_relaxed);
        if (id >= spec_.total_requests) break;
        const Clock::time_point t0 = Clock::now();
        try {
          std::future<InferenceResult> fut = server.submit(
              model_ref(id), request_codes(id), spec_.rows_per_request);
          const InferenceResult res = fut.get();
          per_client[static_cast<std::size_t>(c)].add(
              std::chrono::duration<double, std::nano>(res.completed_at -
                                                       t0)
                  .count());
          completed.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
          // Server shut down under us: stop this client, don't abort
          // the process from an uncaught thread exception.
          break;
        }
      }
    });
  }
  for (std::thread& th : clients) th.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  LatencyHistogram latency;
  for (const LatencyHistogram& h : per_client) latency.merge(h);
  LoadReport r;
  r.completed = completed.load();
  r.tokens = r.completed * spec_.rows_per_request;
  r.wall_seconds = wall;
  if (wall > 0.0) {
    r.achieved_rps = static_cast<double>(r.completed) / wall;
    r.tokens_per_sec = static_cast<double>(r.tokens) / wall;
  }
  r.p50_ms = latency.percentile_ns(50) * 1e-6;
  r.p95_ms = latency.percentile_ns(95) * 1e-6;
  r.p99_ms = latency.percentile_ns(99) * 1e-6;
  r.mean_ms = latency.mean_ns() * 1e-6;
  r.max_ms = latency.max_ns() * 1e-6;
  return r;
}

}  // namespace ssma::serve
