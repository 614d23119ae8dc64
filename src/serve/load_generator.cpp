#include "serve/load_generator.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace ssma::serve {

namespace {

LoadReport finish_report(const LoadSpec& spec, std::size_t completed,
                         double wall_seconds,
                         const LatencyHistogram& latency) {
  LoadReport r;
  r.seed = spec.seed;
  r.completed = completed;
  r.tokens = completed * spec.rows_per_request;
  r.wall_seconds = wall_seconds;
  if (wall_seconds > 0.0) {
    r.achieved_rps = static_cast<double>(completed) / wall_seconds;
    r.tokens_per_sec = static_cast<double>(r.tokens) / wall_seconds;
  }
  r.p50_ms = latency.percentile_ns(50) * 1e-6;
  r.p95_ms = latency.percentile_ns(95) * 1e-6;
  r.p99_ms = latency.percentile_ns(99) * 1e-6;
  r.mean_ms = latency.mean_ns() * 1e-6;
  r.max_ms = latency.max_ns() * 1e-6;
  return r;
}

}  // namespace

std::string LoadReport::json() const {
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(3);
  oss << "{\"seed\":" << seed << ",\"completed\":" << completed
      << ",\"tokens\":" << tokens
      << ",\"wall_seconds\":" << wall_seconds
      << ",\"offered_rps\":";
  // A closed-loop run has no offered rate; null reads as "not
  // applicable" where 0.000 read as a measured zero.
  if (open_loop)
    oss << offered_rps;
  else
    oss << "null";
  oss << ",\"achieved_rps\":" << achieved_rps
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

LoadReport LoadGenerator::run_open_loop(InferenceServer& server,
                                        double requests_per_sec) {
  SSMA_CHECK(requests_per_sec > 0.0);
  Rng rng(spec_.seed);

  // Pre-draw the Poisson arrival offsets (exponential gaps).
  std::vector<double> arrival_s(spec_.total_requests);
  double t = 0.0;
  for (std::size_t i = 0; i < spec_.total_requests; ++i) {
    t += -std::log(1.0 - rng.next_double()) / requests_per_sec;
    arrival_s[i] = t;
  }

  struct Pending {
    std::future<InferenceResult> fut;
    Clock::time_point intended;
  };
  std::vector<Pending> pending;
  pending.reserve(spec_.total_requests);

  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < spec_.total_requests; ++i) {
    const Clock::time_point at =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrival_s[i]));
    std::this_thread::sleep_until(at);
    // submit() may block on a full queue: that delay is part of the
    // latency the open-loop client observes.
    pending.push_back(
        {server.submit(model_ref(i), request_codes(i),
                       spec_.rows_per_request),
         at});
  }

  LatencyHistogram latency;
  Clock::time_point last_done = start;
  std::size_t completed = 0;
  for (Pending& p : pending) {
    try {
      const InferenceResult res = p.fut.get();
      latency.add(std::chrono::duration<double, std::nano>(
                      res.completed_at - p.intended)
                      .count());
      last_done = std::max(last_done, res.completed_at);
      completed++;
    } catch (const std::exception&) {
      // Server shut down under us: the request was rejected, not served.
    }
  }

  LoadReport r = finish_report(
      spec_, completed,
      std::chrono::duration<double>(last_done - start).count(), latency);
  r.open_loop = true;
  r.offered_rps = requests_per_sec;
  return r;
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
  return finish_report(spec_, completed.load(), wall, latency);
}

}  // namespace ssma::serve
