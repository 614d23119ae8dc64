// Minimal Chrome trace-event JSON writer, shared by the serving span
// exporter (telemetry::TraceSession) and the simulator signal exporter
// (sim::TraceSink) so both timelines open in the same Perfetto /
// chrome://tracing UI.
//
// Emits the JSON-object form {"traceEvents":[...]} with "X" (complete)
// and "i" (instant) events plus "M" metadata events for process/thread
// names. Timestamps and durations are microseconds (the trace-event
// contract); callers convert from their native unit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ssma::telemetry {

class ChromeTraceWriter {
 public:
  /// One "args" entry. `json_value` is a pre-serialized JSON value —
  /// build via num_arg() rather than by hand.
  struct Arg {
    std::string key;
    std::string json_value;
  };

  static Arg num_arg(std::string key, std::uint64_t value);
  static Arg num_arg(std::string key, double value);

  /// JSON string escaping (quotes, backslashes, control characters).
  static std::string escape(const std::string& s);

  explicit ChromeTraceWriter(std::string process_name = "ssma",
                             int pid = 1);

  /// Names a track ("M" thread_name metadata event).
  void add_thread_name(int tid, const std::string& name);

  /// "X" complete event spanning [ts_us, ts_us + dur_us).
  void add_complete(int tid, const std::string& name, double ts_us,
                    double dur_us, const std::vector<Arg>& args = {});

  /// "i" instant event (thread scope).
  void add_instant(int tid, const std::string& name, double ts_us,
                   const std::vector<Arg>& args = {});

  std::size_t size() const { return events_.size(); }

  /// The full {"traceEvents":[...]} document.
  std::string render() const;

 private:
  void push_event(const std::string& body);

  int pid_;
  std::vector<std::string> events_;  ///< pre-serialized objects
};

}  // namespace ssma::telemetry
