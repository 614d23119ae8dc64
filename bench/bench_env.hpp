// Shared helpers for bench harnesses that emit BENCH_*.json artifacts:
// machine identification (CPU model, logical core count) so a recorded
// number can be read in context — how many cores the threads of a
// serving or replication cell shared is visible in the data itself.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

namespace ssma::benchenv {

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

inline unsigned nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// "model name" from /proc/cpuinfo, or "unknown" off Linux.
inline std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    const auto key = line.find("model name");
    if (key == std::string::npos) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::size_t start = colon + 1;
    while (start < line.size() && line[start] == ' ') ++start;
    return line.substr(start);
  }
  return "unknown";
}

/// `"machine":{"cpu_model":...,"nproc":N}` fragment (no surrounding
/// braces/comma handling — caller splices it into its object).
inline std::string machine_json() {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%u", nproc());
  return std::string("\"machine\":{\"cpu_model\":\"") +
         json_escape(cpu_model()) + "\",\"nproc\":" + buf + "}";
}

/// Writes `json` (one object) to `path` and echoes it to stdout.
inline bool write_artifact(const std::string& path,
                           const std::string& json) {
  std::ofstream os(path);
  if (!os.is_open()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  os << json << "\n";
  std::printf("%s\n", json.c_str());
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

}  // namespace ssma::benchenv
