#include "telemetry/chrome_trace.hpp"

#include <cstdio>
#include <sstream>

namespace ssma::telemetry {

namespace {

// Fixed-point microsecond formatting with nanosecond resolution.
// Locale-independent (no ostream << double) so rendered traces are
// byte-stable across environments.
std::string format_us(double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

}  // namespace

ChromeTraceWriter::Arg ChromeTraceWriter::num_arg(std::string key,
                                                  std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  return Arg{std::move(key), buf};
}

ChromeTraceWriter::Arg ChromeTraceWriter::num_arg(std::string key,
                                                  double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return Arg{std::move(key), buf};
}

std::string ChromeTraceWriter::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

ChromeTraceWriter::ChromeTraceWriter(std::string process_name, int pid)
    : pid_(pid) {
  std::ostringstream oss;
  oss << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid_
      << ",\"tid\":0,\"args\":{\"name\":\"" << escape(process_name)
      << "\"}}";
  push_event(oss.str());
}

void ChromeTraceWriter::add_thread_name(int tid,
                                        const std::string& name) {
  std::ostringstream oss;
  oss << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid_
      << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << escape(name)
      << "\"}}";
  push_event(oss.str());
}

void ChromeTraceWriter::add_complete(int tid, const std::string& name,
                                     double ts_us, double dur_us,
                                     const std::vector<Arg>& args) {
  std::ostringstream oss;
  oss << "{\"name\":\"" << escape(name) << "\",\"ph\":\"X\",\"pid\":"
      << pid_ << ",\"tid\":" << tid << ",\"ts\":" << format_us(ts_us)
      << ",\"dur\":" << format_us(dur_us);
  if (!args.empty()) {
    oss << ",\"args\":{";
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i) oss << ",";
      oss << "\"" << escape(args[i].key) << "\":" << args[i].json_value;
    }
    oss << "}";
  }
  oss << "}";
  push_event(oss.str());
}

void ChromeTraceWriter::add_instant(int tid, const std::string& name,
                                    double ts_us,
                                    const std::vector<Arg>& args) {
  std::ostringstream oss;
  oss << "{\"name\":\"" << escape(name) << "\",\"ph\":\"i\",\"pid\":"
      << pid_ << ",\"tid\":" << tid << ",\"ts\":" << format_us(ts_us)
      << ",\"s\":\"t\"";
  if (!args.empty()) {
    oss << ",\"args\":{";
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i) oss << ",";
      oss << "\"" << escape(args[i].key) << "\":" << args[i].json_value;
    }
    oss << "}";
  }
  oss << "}";
  push_event(oss.str());
}

void ChromeTraceWriter::push_event(const std::string& body) {
  events_.push_back(body);
}

std::string ChromeTraceWriter::render() const {
  std::ostringstream oss;
  oss << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i) oss << ",";
    oss << "\n" << events_[i];
  }
  oss << "\n],\"displayTimeUnit\":\"ns\"}\n";
  return oss.str();
}

}  // namespace ssma::telemetry
