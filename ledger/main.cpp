// ledger_bench --workload <solve-rmat1|solve-road|serve-mixed> --seed <n>
//              --seconds <s> --trace <0|1> [--commit <sha>] [--corrupt]
//              [--dump-inputs]
//
// Prints a box fingerprint line, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exits 1 when any operation failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "ledger.hpp"

namespace parsssp::ledger {
namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// JSON string escaping for the few free-text fields (no control chars).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_fingerprint(const Args& args, const std::string& commit) {
  std::printf(
      "{\"fingerprint\": {\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"ranks\": %u, \"lanes\": %u, \"workload\": %s, "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d, \"commit\": %s}}\n",
      std::thread::hardware_concurrency(), quoted(cpu_model()).c_str(),
      quoted(compiler()).c_str(), quoted(LEDGER_BUILD_TYPE).c_str(),
      static_cast<unsigned>(kRanks), kLanes, quoted(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, quoted(commit).c_str());
}

void print_result(const Metrics& m, const Outcome& out) {
  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < m.entries().size(); ++i) {
    const Metrics::Entry& e = m.entries()[i];
    if (!std::isfinite(e.value)) {
      throw std::runtime_error("metric " + e.name + " is not finite");
    }
    std::snprintf(buf, sizeof buf, "%.17g", e.value);
    json += (i ? ", " : "") + quoted(e.name) + ": {\"value\": " + buf +
            ", \"unit\": " + quoted(e.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "ledger_bench: %s\nusage: ledger_bench --workload "
               "<solve-rmat1|solve-road|serve-mixed> --seed <n> --seconds "
               "<s> --trace <0|1> [--commit <sha>] [--corrupt] "
               "[--dump-inputs]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace parsssp::ledger

int main(int argc, char** argv) {
  using namespace parsssp::ledger;
  Args args;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (flag == "--workload" && has_value) {
        args.workload = argv[++i];
      } else if (flag == "--seed" && has_value) {
        args.seed = std::stoull(argv[++i]);
      } else if (flag == "--seconds" && has_value) {
        args.seconds = std::stod(argv[++i]);
      } else if (flag == "--trace" && has_value) {
        args.trace = std::stoi(argv[++i]) != 0;
      } else if (flag == "--commit" && has_value) {
        commit = argv[++i];
      } else if (flag == "--corrupt") {
        args.corrupt = true;
      } else if (flag == "--dump-inputs") {
        args.dump_inputs = true;
      } else {
        return usage(("unknown argument " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  const bool solve =
      args.workload == "solve-rmat1" || args.workload == "solve-road";
  if (!solve && args.workload != "serve-mixed") {
    return usage("unknown workload");
  }
  if (!(args.seconds > 0 && args.seconds <= 600)) {
    return usage("--seconds must be in (0, 600]");
  }

  if (!args.dump_inputs) print_fingerprint(args, commit);
  Metrics metrics;
  Outcome outcome;
  if (solve) {
    run_solve_workload(args, metrics, outcome);
  } else {
    run_serve_workload(args, metrics, outcome);
  }
  if (args.dump_inputs) return 0;
  print_result(metrics, outcome);
  return outcome.failed == 0 ? 0 : 1;
}
