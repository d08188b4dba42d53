// Repository benchmark program: runs one workload of the coupled
// OODBMS-IRS system end to end and prints, as its last stdout line,
// {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
// builds this binary and forwards its arguments:
//
//   sdms_perfbench --workload <name> --seed <n> --seconds <s>
//                  --trace <0|1> --out-dir <dir> --work-dir <dir>
//                  [--perturb drop_row|flip_score_bit|revert_edit|
//                             swap_shard_hits]

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

extern char** environ;

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: sdms_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir> --work-dir <dir> "
               "[--perturb <kind>]\n");
}

// The system reads SDMS_* knobs (shard count, thread count, fsync,
// admission, faults) from the environment; the benchmark pins its own
// configuration instead.
void ClearSystemKnobs() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SDMS_", 5) == 0) {
      names.emplace_back(*e, std::strcspn(*e, "="));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sdms::perfbench;
  RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else if (k == "--perturb") {
      opt.perturb = v;
    } else if (k == "--out-dir") {
      opt.out_dir = v;
    } else if (k == "--work-dir") {
      opt.work_dir = v;
    } else {
      Usage();
      return 2;
    }
  }
  if (std::find(WorkloadNames().begin(), WorkloadNames().end(),
                opt.workload) == WorkloadNames().end() ||
      opt.seconds <= 0 || opt.out_dir.empty() || opt.work_dir.empty()) {
    Usage();
    return 2;
  }
  ClearSystemKnobs();
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);
  std::filesystem::create_directories(opt.work_dir, ec);
  std::filesystem::create_directories(opt.out_dir, ec);

  Outcome out;
  sdms::Status s = RunWorkload(opt, &out);
  std::filesystem::remove_all(opt.work_dir, ec);
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 s.ToString().c_str());
    return 2;
  }
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  for (const std::string& line : out.report) {
    std::printf("perfbench: %s\n", line.c_str());
  }
  std::printf("perfbench: attempted=%llu failed=%llu checks=%s\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.correct ? "passed" : "FAILED");
  for (const std::string& f : out.check_failures) {
    std::printf("perfbench: check failed: %s\n", f.c_str());
  }
  std::string json = "{\"correct\": " + std::string(out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            FmtNum(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
