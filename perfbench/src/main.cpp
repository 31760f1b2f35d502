// dg_perfbench: the dyngossip benchmark harness.
//
//   dg_perfbench --workload frontier|grid|serve --seed N --seconds S
//                --trace 0|1 --scratch DIR [--size full|tiny]
//
// With --trace 0 it measures the workload's end-to-end metrics for S
// seconds; with --trace 1 it runs the traced per-layer pass instead (the
// same pass for every workload: each layer is timed on the workload that
// drives it).  Either way every output is checked, and the last stdout line
// is one JSON object {correct, attempted, failed, metrics}.  The exit code
// is 0 only when every check passed.
#include <cpuid.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common/provenance.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

/// CPU brand string from CPUID (no file reads), or "unknown".
std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "dg_perfbench: %s\nusage: dg_perfbench --workload frontier|grid|serve "
               "--seed N --seconds S --trace 0|1 --scratch DIR [--size full|tiny]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--scratch") {
        o.scratch = value;
      } else if (flag == "--size") {
        if (value != "full" && value != "tiny") usage("--size takes full or tiny");
        o.tiny = value == "tiny";
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (o.workload != "frontier" && o.workload != "grid" && o.workload != "serve") {
    usage("--workload must be frontier, grid or serve");
  }
  if (o.scratch.empty()) usage("--scratch is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  // Sized for 4 CPUs: never more workers or serve clients than that.
  o.workers = std::min<std::size_t>(nproc(), 4);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const dyngossip::Provenance& p = dyngossip::build_provenance();
  std::printf("host {\"nproc\": %zu, \"workers\": %zu, \"cpu\": \"%s\", "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", \"git\": \"%s\"}\n",
              nproc(), o.workers, cpu_model().c_str(), p.compiler.c_str(),
              p.build_type.c_str(), p.git_describe.c_str());
  std::printf("run {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"size\": \"%s\"}\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, o.tiny ? "tiny" : "full");
  std::fflush(stdout);

  perfbench::Report report;
  try {
    std::filesystem::create_directories(o.scratch);
    if (o.trace) {
      perfbench::traced_pass(o, report);
    } else if (o.workload == "frontier") {
      perfbench::frontier_workload(o, report);
    } else if (o.workload == "grid") {
      perfbench::grid_workload(o, report);
    } else {
      perfbench::serve_workload(o, report);
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("exception: ") + e.what());
  }
  report.print();
  return report.correct() ? 0 : 1;
}
