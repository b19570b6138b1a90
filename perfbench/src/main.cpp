// Persistent-world stack benchmark of the collectives library.
//
//   stack_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--source <id>]
//
// --trace 0 measures the end-to-end metrics of one workload inside a
// single live rank world (n = 4, k = 1): closed-loop latency from barrier
// release to the last rank's return, back-to-back throughput, set-up time,
// peak memory.  --trace 1 measures the per-layer metrics instead (see
// probes.hpp) plus the workload's p99 latency and the cost of the fabric
// trace.  Every collective's output is verified outside the timed region.
//
// Output: readable "metric <name> <value> <unit> samples=<n>" lines, then
// one JSON object as the last line.  Exit status 0 when every output
// verified, 1 on a verification failure or an error, 2 on bad arguments.
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "probes.hpp"
#include "world.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace mps = bruck::mps;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string source = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    std::size_t used = 0;
    if (key == "--workload") {
      a.workload = val;
      const auto& names = workload_names();
      have[0] = std::find(names.begin(), names.end(), val) != names.end();
    } else if (key == "--seed") {
      a.seed = std::stoull(val, &used);
      have[1] = used == val.size();
    } else if (key == "--seconds") {
      a.seconds = std::stod(val, &used);
      have[2] = used == val.size() && a.seconds > 0 && a.seconds <= 120;
    } else if (key == "--trace") {
      a.trace = val == "1";
      have[3] = val == "0" || val == "1";
    } else if (key == "--source") {
      a.source = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (argc % 2 != 1 || !have[0] || !have[1] || !have[2] || !have[3]) {
    throw std::invalid_argument(
        "usage: stack_bench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--source <id>]");
  }
  return a;
}

/// Runs are hermetic: no inherited BRUCK_* knob (fabric, tuning mode, tune
/// table, hierarchy, fusion cap, timeouts) may change what is measured.
void scrub_library_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "BRUCK_", 6) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  for (const auto& n : names) unsetenv(n.c_str());
}

/// Share of a run's seconds spent launching bare worlds for set-up time,
/// and the fewest such launches a run makes.
constexpr double kSetupShare = 0.2;
constexpr std::size_t kMinSetupLaunches = 41;

/// Bare worlds of `w` (launch and warm-up, no timed phase), launched one
/// after another for `budget_s` seconds and at least kMinSetupLaunches times.
std::vector<WorldOutcome> setup_launches(const Workload& w, double budget_s,
                                         Tally& tally) {
  std::vector<WorldOutcome> out;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  while (out.size() < kMinSetupLaunches || now_ns() < deadline) {
    out.push_back(run_world(w, PhaseBudget{}, false));
    tally.add(out.back());
  }
  return out;
}

/// One world that runs `w`'s latency and throughput phases for `phase_s`
/// seconds each: every end-to-end metric but setup_s.
void measured_world(const Workload& w, double phase_s, Report& report,
                    Tally& tally) {
  const WorldOutcome o = run_world(w, PhaseBudget{phase_s, phase_s}, false);
  tally.add(o);
  const auto latency = o.latency_us();
  const auto block_us = o.block_us();
  // Work completed per second, one rate per full pass over the op list
  // (whose mix, unlike a single block's, does not depend on the seed), and
  // the median over passes.
  if (w.order.size() % static_cast<std::size_t>(w.block_samples) != 0) {
    throw std::logic_error("throughput blocks must tile the op list");
  }
  const std::size_t per_pass = w.order.size() / static_cast<std::size_t>(w.block_samples);
  const RankOutcome& r0 = o.ranks.at(0);
  std::vector<double> ops_per_s;
  std::vector<double> mbps;
  for (std::size_t p = 0; p + per_pass <= block_us.size(); p += per_pass) {
    double us = 0.0;
    double ops = 0.0;
    double bytes = 0.0;
    for (std::size_t i = p; i < p + per_pass; ++i) {
      us += block_us[i];
      ops += r0.block_ops[i];
      bytes += r0.block_bytes[i];
    }
    ops_per_s.push_back(ops / us * 1e6);
    mbps.push_back(bytes / us);  // bytes per microsecond are MB/s
  }
  report.add("latency_p50_us", median(latency), "us", latency.size());
  report.add("latency_p90_us", quantile(latency, 0.9), "us", latency.size());
  report.add("ops_per_s", median(ops_per_s), "1/s", ops_per_s.size());
  report.add("payload_MBps", median(mbps), "MB/s", mbps.size());
  report.add("peak_rss_MB", o.peak_rss_mb(w.fabric), "MB", 1);
}

void end_to_end(const Workload& w, double seconds, Report& report,
                Tally& tally) {
  measured_world(w, (1.0 - kSetupShare) * seconds / 2, report, tally);
  // After the measured world, whose peak memory (read inside it) must not
  // depend on how many launches went before it in this process.
  std::vector<double> setup_s;
  for (const WorldOutcome& b : setup_launches(w, kSetupShare * seconds, tally)) {
    setup_s.push_back(b.setup_seconds());
  }
  report.add("setup_s", fast_half_mean(setup_s), "s", setup_s.size());
}

void traced(const Workload& w, std::uint64_t seed, double seconds,
            Report& report, Tally& tally) {
  // The workload itself, with the fabric trace off and on.
  const WorldOutcome plain = run_world(w, PhaseBudget{0.15 * seconds, 0}, false);
  const WorldOutcome with_trace =
      run_world(w, PhaseBudget{0.15 * seconds, 0}, true);
  tally.add(plain);
  tally.add(with_trace);
  const auto lat_plain = plain.latency_us();
  const auto lat_traced = with_trace.latency_us();
  report.add("e2e.latency_p99_us", quantile(lat_plain, 0.99), "us",
             lat_plain.size());
  report.add("trace.overhead_ratio", median(lat_traced) / median(lat_plain),
             "ratio", lat_traced.size());
  const mps::PlanStats ps = with_trace.trace->plan_stats();
  report.add("plan_cache.hit_ratio",
             static_cast<double>(ps.hits) / static_cast<double>(ps.hits + ps.misses),
             "ratio", ps.uses);

  // Bootstrap: launch to body entry, then warm-up to the first timed op.
  std::vector<double> spawn_ms;
  std::vector<double> warmup_ms;
  for (const WorldOutcome& o : setup_launches(w, 0.1 * seconds, tally)) {
    const RankOutcome& r0 = o.ranks.at(0);
    spawn_ms.push_back(static_cast<double>(r0.enter_ns - o.launch_ns) / 1e6);
    warmup_ms.push_back(static_cast<double>(r0.ready_ns - r0.warm_start_ns) / 1e6);
  }
  report.add("bootstrap.spawn_ms", median(spawn_ms), "ms", spawn_ms.size());
  report.add("bootstrap.spawn_ms.p99", quantile(spawn_ms, 0.99), "ms",
             spawn_ms.size());
  report.add("bootstrap.warmup_ms", median(warmup_ms), "ms", warmup_ms.size());
  report.add("bootstrap.warmup_ms.p99", quantile(warmup_ms, 0.99), "ms",
             warmup_ms.size());

  WireModel fabric_model;
  for (const auto f : {mps::FabricBackend::kThread, mps::FabricBackend::kShm,
                       mps::FabricBackend::kSocket}) {
    const WireModel m = probe_wire(f, report, tally);
    if (f == w.fabric) fabric_model = m;
  }
  probe_plan_and_api(w.fabric, w.probe_bytes, fabric_model, report, tally);
  probe_kernels(report);

  // Progress engine: the nonblocking batch generator on this fabric.
  Workload nb = make_nb_batch_workload(seed);
  nb.fabric = w.fabric;
  const WorldOutcome batches = run_world(nb, PhaseBudget{0.1 * seconds, 0}, false);
  tally.add(batches);
  const auto batch_us = batches.latency_us();
  const bruck::coll::ProgressStats& st = batches.ranks.at(0).progress;
  report.add("progress.batch_us", median(batch_us), "us", batch_us.size());
  report.add("progress.batch_us.p99", quantile(batch_us, 0.99), "us",
             batch_us.size());
  report.add("progress.fused_ratio",
             static_cast<double>(st.fused_members) / static_cast<double>(st.submitted),
             "ratio", st.submitted);
  report.add("progress.tags_per_op",
             static_cast<double>(st.tags_used) / static_cast<double>(st.submitted),
             "ratio", st.submitted);
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed);
  std::cout << "# stack_bench workload=" << w.name
            << " fabric=" << mps::to_string(w.fabric) << " n=" << kRanks
            << " k=" << kPorts << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << " nproc=" << sysconf(_SC_NPROCESSORS_ONLN) << " source=" << args.source
            << " cells=" << w.cells.size() << " patterns=" << w.patterns.size()
            << '\n';
  Report report;
  Tally tally;
  if (args.trace) {
    traced(w, args.seed, args.seconds, report, tally);
  } else {
    end_to_end(w, args.seconds, report, tally);
  }
  std::cout << report.lines();
  // error_rate is a line only: it is 0 on a passing run, and the JSON
  // carries it exactly as failed / attempted.
  std::cout << Report::line(Metric{
      "error_rate",
      static_cast<double>(tally.failed) / static_cast<double>(tally.attempted),
      "ratio", tally.attempted});
  if (!tally.first_error.empty()) {
    std::cout << "# first verification failure: " << tally.first_error << '\n';
  }
  const bool correct = tally.failed == 0;
  std::cout << report.json(correct, tally.attempted, tally.failed) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::scrub_library_environment();
  perfbench::Args args;
  try {
    args = perfbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "stack_bench: " << e.what() << '\n';
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "stack_bench: error: " << e.what() << '\n';
    std::cout << "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
                 "\"metrics\": {}}"
              << std::endl;
    return 1;
  }
}
