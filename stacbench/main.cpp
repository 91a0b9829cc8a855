// stacbench: the repo benchmark executable.
//
//   stacbench --workload calibrate|recommend|fleet_serve --seed N
//             --seconds S --trace 0|1 [--tiny] [--results DIR]
//
// Prints an environment stamp, human-readable progress, the simulated-
// output digest, and as its last line one JSON object with the metrics of
// BENCHMARK.json: the end-to-end set with --trace 0, the per-layer set
// (with the self-time table) with --trace 1.  Exits 1 when an output check
// failed.  stacbench/run.py builds this binary and is the entry point.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "cachesim/simd_probe.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace stacbench;
using namespace stac;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload calibrate|recommend|fleet_serve --seed N"
               " --seconds S --trace 0|1 [--tiny] [--results DIR]\n";
  std::exit(2);
}

struct Options {
  RunArgs run;
  std::string results_dir;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--workload") o.run.workload = value();
    else if (a == "--seed") o.run.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.run.seconds = std::atof(value().c_str());
    else if (a == "--trace") o.run.trace = value() == "1";
    else if (a == "--tiny") o.run.tiny = true;
    else if (a == "--results") o.results_dir = value();
    else usage(argv[0]);
  }
  if (o.run.workload.empty() || !(o.run.seconds > 0.0)) usage(argv[0]);
  return o;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out << ", ";
    out << '"' << metrics[i].name << "\": {\"value\": "
        << json_number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << '}';
  return out.str();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out + '"';
}

struct CounterPair {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

CounterPair read_counters(const char* hits, const char* misses) {
  const auto& registry = obs::MetricsRegistry::global();
  return {registry.counter_value(hits), registry.counter_value(misses)};
}

double hit_ratio(CounterPair before, CounterPair after) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double total =
      hits + static_cast<double>(after.misses - before.misses);
  return total > 0.0 ? hits / total : 0.0;
}

void report_quality(const RunArgs& args, const Quality& q,
                    std::ostringstream& extra) {
  std::printf("note: errors and gains are against the repo's simulated "
              "testbed; no hardware reference exists, so absolute accuracy "
              "is unvalidated\n");
  std::cout << "digest " << args.workload << " quality " << hex64(q.digest)
            << "\n";
  extra << ", \"quality_digest\": \"" << hex64(q.digest) << "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  const RunArgs& args = opts.run;

  // One process, one pool of min(nproc, 4) workers, no other load threads.
  const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  const long workers = std::min(nproc, 4L);
  ::setenv("STAC_THREADS", std::to_string(workers).c_str(), 1);
  ::unsetenv("STAC_TRACE");
  obs::set_enabled(false);
  const std::size_t pool = ThreadPool::global().size();

  std::ostringstream stamp;
  stamp << "nproc=" << nproc << " pool_workers=" << pool
        << " isa=" << cachesim::simd::isa_name()
        << " compiler=" << STACBENCH_COMPILER
        << " build_type=" << STACBENCH_BUILD_TYPE << " seed=" << args.seed;
  std::cout << "env " << stamp.str() << "\n"
            << "workload " << args.workload << (args.trace ? " (traced)" : "")
            << (args.tiny ? " tiny" : "") << "\n";

  std::unique_ptr<Workload> workload;
  if (args.workload == "calibrate") workload = make_calibrate(args);
  else if (args.workload == "recommend") workload = make_recommend(args);
  else if (args.workload == "fleet_serve") workload = make_fleet_serve(args);
  else usage(argv[0]);

  Checks checks;
  std::vector<Metric> metrics;
  std::vector<PassResult> passes;
  std::ostringstream extra;  // workload-specific fields of the results file
  try {
    std::vector<double> setup_s;
    for (int i = 0; i < (args.tiny ? 2 : 3); ++i) {
      const auto t0 = Clock::now();
      workload->setup(checks);
      setup_s.push_back(seconds_since(t0));
    }
    std::printf("setup: %zu repetitions, median %.3f s\n", setup_s.size(),
                percentile(setup_s, 0.5));

    if (!args.trace) {
      const auto t0 = Clock::now();
      const auto planned = static_cast<std::size_t>(std::max(
          1.0, std::round(args.seconds / workload->nominal_pass_seconds())));
      while (passes.size() < planned && workload->passes_left() > 0) {
        passes.push_back(workload->pass(checks));
        std::printf("pass %zu: %zu ops, p50 %.4g ms, %.1f s elapsed\n",
                    passes.size(), passes.back().op_ms.size(),
                    percentile(passes.back().op_ms, 0.5), seconds_since(t0));
      }
      const Quality q = workload->quality(checks);
      std::vector<double> ops;
      for (const PassResult& p : passes)
        ops.insert(ops.end(), p.op_ms.begin(), p.op_ms.end());
      metrics = {
          {"setup_s", percentile(setup_s, 0.5), "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"},
          {"op_ms_p50", percentile(ops, 0.5), "ms"},
          {"op_ms_p90", percentile(ops, 0.9), "ms"},
          {"op_ms_p99", percentile(ops, 0.99), "ms"},
          {"p95_gain", geomean(q.p95_gains), "x"},
      };
      std::printf("ops: %zu over %zu passes; p95_gain over %zu "
                  "service/condition pairs\n",
                  ops.size(), passes.size(), q.p95_gains.size());
      report_quality(args, q, extra);
    } else {
      passes.push_back(workload->pass(checks));
      const Quality q = workload->quality(checks);
      metrics.push_back(
          {"core.rt_ape_p50", percentile(q.rt_ape_pct, 0.5), "%"});
      std::printf("rt_ape_p50 over %zu held-out conditions\n",
                  q.rt_ape_pct.size());
      report_quality(args, q, extra);
      const CounterPair rt0 = read_counters("rt_cache.hits", "rt_cache.misses");
      const CounterPair crn0 =
          read_counters("ggk.crn_stream_hits", "ggk.crn_stream_misses");
      obs::TraceBuffer::global().clear();
      obs::set_enabled(true);
      passes.push_back(workload->pass(checks));
      const auto pass_self = self_seconds_by_layer();
      workload->layers(passes.back(), checks, metrics);
      const auto all_self = self_seconds_by_layer();
      obs::set_enabled(false);
      const std::uint64_t dropped = obs::TraceBuffer::global().dropped();
      if (dropped > 0)
        std::printf("warning: trace buffer dropped %llu spans; self times "
                    "undercount\n", static_cast<unsigned long long>(dropped));
      metrics.push_back(
          {"core.rt_cache_hit_ratio",
           hit_ratio(rt0, read_counters("rt_cache.hits", "rt_cache.misses")),
           "ratio"});
      metrics.push_back(
          {"queueing.crn_hit_ratio",
           hit_ratio(crn0, read_counters("ggk.crn_stream_hits",
                                         "ggk.crn_stream_misses")),
           "ratio"});
      for (const std::string& layer : traced_layers())
        metrics.push_back({layer + ".self_s", all_self.at(layer), "s"});
      const double untraced = percentile(passes[0].op_ms, 0.5);
      const double traced = percentile(passes[1].op_ms, 0.5);
      const double overhead = untraced > 0.0 ? traced / untraced - 1.0 : 0.0;
      metrics.push_back({"trace.overhead_frac", overhead, "ratio"});

      std::ostringstream table;
      table << "layer\tpass_self_s\tpass_and_probes_self_s\n";
      for (const auto& [layer, s] : all_self) {
        const auto it = pass_self.find(layer);
        table << layer << '\t' << (it == pass_self.end() ? 0.0 : it->second)
              << '\t' << s << '\n';
      }
      std::cout << "self time (span minus same-thread children, summed over "
                   "threads)\n"
                << table.str()
                << "tracing overhead: op p50 " << untraced << " ms untraced, "
                << traced << " ms traced (" << overhead * 100.0 << "%)\n";
      if (!opts.results_dir.empty()) {
        std::filesystem::create_directories(opts.results_dir);
        std::ofstream(opts.results_dir + "/" + args.workload + "-seed" +
                      std::to_string(args.seed) + "-selftime.tsv")
            << table.str();
      }
      extra << ", \"trace_overhead\": {\"untraced_op_ms_p50\": "
            << json_number(untraced) << ", \"traced_op_ms_p50\": "
            << json_number(traced) << "}";
    }
  } catch (const std::exception& e) {
    std::cerr << "stacbench: " << e.what() << "\n";
    return 2;
  }

  // Passes simulate identical inputs, so their digests should agree.  A
  // disagreement is library nondeterminism: reported and counted, not
  // failed, since the benchmark measures the library as it is.
  std::size_t digest_mismatches = 0;
  for (std::size_t i = 1; i < passes.size(); ++i) {
    if (passes[i].digest == passes[0].digest) continue;
    ++digest_mismatches;
    std::printf("NONDETERMINISM: pass %zu simulated different outputs than "
                "pass 1\n", i + 1);
  }
  for (const Metric& m : metrics)
    checks.expect(std::isfinite(m.value), "metric " + m.name + " not finite");
  for (const std::string& f : checks.failures())
    std::cout << "CHECK FAILED: " << f << "\n";
  const std::uint64_t digest = passes.empty() ? 0 : passes[0].digest;
  const std::string digest_hex = hex64(digest);
  std::cout << "digest " << args.workload << " " << digest_hex << "\n"
            << "operations: " << checks.failed() << " failed of "
            << checks.attempted() << " attempted\n";

  const std::string result =
      std::string("{\"correct\": ") + (checks.correct() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(checks.attempted()) +
      ", \"failed\": " + std::to_string(checks.failed()) +
      ", \"metrics\": " + metrics_json(metrics) + "}";
  if (!opts.results_dir.empty()) {
    std::filesystem::create_directories(opts.results_dir);
    std::ostringstream failures;
    for (std::size_t i = 0; i < checks.failures().size(); ++i)
      failures << (i ? ", " : "") << json_string(checks.failures()[i]);
    std::ofstream(opts.results_dir + "/" + args.workload + "-seed" +
                  std::to_string(args.seed) + "-trace" +
                  (args.trace ? "1" : "0") + ".json")
        << "{\"env\": " << json_string(stamp.str()) << ", \"digest\": \""
        << digest_hex << "\", \"passes\": " << passes.size()
        << ", \"digest_mismatches\": " << digest_mismatches
        << ", \"check_failures\": [" << failures.str() << "]" << extra.str()
        << ", \"result\": " << result << "}\n";
  }
  std::cout << result << std::endl;
  return checks.correct() ? 0 : 1;
}
