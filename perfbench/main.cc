// perfbench_pass: runs one kind of pass of one workload and prints one
// JSON line per repetition. perfbench/run.py drives it; each pass kind
// runs in its own process so that the process's peak RSS is the pass's.
//
//   perfbench_pass --workload agg_churn --seed 7 --timed-tuples 60000
//       --deployment measured|reference --loop closed|open [--rate R]
//       [--reps K] [--setup-reps S] [--trace 0|1] [--trace-out FILE]
//       [--label L]
//
// Budgeted engines spill into fresh directories under TMPDIR.
//
// --setup-reps adds S set-up-only passes after the K full ones.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>

#include "perfbench/pass.h"

namespace astream::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int64_t timed_tuples = 0;
  Deployment deployment = Deployment::kMeasured;
  bool open_loop = false;
  double rate = 0;
  int reps = 1;
  int setup_reps = 0;
  bool trace = false;
  std::string trace_out;
  std::string label = "pass";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_pass: %s\n", why.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--timed-tuples") {
      a.timed_tuples = std::strtoll(v.c_str(), nullptr, 10);
    } else if (flag == "--deployment") {
      if (v != "measured" && v != "reference") Usage("bad deployment " + v);
      a.deployment =
          v == "reference" ? Deployment::kReference : Deployment::kMeasured;
    } else if (flag == "--loop") {
      if (v != "closed" && v != "open") Usage("bad loop " + v);
      a.open_loop = v == "open";
    } else if (flag == "--rate") {
      a.rate = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--reps") {
      a.reps = std::atoi(v.c_str());
    } else if (flag == "--setup-reps") {
      a.setup_reps = std::atoi(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--label") {
      a.label = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.timed_tuples <= 0) Usage("--timed-tuples must be positive");
  if (a.reps < 1 || a.reps > 16) Usage("--reps must be in 1..16");
  if (a.setup_reps < 0 || a.setup_reps > 64) {
    Usage("--setup-reps must be in 0..64");
  }
  if (a.open_loop && a.rate <= 0) Usage("open loop needs --rate > 0");
  return a;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

std::string Ms(double ns) {
  std::ostringstream o;
  o << std::setprecision(9) << ns * 1e-6;
  return o.str();
}

std::string List(const std::vector<double>& values) {
  std::ostringstream o;
  o << std::setprecision(9) << "[";
  for (size_t i = 0; i < values.size(); ++i) {
    o << (i == 0 ? "" : ", ") << values[i];
  }
  o << "]";
  return o.str();
}

template <typename T>
std::vector<double> AsDoubles(const std::vector<T>& v) {
  return std::vector<double>(v.begin(), v.end());
}

std::string ResultJson(const Args& args, int rep, const PassResult& r) {
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> all;
  for (const std::vector<float>& segment : r.result_latency_ns) {
    const std::vector<double> latency = AsDoubles(segment);
    p50.push_back(Percentile(latency, 50) * 1e-6);
    p99.push_back(Percentile(latency, 99) * 1e-6);
    all.insert(all.end(), latency.begin(), latency.end());
  }
  const std::vector<double> deploy = AsDoubles(r.deploy_latency_ns);
  const std::vector<double> lag = AsDoubles(r.gen_lag_ns);
  const std::vector<double> sink = AsDoubles(r.sink_ns);
  std::ostringstream o;
  o << std::setprecision(12);
  o << "{\"label\": \"" << args.label << "\", \"rep\": " << rep
    << ", \"ok\": " << (r.ok ? "true" : "false") << ", \"error\": \""
    << r.error << "\", \"setup_s\": " << r.setup_s
    << ", \"timed_s\": " << r.timed_s
    << ", \"timed_tuples\": " << r.timed_tuples
    << ", \"tuples_per_s\": "
    << (r.timed_s > 0 ? static_cast<double>(r.timed_tuples) / r.timed_s : 0)
    << ", \"hash\": \"" << std::hex << r.hash << std::dec
    << "\", \"outputs\": " << r.outputs << ", \"attempted\": " << r.attempted
    << ", \"failed\": " << r.failed
    << ", \"threads_expected\": " << r.threads_expected
    << ", \"threads_observed\": " << r.threads_observed
    << ", \"nproc\": " << Nproc()
    << ", \"result_latency_ms\": {\"n\": " << all.size()
    << ", \"p50\": " << Ms(Percentile(all, 50))
    << ", \"p99\": " << Ms(Percentile(all, 99))
    << ", \"segment_p50\": " << List(p50) << ", \"segment_p99\": " << List(p99)
    << "}, \"deploy_latency_ms\": {\"n\": " << deploy.size()
    << ", \"p50\": " << Ms(Percentile(deploy, 50))
    << ", \"p90\": " << Ms(Percentile(deploy, 90))
    << "}, \"gen_lag_ms\": {\"n\": " << lag.size()
    << ", \"p99\": " << Ms(Percentile(lag, 99))
    << ", \"max\": " << Ms(Percentile(lag, 100))
    << "}, \"sink_ns_p50\": " << Percentile(sink, 50)
    << ", \"config\": " << r.config_json << "}";
  return o.str();
}

/// Appends the pass's spans, samples and final engine view as NDJSON.
void WriteTrace(const Args& args, int rep, const PassResult& r) {
  std::ofstream out(args.trace_out, std::ios::app);
  const std::string pass =
      "\"pass\": \"" + args.label + "\", \"rep\": " + std::to_string(rep);
  const int64_t origin = r.spans.empty() ? 0 : r.spans.front().start_ns;
  for (size_t i = 0; i < r.spans.size(); ++i) {
    const Span& s = r.spans[i];
    out << "{\"type\": \"span\", " << pass << ", \"id\": " << i
        << ", \"name\": \"" << SpanNames()[static_cast<size_t>(s.name)]
        << "\", \"parent\": " << s.parent << ", \"thread\": " << s.thread
        << ", \"start_ns\": " << s.start_ns - origin
        << ", \"end_ns\": " << s.end_ns - origin;
    if (SpanNames()[static_cast<size_t>(s.name)] == "callback") {
      out << ", \"count\": " << s.count << ", \"busy_ns\": " << s.busy_ns;
    }
    out << "}\n";
  }
  for (const std::string& sample : r.samples) {
    out << "{\"type\": \"sample\", " << pass << ", \"sample\": " << sample
        << "}\n";
  }
  out << "{\"type\": \"final\", " << pass << ", \"final\": "
      << (r.final_stats.empty() ? "{}" : r.final_stats)
      << ", \"result\": " << ResultJson(args, rep, r) << "}\n";
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  PassOptions options;
  if (!MakeWorkload(args.workload, args.timed_tuples, &options.spec)) {
    Usage("unknown workload " + args.workload);
  }
  const int threads = args.deployment == Deployment::kReference
                          ? 1
                          : options.spec.Threads();
  if (threads > Nproc()) {
    std::fprintf(stderr,
                 "perfbench_pass: %s needs %d threads but nproc is %d; "
                 "refusing to run\n",
                 args.workload.c_str(), threads, Nproc());
    return 3;
  }
  options.seed = args.seed;
  options.deployment = args.deployment;
  options.open_loop = args.open_loop;
  options.offered_rate = args.rate;
  options.trace = args.trace;
  for (int rep = 0; rep < args.reps; ++rep) {
    const PassResult result = RunPass(options);
    std::printf("%s\n", ResultJson(args, rep, result).c_str());
    std::fflush(stdout);
    if (!args.trace_out.empty()) WriteTrace(args, rep, result);
    if (!result.ok) return 1;
  }
  // Set-up only: Create, Start, the fleet's deploy and the warm-up prefix.
  Args setup = args;
  setup.label = args.label + "_setup";
  options.setup_only = true;
  for (int rep = 0; rep < args.setup_reps; ++rep) {
    const PassResult result = RunPass(options);
    std::printf("%s\n", ResultJson(setup, rep, result).c_str());
    std::fflush(stdout);
    if (!result.ok) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace astream::perfbench

int main(int argc, char** argv) { return astream::perfbench::Main(argc, argv); }
