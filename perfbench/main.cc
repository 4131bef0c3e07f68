// Repository benchmark: runs one seeded workload against the library's public
// API, checks every output, and prints the metrics as the last line of
// standard output:
//
//   perfbench --workload <serve_xf_open|serve_ffn_pit|pit_sparse_ops>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>] [--rate <req/s>]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same workload
// with spans recorded around every call into a library layer, adds the layer
// probes, writes the spans as a Chrome trace-event file (--trace-out), and
// reports the per-layer metrics. --rate overrides serve_xf_open's offered
// rate (for rate ladders; the benchmark's figures use the default).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench.h"
#include "pit/common/parallel_for.h"
#include "workloads.h"

namespace {

using pb::Metric;

// Every per-layer metric a traced run reports, whatever the workload. A
// metric the workload does not exercise comes from the probes: a one-second
// serve_xf_open for runtime.* and loadgen.*, a half-second pit_sparse_ops
// for core.*, and the graph probes for graph.*, tensor.* and common.*.
constexpr const char* kPerLayer[] = {
    "runtime.queue_wait_ms_p50", "runtime.serve_call_ms_p50", "runtime.requests_per_forward",
    "runtime.forwards", "runtime.packed_utilization", "runtime.real_rows",
    "runtime.computed_rows", "runtime.pack_us", "runtime.plan_miss_ratio",
    "runtime.plan_misses", "runtime.plan_lookups", "runtime.pool_arena_mib_highwater",
    "graph.compile_ms", "graph.packed_forward_ms", "graph.one_to_one_forward_ms",
    "graph.dispatch_ms", "tensor.batch_matmul_ms", "tensor.softmax_ms", "tensor.layernorm_ms",
    "tensor.elementwise_ms", "common.gemm_ms", "common.gemm_gflops", "core.detect_us",
    "core.select_ms", "core.opt_ffn_ms", "core.dense_equiv_ms", "core.moe_ms",
    "core.moe_dense_equiv_ms", "core.attn_sv_ms", "core.attn_dense_equiv_ms",
    "core.covered_fraction", "core.fallback_ratio", "core.jit_hit_ratio",
    "core.kernels_compiled", "core.dispatches", "loadgen.late_ms_p99", "trace.step_sum_share",
    "trace.spans", "trace.throughput_ops_s", "trace.latency_p50_ms",
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve_xf_open|serve_ffn_pit|pit_sparse_ops> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] [--rate <req/s>]\n");
  return 2;
}

// Rates are taken over the whole timed clock. For the latency percentiles
// the clock is cut into equal parts and each percentile is the median of its
// values over the parts: the p99 of a typical stretch of the run. Bursts of
// interference from other tenants of a shared machine last about a second
// and inflate the p99 of the parts they hit, not the median over parts.
// There is one part per kSamplesPerPart samples, at most kMaxParts; the run
// as a whole keeps at least ten samples beyond the p99 (the run prints them).
constexpr size_t kSamplesPerPart = 250;
constexpr size_t kMaxParts = 25;

struct EndToEnd {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double ops_s = 0.0;
  double tokens_s = 0.0;
  int parts = 1;
  size_t beyond_p99 = 0;  // samples beyond the p99 of the whole run
};

size_t Beyond(size_t n, double q) {
  return n - static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
}

EndToEnd Summarize(const pb::Outcome& out) {
  EndToEnd r;
  r.parts = static_cast<int>(
      std::clamp<size_t>(out.samples.size() / kSamplesPerPart, 1, kMaxParts));
  const double part = out.timed_s / r.parts;
  std::vector<std::vector<double>> latency(static_cast<size_t>(r.parts));
  double tokens = 0.0;
  for (const pb::Sample& s : out.samples) {
    latency[static_cast<size_t>(std::clamp(static_cast<int>(s.at_s / part), 0, r.parts - 1))]
        .push_back(s.latency_ms);
    tokens += static_cast<double>(s.tokens);
  }
  std::vector<double> p50, p99;
  for (const std::vector<double>& l : latency) {
    p50.push_back(pb::Percentile(l, 0.50));
    p99.push_back(pb::Percentile(l, 0.99));
  }
  r.beyond_p99 = Beyond(out.samples.size(), 0.99);
  r.p50_ms = pb::Median(p50);
  r.p99_ms = pb::Median(p99);
  r.ops_s = static_cast<double>(out.samples.size()) / out.timed_s;
  r.tokens_s = tokens / out.timed_s;
  return r;
}

void Merge(const pb::Metrics& from, pb::Metrics* into) {
  for (const Metric& m : from.all()) {
    into->Set(m.name, m.value, m.unit);
  }
}

void PrintJson(bool correct, int64_t attempted, int64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  double rate = pb::kXfRateHz;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--rate") {
      rate = std::atof(value);
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || seed < 0 || !(seconds > 0.0) || (trace != 0 && trace != 1) ||
      !(rate > 0.0)) {
    return Usage();
  }

  pb::NowUs();  // starts the benchmark clock
  pit::SetNumThreads(std::min(pb::kPoolWidth, pit::NumThreads()));
  pb::Tracer tracer(trace == 1);
  const pb::RunConfig cfg{static_cast<uint64_t>(seed), seconds, &tracer};
  pb::Outcome out;
  if (workload == "serve_xf_open") {
    out = pb::RunServeXfOpen(cfg, rate);
  } else if (workload == "serve_ffn_pit") {
    out = pb::RunServeFfnPit(cfg);
  } else if (workload == "pit_sparse_ops") {
    out = pb::RunPitSparseOps(cfg);
  } else {
    return Usage();
  }

  const EndToEnd e2e = Summarize(out);
  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = {
        {"setup_s", out.setup_s, "s"},
        {"latency_p50_ms", e2e.p50_ms, "ms"},
        {"latency_p99_ms", e2e.p99_ms, "ms"},
        {"throughput_ops_s", e2e.ops_s, "ops/s"},
        {"tokens_s", e2e.tokens_s, "tokens/s"},
        {"peak_rss_mib", pb::PeakRssMiB(), "MiB"},
    };
  } else {
    // The traced run's own end-to-end figures: against an untraced run of
    // the same seed they give the cost of tracing.
    pb::Metrics& layer = out.layer;
    layer.Set("trace.throughput_ops_s", e2e.ops_s, "ops/s");
    layer.Set("trace.latency_p50_ms", e2e.p50_ms, "ms");
    const pb::RunConfig probe{cfg.seed, 1.0, &tracer};
    if (workload != "serve_xf_open") {
      Merge(pb::RunServeXfOpen(probe, pb::kXfRateHz).layer, &layer);
    }
    if (workload != "pit_sparse_ops") {
      Merge(pb::RunPitSparseOps({cfg.seed, 0.5, &tracer}).layer, &layer);
    }
    pb::ProbeGraph(cfg.seed, &tracer, &layer);
    layer.Set("trace.spans", static_cast<double>(tracer.size()), "count");
    for (const char* name : kPerLayer) {
      const Metric* m = layer.Find(name);
      if (m == nullptr) {
        std::fprintf(stderr, "perfbench: per-layer metric %s was not measured\n", name);
        return 1;
      }
      metrics.push_back(*m);
    }
    std::printf("self time by span (ms):");
    for (const auto& [name, us] : tracer.SelfTimeByName()) {
      std::printf(" %s=%.1f", name.c_str(), us / 1000.0);
    }
    std::printf("\n");
    if (!trace_out.empty()) {
      if (!tracer.WriteChromeTrace(trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
        return 1;
      }
      std::printf("trace: %zu spans written to %s\n", tracer.size(), trace_out.c_str());
    }
  }
  pb::PrintMachineFacts();
  std::printf("samples=%zu parts=%d beyond_p99=%zu attempted=%lld failed=%lld timed_s=%.3f\n",
              out.samples.size(), e2e.parts, e2e.beyond_p99, static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), out.timed_s);
  // Every operation was checked; a failed check counts as a failed operation.
  const bool correct = out.attempted > 0 && out.failed == 0;
  PrintJson(correct, out.attempted, out.failed, metrics);
  return 0;
}
