// The benchmark's three workloads and the layer probes of its traced run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "perfbench.h"

namespace pb {

// Serving model shape shared by both serving workloads and the graph probes
// (the shapes of the earlier serving benches).
inline constexpr int64_t kLayers = 2;
inline constexpr int64_t kHidden = 128;
inline constexpr int64_t kHeads = 4;
inline constexpr int64_t kFfn = 512;

// Pool width of every workload: half of a 4-vCPU machine. On a host shared
// with other tenants a pool as wide as the machine puts a straggler in most
// parallel regions (one vCPU that the hypervisor has lent out stalls the
// whole region); two workers keep two vCPUs of headroom. Measured over five
// interleaved seeds, 15 s each, this cut serve_xf_open's p99 spread from
// 170 % to 20 % and its peak-RSS spread from 15 % to under 1 %.
inline constexpr int kPoolWidth = 2;

// Open-loop offered rate of serve_xf_open, requests per second: well below
// the knee (perfbench/README.md has the rate ladder), so that slow phases of
// a shared machine do not tip runs into large packed batches.
inline constexpr double kXfRateHz = 60.0;

// Open loop of seeded Poisson arrivals at `rate_hz` into a ragged-batching
// ServingEngine over a planned transformer stack.
Outcome RunServeXfOpen(const RunConfig& cfg, double rate_hz);
// Closed loop re-serving one seeded mixed-length list over a PIT FFN stack.
Outcome RunServeFfnPit(const RunConfig& cfg);
// Stream of dynamic-sparse operators on one long-lived PitCompiler.
Outcome RunPitSparseOps(const RunConfig& cfg);

// runtime.pack_us: median time of SReadRowsInto + BlockDiagonalMaskInto +
// SWriteRowsFrom over packed batch compositions (request lengths per packed
// forward).
void ProbePack(const std::vector<std::vector<int64_t>>& compositions, uint64_t seed,
               Tracer* tracer, Metrics* m);
// graph.*, tensor.*, common.* probes on the serving model shape.
void ProbeGraph(uint64_t seed, Tracer* tracer, Metrics* m);
// Prints the machine facts the figures depend on: ISA tier, nproc, pool
// width, a compute-bound GEMM at 1 and at pool-width threads, copy bandwidth.
void PrintMachineFacts();

}  // namespace pb

#endif  // PERFBENCH_WORKLOADS_H_
