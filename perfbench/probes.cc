// Layer probes of the traced run: batch packing (runtime), plan compile and
// replay (graph), per-OpKind step times of one packed forward (tensor and
// common), the achieved GEMM rate, and the machine facts every run prints.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "pit/common/backend.h"
#include "pit/common/parallel_for.h"
#include "pit/core/sread_swrite.h"
#include "pit/graph/execution_plan.h"
#include "pit/nn/modules.h"
#include "pit/runtime/models.h"
#include "pit/tensor/ops.h"
#include "pit/workloads/attention_masks.h"
#include "pit/workloads/seq_len.h"
#include "workloads.h"

namespace pb {
namespace {

using pit::Tensor;

// The packed forward the graph probes time: 8 requests of 64 tokens.
constexpr int64_t kPackRequests = 8;
constexpr int64_t kPackLen = 64;
constexpr int kReps = 15;

template <typename Fn>
double TimeMs(Fn&& fn) {
  const double t0 = NowUs();
  fn();
  return (NowUs() - t0) / 1000.0;
}

// Span name of a plan step: the layer whose kernel the step dispatches.
const char* StepLayer(const pit::OpCall& step) {
  switch (step.kind) {
    case pit::OpKind::kMatmul:
    case pit::OpKind::kMatmulBias:
      return "common.gemm";
    case pit::OpKind::kBatchMatmul:
      return "tensor.batch_matmul";
    case pit::OpKind::kSoftmax:
      return "tensor.softmax";
    case pit::OpKind::kLayerNorm:
      return "tensor.layernorm";
    default:
      return "tensor.elementwise";
  }
}

}  // namespace

void ProbePack(const std::vector<std::vector<int64_t>>& compositions, uint64_t seed,
               Tracer* tracer, Metrics* m) {
  constexpr size_t kMaxBatches = 400;
  pit::Rng rng(seed * 31 + 7);
  std::map<int64_t, Tensor> src;   // one request tensor per length
  std::map<int64_t, Tensor> dst;   // one output tensor per length
  std::map<int64_t, Tensor> own;   // one request mask per length
  std::map<int64_t, std::pair<Tensor, Tensor>> staging;  // per bucket: rows, mask
  std::vector<double> us;
  const size_t count = std::min(kMaxBatches, compositions.size());
  for (size_t c = 0; c < count; ++c) {
    const std::vector<int64_t>& lens = compositions[c];
    std::vector<const Tensor*> masks;
    int64_t sum = 0;
    for (size_t i = 0; i < lens.size(); ++i) {
      const int64_t len = lens[i];
      sum += len;
      if (src.count(len) == 0) {
        src.emplace(len, Tensor::Random({len, kHidden}, rng));
        dst.emplace(len, Tensor({len, kHidden}));
        own.emplace(len, RequestMask(len, rng));
      }
      masks.push_back(i % 4 == 3 ? &own.at(len) : nullptr);
    }
    const int64_t bucket = pit::BucketTokensPow2(sum, 16);
    if (staging.count(bucket) == 0) {
      staging.emplace(bucket, std::make_pair(Tensor({bucket, kHidden}), Tensor({bucket, bucket})));
    }
    auto& [rows, mask] = staging.at(bucket);
    const int span = tracer->Begin("runtime.pack", static_cast<int64_t>(c));
    const double t0 = NowUs();
    int64_t row0 = 0;
    std::vector<int64_t> ids;
    for (int64_t len : lens) {
      ids.resize(static_cast<size_t>(len));
      std::iota(ids.begin(), ids.end(), 0);
      pit::SReadRowsInto(src.at(len), ids, rows, row0);
      row0 += len;
    }
    pit::BlockDiagonalMaskInto(lens, masks, mask);
    row0 = 0;
    for (int64_t len : lens) {
      ids.resize(static_cast<size_t>(len));
      std::iota(ids.begin(), ids.end(), 0);
      pit::SWriteRowsFrom(rows, row0, ids, dst.at(len));
      row0 += len;
    }
    us.push_back(NowUs() - t0);
    tracer->End(span);
  }
  m->Set("runtime.pack_us", Median(us), "us");
}

void ProbeGraph(uint64_t seed, Tracer* tracer, Metrics* m) {
  pit::Rng rng(seed * 131 + 17);
  pit::PlannedTransformerStack stack(kLayers, kHidden, kHeads, kFfn, rng);
  const int64_t tokens = kPackRequests * kPackLen;

  // graph.compile_ms: streams for shapes the stack has not planned yet.
  std::vector<double> compile_ms;
  for (int64_t i = 0; i < 5; ++i) {
    const int span = tracer->Begin("graph.compile", i);
    compile_ms.push_back(TimeMs([&] { stack.MakeStream(tokens - 8 * (i + 1), true); }));
    tracer->End(span);
  }
  m->Set("graph.compile_ms", Median(compile_ms), "ms");

  // One packed 8 x 64-token forward against the eight 64-token forwards, and
  // the per-OpKind step times of the packed forward: the same two encoder
  // blocks built from the nn modules into one graph, replayed once plainly
  // and once with a step observer. The observer fires right after each
  // step, so consecutive stamps bound one step. All four are timed back to
  // back in every repetition so that their ratios see the same machine
  // state.
  const Tensor x = Tensor::Random({tokens, kHidden}, rng);
  const Tensor mask =
      pit::BlockDiagonalMask(std::vector<int64_t>(kPackRequests, kPackLen), tokens);
  pit::PlannedTransformerStack::Stream packed = stack.MakeStream(tokens, true);
  Tensor packed_out({tokens, kHidden});
  std::vector<Tensor> xs;
  std::vector<Tensor> outs;
  for (int64_t i = 0; i < kPackRequests; ++i) {
    xs.push_back(Tensor::Random({kPackLen, kHidden}, rng));
    outs.emplace_back(pit::Shape{kPackLen, kHidden});
  }
  pit::PlannedTransformerStack::Stream single = stack.MakeStream(kPackLen, false);

  pit::Rng mr(seed * 137 + 19);
  std::vector<std::unique_ptr<pit::MultiHeadAttention>> attn;
  std::vector<std::unique_ptr<pit::FeedForward>> ffn;
  const Tensor gamma = Tensor::Full({kHidden}, 1.0f);
  const Tensor beta({kHidden});
  pit::Graph g;
  const int gx = g.AddInput("x", {tokens, kHidden});
  const int gmask = g.AddInput("mask", {tokens, tokens});
  const int gg = g.AddWeightRef("ln_gamma", &gamma);
  const int gb = g.AddWeightRef("ln_beta", &beta);
  int h = gx;
  for (int64_t l = 0; l < kLayers; ++l) {
    attn.push_back(std::make_unique<pit::MultiHeadAttention>(kHidden, kHeads, mr));
    ffn.push_back(std::make_unique<pit::FeedForward>(kHidden, kFfn, mr));
    const int ln1 = g.AddLayerNorm("ln1", h, gg, gb);
    const int a = attn.back()->AppendToGraph(g, ln1, gmask);
    const int h1 = g.AddAdd("h", h, a);
    const int ln2 = g.AddLayerNorm("ln2", h1, gg, gb);
    h = g.AddAdd("out", h1, ffn.back()->AppendToGraph(g, ln2).out);
  }
  const std::shared_ptr<pit::ExecutionPlan> plan = g.PlanShared(nullptr);
  pit::ExecutionContext ctx(*plan);
  const std::map<std::string, const Tensor*> feeds{{"x", &x}, {"mask", &mask}};
  std::map<int, const char*> layer_of;
  for (const pit::OpCall& step : plan->steps()) {
    layer_of[step.node_id] = StepLayer(step);
  }
  std::vector<std::pair<int, double>> marks;
  marks.reserve(plan->steps().size());
  const pit::StepObserver observer = [&marks](int node, pit::ConstTensorView) {
    marks.emplace_back(node, NowUs());
  };
  constexpr const char* kLayerNames[] = {"common.gemm", "tensor.batch_matmul", "tensor.softmax",
                                         "tensor.layernorm", "tensor.elementwise"};

  std::vector<double> packed_ms;
  std::vector<double> one_ms;
  std::map<std::string, std::vector<double>> per_layer;
  std::vector<double> dispatch_ms;
  std::vector<double> share;
  for (int rep = 0; rep <= kReps; ++rep) {
    const int ps = tracer->Begin("graph.packed_forward", rep);
    const double p = TimeMs([&] { stack.ForwardWith(packed, x, &mask, nullptr, &packed_out); });
    tracer->End(ps);
    const int os = tracer->Begin("graph.one_to_one_forward", rep);
    const double o = TimeMs([&] {
      for (int64_t i = 0; i < kPackRequests; ++i) {
        stack.ForwardWith(single, xs[static_cast<size_t>(i)], nullptr, nullptr,
                          &outs[static_cast<size_t>(i)]);
      }
    });
    tracer->End(os);
    const double plain = TimeMs([&] { plan->RunWith(ctx, feeds); });
    marks.clear();
    const double t0 = NowUs();
    plan->RunWith(ctx, feeds, nullptr, &observer);
    const double t1 = NowUs();
    if (rep == 0) {  // warms arenas and caches
      continue;
    }
    packed_ms.push_back(p);
    one_ms.push_back(o);
    const int root = tracer->Add("graph.forward", t0, t1, rep);
    std::map<std::string, double> sums;
    double prev = t0;
    for (const auto& [node, t] : marks) {
      tracer->Add(layer_of.at(node), prev, t, rep, root);
      sums[layer_of.at(node)] += t - prev;
      prev = t;
    }
    double steps = 0.0;
    for (const char* name : kLayerNames) {
      per_layer[name].push_back(sums[name] / 1000.0);
      steps += sums[name];
    }
    dispatch_ms.push_back((t1 - t0 - steps) / 1000.0);
    share.push_back(steps / 1000.0 / plain);
  }
  m->Set("graph.packed_forward_ms", Median(packed_ms), "ms");
  m->Set("graph.one_to_one_forward_ms", Median(one_ms), "ms");
  for (const char* name : kLayerNames) {
    m->Set(std::string(name) + "_ms", Median(per_layer[name]), "ms");
  }
  m->Set("graph.dispatch_ms", Median(dispatch_ms), "ms");
  // Per-OpKind step times summed, over the same plan replayed untraced.
  m->Set("trace.step_sum_share", Median(share), "ratio");

  // Achieved MatMul rate at the FFN shapes of one packed forward.
  const Tensor up_a = Tensor::Random({tokens, kHidden}, rng);
  const Tensor up_b = Tensor::Random({kHidden, kFfn}, rng);
  const Tensor down_a = Tensor::Random({tokens, kFfn}, rng);
  const Tensor down_b = Tensor::Random({kFfn, kHidden}, rng);
  std::vector<double> gemm_ms;
  for (int rep = 0; rep <= kReps; ++rep) {
    const int span = tracer->Begin("common.matmul", 2000 + rep);
    const double t = TimeMs([&] {
      pit::MatMul(up_a, up_b);
      pit::MatMul(down_a, down_b);
    });
    tracer->End(span);
    if (rep > 0) {
      gemm_ms.push_back(t);
    }
  }
  const double flops = 2.0 * 2.0 * static_cast<double>(tokens * kHidden * kFfn);
  m->Set("common.gemm_gflops", flops / (Median(gemm_ms) * 1e6), "GFLOP/s");
}

namespace {

// Aggregate CPU jiffies since boot: {steal, total}; zeros when unreadable.
std::pair<double, double> CpuSteal() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return {0.0, 0.0};
  }
  double v[8] = {};
  const int got = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1], &v[2],
                              &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (got != 8) {
    return {0.0, 0.0};
  }
  return {v[7], v[0] + v[1] + v[2] + v[3] + v[4] + v[5] + v[6] + v[7]};
}

const std::pair<double, double> kStealAtStart = CpuSteal();

}  // namespace

void PrintMachineFacts() {
  pit::Rng rng(5);
  const Tensor a = Tensor::Random({384, 384}, rng);
  auto gemm_gflops = [&](int threads) {
    pit::ScopedNumThreads scoped(threads);
    pit::MatMul(a, a);
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      ms.push_back(TimeMs([&] { pit::MatMul(a, a); }));
    }
    return 2.0 * 384.0 * 384.0 * 384.0 / (Median(ms) * 1e6);
  };
  const int width = pit::NumThreads();
  const double g1 = gemm_gflops(1);
  const double gn = gemm_gflops(width);
  std::vector<char> from(size_t{32} << 20, 1);
  std::vector<char> to(from.size(), 0);
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    ms.push_back(TimeMs([&] { std::memcpy(to.data(), from.data(), from.size()); }));
  }
  // Share of the machine's CPU time taken by the hypervisor for other guests
  // during this run: a high value explains a slow run.
  const std::pair<double, double> steal = CpuSteal();
  const double total = steal.second - kStealAtStart.second;
  std::printf(
      "machine: isa_detected=%s isa_selected=%s nproc=%u pool_width=%d gemm384_gflops_1t=%.1f "
      "gemm384_gflops_%dt=%.1f (%.2fx) copy_gbps=%.2f cpu_steal=%.1f%%\n",
      pit::IsaName(pit::DetectedIsa()), pit::IsaName(pit::ActiveIsa()),
      std::thread::hardware_concurrency(), width, g1, width, gn, gn / g1,
      static_cast<double>(from.size()) / (Median(ms) * 1e6),
      total > 0.0 ? 100.0 * (steal.first - kStealAtStart.first) / total : 0.0);
}

}  // namespace pb
