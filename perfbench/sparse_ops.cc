// pit_sparse_ops: a seeded stream of dynamic-sparse operators called directly
// on the core layer through one long-lived PitCompiler. Each operator's
// sparsity pattern is drawn fresh; rounds of (OPT down-projection, MoE expert
// FFN, Longformer scores x V) repeat until the run's time is spent.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "pit/core/compiler.h"
#include "pit/core/sparse_kernel.h"
#include "pit/core/sparsity_detector.h"
#include "pit/tensor/ops.h"
#include "pit/workloads/attention_masks.h"
#include "pit/workloads/moe_routing.h"
#include "workloads.h"

namespace pb {
namespace {

using pit::PitCompiler;
using pit::Tensor;

// OPT-style activation-sparse down-projection (paper §2.1: 95-99.9 % ReLU
// sparsity).
constexpr int64_t kOptM = 256;
constexpr int64_t kOptK = 2048;
constexpr int64_t kOptN = 512;
constexpr double kOptSparsityLo = 0.95;
constexpr double kOptSparsityHi = 0.999;
// Top-1 routed MoE expert FFN with power-law expert popularity.
constexpr int64_t kMoeTokens = 256;
constexpr int64_t kMoeHidden = 256;
constexpr int64_t kMoeFfn = 512;
constexpr int kMoeExperts = 8;
constexpr double kMoeImbalance = 1.0;
// Longformer attention probabilities x V: sliding window plus global tokens
// whose positions are drawn per operator.
constexpr int64_t kSeq = 1024;
constexpr int64_t kHeadDim = 64;
constexpr int64_t kAttnWindow = 128;
constexpr int64_t kAttnGlobals = 8;
// Rows of each output checked against the float64 reference (rows whose
// sparse input is all zero are checked in full).
constexpr int kCheckRows = 2;

enum Kind { kOpt = 0, kMoe = 1, kAttn = 2, kKinds = 3 };
constexpr const char* kSpanName[kKinds] = {"core.opt_ffn", "core.moe", "core.attn_sv"};
constexpr int64_t kRows[kKinds] = {kOptM, kMoeTokens, kSeq};

constexpr uint64_t kWarmSeed = 0x5EED;

uint64_t SubSeed(uint64_t seed, uint64_t salt) { return seed * 0xD1B54A32D192ED03ull + salt; }

struct Weights {
  Tensor w_down;                // [kOptK, kOptN]
  std::vector<Tensor> experts;  // kMoeExperts x [kMoeHidden, kMoeFfn]
};

struct Op {
  Kind kind = kOpt;
  Tensor a;                 // sparse operand (OPT, attention) or tokens (MoE)
  Tensor v;                 // attention V
  std::vector<int> expert;  // MoE routing
};

Op MakeOp(Kind kind, double opt_sparsity, pit::Rng& rng) {
  Op op;
  op.kind = kind;
  if (kind == kOpt) {
    op.a = SparseActivation(kOptM, kOptK, opt_sparsity, rng);
  } else if (kind == kMoe) {
    op.a = Tensor::Random({kMoeTokens, kMoeHidden}, rng);
    op.expert = pit::RouteTokens(kMoeTokens, {kMoeExperts, kMoeImbalance}, rng);
  } else {
    op.a = pit::LongformerMask({kSeq, kAttnWindow, kAttnGlobals}, rng);
    for (int64_t i = 0; i < op.a.size(); ++i) {
      if (op.a[i] != 0.0f) {
        op.a[i] = rng.NextFloat(0.01f, 1.0f);
      }
    }
    op.v = Tensor::Random({kSeq, kHeadDim}, rng);
  }
  return op;
}

// OPT sparsities: each block of kStrata operators takes one value from each
// of kStrata equal strata of [lo, hi], in seeded order. The densest operators
// are the slowest and set the p99, so stratifying keeps their share the same
// on every seed.
constexpr int kStrata = 16;

class SparsityDraw {
 public:
  double Next(pit::Rng& rng) {
    if (block_.empty()) {
      for (int i = 0; i < kStrata; ++i) {
        block_.push_back(i);
      }
      for (size_t i = block_.size(); i > 1; --i) {
        std::swap(block_[i - 1], block_[rng.NextBelow(i)]);
      }
    }
    const double u = (block_.back() + rng.NextDouble()) / kStrata;
    block_.pop_back();
    return kOptSparsityLo + (kOptSparsityHi - kOptSparsityLo) * u;
  }

 private:
  std::vector<int> block_;
};

Op DrawOp(Kind kind, SparsityDraw& sparsity, pit::Rng& rng) {
  return MakeOp(kind, kind == kOpt ? sparsity.Next(rng) : 0.0, rng);
}

const Tensor& RightOperand(const Op& op, const Weights& w) {
  return op.kind == kOpt ? w.w_down : op.v;
}

struct Dispatched {
  Tensor out;
  pit::PitMatmulPlan plan;  // SparseMatmul kinds only
};

Dispatched Run(const Op& op, const Weights& w, PitCompiler& compiler) {
  if (op.kind == kMoe) {
    return {pit::PitMoEMatmul(op.a, w.experts, op.expert), {}};
  }
  pit::PitExecution e = compiler.SparseMatmul(op.a, RightOperand(op, w));
  return {std::move(e.output), e.plan};
}

// Sampled rows against the float64 reference, plus every row whose sparse
// input is all zero (which must come out exactly zero).
bool Check(const Op& op, const Weights& w, const Tensor& out, pit::Rng& rng) {
  const int64_t rows = op.a.dim(0);
  const int64_t k = op.a.dim(1);
  auto row_ok = [&](int64_t r) {
    const Tensor& b = op.kind == kMoe ? w.experts[static_cast<size_t>(op.expert[static_cast<size_t>(r)])]
                                      : RightOperand(op, w);
    return RowMatchesReference(op.a.data() + r * k, b, out.data() + r * out.dim(1), k);
  };
  if (out.rank() != 2 || out.dim(0) != rows) {
    return false;
  }
  for (int i = 0; i < kCheckRows; ++i) {
    if (!row_ok(static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(rows))))) {
      return false;
    }
  }
  if (op.kind != kMoe) {
    for (int64_t r = 0; r < rows; ++r) {
      const float* row = op.a.data() + r * k;
      if (std::all_of(row, row + k, [](float x) { return x == 0.0f; }) && !row_ok(r)) {
        return false;
      }
    }
  }
  return true;
}

// Dense MatMul on the same operands (MoE: every expert over every token).
void DenseEquivalent(const Op& op, const Weights& w) {
  if (op.kind == kMoe) {
    for (const Tensor& e : w.experts) {
      pit::MatMul(op.a, e);
    }
  } else {
    pit::MatMul(op.a, RightOperand(op, w));
  }
}

// Dispatches operators across the whole sparsity range until a round of them
// selects no new kernel (at most 5 rounds).
void Warm(PitCompiler& compiler, const Weights& w, pit::Rng& rng) {
  for (int round = 0; round < 5; ++round) {
    const int64_t before = compiler.kernels_compiled();
    for (double s : {kOptSparsityLo, 0.97, 0.985, kOptSparsityHi}) {
      Run(MakeOp(kOpt, s, rng), w, compiler);
    }
    Run(MakeOp(kMoe, 0.0, rng), w, compiler);
    Run(MakeOp(kAttn, 0.0, rng), w, compiler);
    if (round > 0 && compiler.kernels_compiled() == before) {
      break;
    }
  }
}

}  // namespace

Outcome RunPitSparseOps(const RunConfig& cfg) {
  Outcome out;
  Tracer& tr = *cfg.tracer;
  Weights w;
  {
    pit::Rng wr(SubSeed(cfg.seed, 1));
    w.w_down = Tensor::Random({kOptK, kOptN}, wr);
    for (int e = 0; e < kMoeExperts; ++e) {
      w.experts.push_back(Tensor::Random({kMoeHidden, kMoeFfn}, wr));
    }
  }
  std::unique_ptr<PitCompiler> compiler;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    compiler.reset();
    // The warm-up operands do not depend on --seed: the JIT cache keeps the
    // kernel selected for the first operand of each (shape, sparsity bucket)
    // for the whole run, and which kernel that is depends on the operand's
    // pattern (the Longformer operator flips between a K-axis and an M-axis
    // rule). Fixed warm-up operands measure the same selection on every seed.
    pit::Rng warm_rng(kWarmSeed);
    const double t0 = NowUs();
    compiler = std::make_unique<PitCompiler>(pit::V100());
    Warm(*compiler, w, warm_rng);
    setups.push_back((NowUs() - t0) / 1e6);
  }
  out.setup_s = Median(setups);

  pit::Rng rng(SubSeed(cfg.seed, 3));
  SparsityDraw sparsity;
  pit::Rng check_rng(SubSeed(cfg.seed, 4));
  const int64_t compiled0 = compiler->kernels_compiled();
  const int64_t hits0 = compiler->cache_hits();
  std::vector<double> kind_ms[kKinds];
  std::vector<double> dense_ms[kKinds];
  std::vector<double> detect_us;
  int64_t dispatches = 0;
  int64_t fallbacks = 0;
  double covered_sum = 0.0;
  double timed_us = 0.0;
  // Whole rounds only, so every run attempts the same mix.
  for (int64_t i = 0; timed_us < cfg.seconds * 1e6 || i % kKinds != 0; ++i) {
    const auto kind = static_cast<Kind>(i % kKinds);
    const int gen = tr.Begin("bench.generate", i);
    const Op op = DrawOp(kind, sparsity, rng);
    tr.End(gen);
    const double t0 = NowUs();
    const Dispatched d = Run(op, w, *compiler);
    const double t1 = NowUs();
    timed_us += t1 - t0;
    tr.Add(kSpanName[kind], t0, t1, i);
    ++out.attempted;
    const int check = tr.Begin("bench.check", i);
    const bool ok = Check(op, w, d.out, check_rng);
    tr.End(check);
    if (ok) {
      out.samples.push_back(Sample{(timed_us - (t1 - t0)) / 1e6, (t1 - t0) / 1000.0, kRows[kind]});
    } else {
      ++out.failed;
    }
    if (kind != kMoe) {
      ++dispatches;
      fallbacks += d.plan.fallback_dense ? 1 : 0;
      covered_sum += d.plan.fallback_dense ? 0.0 : d.plan.covered_fraction;
    }
    if (cfg.traced()) {
      kind_ms[kind].push_back((t1 - t0) / 1000.0);
    }
    // Detection and the dense reference on every fourth round only: they
    // cost as much as the operators and would stretch the traced run.
    if (cfg.traced() && i % (4 * kKinds) < kKinds) {
      if (kind != kMoe) {
        const int span = tr.Begin("core.detect", i);
        const double d0 = NowUs();
        pit::SparsityDetector().Detect(op.a, d.plan.rule.micro_tile);
        detect_us.push_back(NowUs() - d0);
        tr.End(span);
      }
      const int span = tr.Begin("core.dense_equiv", i);
      const double d0 = NowUs();
      DenseEquivalent(op, w);
      dense_ms[kind].push_back((NowUs() - d0) / 1000.0);
      tr.End(span);
    }
  }
  out.timed_s = timed_us / 1e6;

  if (cfg.traced()) {
    Metrics& m = out.layer;
    m.Set("core.opt_ffn_ms", Median(kind_ms[kOpt]), "ms");
    m.Set("core.dense_equiv_ms", Median(dense_ms[kOpt]), "ms");
    m.Set("core.moe_ms", Median(kind_ms[kMoe]), "ms");
    m.Set("core.moe_dense_equiv_ms", Median(dense_ms[kMoe]), "ms");
    m.Set("core.attn_sv_ms", Median(kind_ms[kAttn]), "ms");
    m.Set("core.attn_dense_equiv_ms", Median(dense_ms[kAttn]), "ms");
    m.Set("core.detect_us", Median(detect_us), "us");
    const double sparse = static_cast<double>(dispatches - fallbacks);
    m.Set("core.covered_fraction", covered_sum / std::max(1.0, sparse), "ratio");
    m.Set("core.fallback_ratio", static_cast<double>(fallbacks) / std::max<double>(1, dispatches),
          "ratio");
    m.Set("core.jit_hit_ratio",
          static_cast<double>(compiler->cache_hits() - hits0) / std::max<double>(1, dispatches),
          "ratio");
    m.Set("core.kernels_compiled", static_cast<double>(compiler->kernels_compiled() - compiled0),
          "count");
    m.Set("core.dispatches", static_cast<double>(dispatches), "count");
    // Kernel selection: a dispatch on a shape the JIT cache has not seen,
    // minus the same dispatch again once cached.
    std::vector<double> select_ms;
    for (int64_t j = 1; j <= 5; ++j) {
      const Tensor a = SparseActivation(kOptM - j, kOptK, 0.99, rng);
      const int cold = tr.Begin("core.dispatch_cold", -1);
      const double t0 = NowUs();
      compiler->SparseMatmul(a, w.w_down);
      const double t1 = NowUs();
      tr.End(cold);
      const int warm = tr.Begin("core.dispatch_warm", -1);
      compiler->SparseMatmul(a, w.w_down);
      select_ms.push_back(((t1 - t0) - (NowUs() - t1)) / 1000.0);
      tr.End(warm);
    }
    m.Set("core.select_ms", Median(select_ms), "ms");
  }
  std::printf("pit_sparse_ops: ops=%lld sparse_dispatches=%lld fallback=%lld\n",
              static_cast<long long>(out.attempted), static_cast<long long>(dispatches),
              static_cast<long long>(fallbacks));
  return out;
}

}  // namespace pb
