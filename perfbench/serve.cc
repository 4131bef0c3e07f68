// The two serving workloads: serve_xf_open (open loop, ragged batching over a
// planned transformer stack) and serve_ffn_pit (closed loop, 1:1 admission
// over a PIT FFN stack).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "pit/common/parallel_for.h"
#include "pit/runtime/serving_engine.h"
#include "workloads.h"

namespace pb {
namespace {

using pit::PlannedFfnStack;
using pit::PlannedTransformerStack;
using pit::ServeOutcome;
using pit::ServeRequest;
using pit::ServeStatus;
using pit::ServingEngine;
using pit::ServingEngineOptions;
using pit::ServingEngineStats;
using pit::Tensor;

// serve_xf_open: a pool of distinct requests that arrivals draw from, every
// fourth one carrying its own attention mask; the engine packs up to
// kXfWindow consecutive requests into forwards of at most kXfBatchTokens rows.
constexpr int64_t kXfPool = 96;
constexpr int kXfWindow = 8;
constexpr int kXfBatchTokens = 512;
// Two streams, one per pool thread: two requests in flight at once.
constexpr int kXfStreams = 2;
// serve_ffn_pit: the list served over and over, kFfnCall requests per
// Serve call (four offline batches per pass, of near-equal token counts).
constexpr int64_t kFfnList = 64;
constexpr int64_t kFfnCall = 16;
// Tolerance of a PIT FFN output against the stack's dense eager forward:
// |y - y_eager| <= kFfnTol * (1 + |y_eager|) element-wise.
constexpr double kFfnTol = 1e-4;

uint64_t SubSeed(uint64_t seed, uint64_t salt) { return seed * 0x9E3779B97F4A7C15ull + salt; }

struct EngineTotals {
  int64_t requests = 0, batches = 0, hits = 0, misses = 0, packed = 0, computed = 0;
};

EngineTotals Totals(const ServingEngineStats& s) {
  EngineTotals t;
  t.requests = s.requests;
  t.batches = s.batches;
  for (const pit::ServingBucketStats& b : s.buckets) {
    t.hits += b.plan_hits;
    t.misses += b.plan_misses;
    t.packed += b.packed_tokens;
    t.computed += b.computed_tokens;
  }
  return t;
}

// runtime.* metrics from the engine's public counters over the timed window.
void ReportEngine(const EngineTotals& a, const EngineTotals& b, const ServingEngineStats& s,
                  Metrics* m) {
  const auto forwards = static_cast<double>(b.batches - a.batches);
  const auto lookups = static_cast<double>((b.hits - a.hits) + (b.misses - a.misses));
  const auto real = static_cast<double>(b.packed - a.packed);
  const auto computed = static_cast<double>(b.computed - a.computed);
  m->Set("runtime.requests_per_forward",
         static_cast<double>(b.requests - a.requests) / std::max(1.0, forwards), "count");
  m->Set("runtime.forwards", forwards, "count");
  m->Set("runtime.packed_utilization", real / std::max(1.0, computed), "ratio");
  m->Set("runtime.real_rows", real, "count");
  m->Set("runtime.computed_rows", computed, "count");
  m->Set("runtime.plan_miss_ratio", static_cast<double>(b.misses - a.misses) / std::max(1.0, lookups),
         "ratio");
  m->Set("runtime.plan_misses", static_cast<double>(b.misses - a.misses), "count");
  m->Set("runtime.plan_lookups", lookups, "count");
  m->Set("runtime.pool_arena_mib_highwater",
         static_cast<double>(s.pool_arena_bytes_highwater) / (1024.0 * 1024.0), "MiB");
}

// ---- serve_xf_open -----------------------------------------------------------

struct XfPool {
  std::vector<int64_t> lens;
  std::vector<Tensor> masks;  // reserved up front: requests point into it
  std::vector<ServeRequest> requests;
  std::vector<Tensor> refs;   // each request served alone, 1 stream, 1:1
  std::vector<bool> ref_ok;
};

std::unique_ptr<PlannedTransformerStack> MakeXfStack(uint64_t seed) {
  pit::Rng wr(SubSeed(seed, 2));
  return std::make_unique<PlannedTransformerStack>(kLayers, kHidden, kHeads, kFfn, wr);
}

XfPool MakeXfPool(uint64_t seed) {
  XfPool pool;
  pit::Rng rng(SubSeed(seed, 1));
  pool.lens = MixedLengths(kXfPool, rng);
  pool.masks.reserve(static_cast<size_t>(kXfPool));
  for (int64_t i = 0; i < kXfPool; ++i) {
    const int64_t len = pool.lens[static_cast<size_t>(i)];
    ServeRequest req;
    req.x = Tensor::Random({len, kHidden}, rng);
    if (i % 4 == 3) {
      pool.masks.push_back(RequestMask(len, rng));
      req.attn_mask = &pool.masks.back();
    }
    pool.requests.push_back(std::move(req));
  }
  // The batch-composition oracle: each request served alone by a one-stream
  // 1:1 engine, on a separate stack with the same weights so that the served
  // stack's plan caches stay cold until set-up. A fresh engine per request
  // keeps the oracle's context pool, and so its memory, to one shape.
  const std::unique_ptr<PlannedTransformerStack> ref_stack = MakeXfStack(seed);
  ServingEngineOptions one;
  one.num_streams = 1;
  one.batch_window = 1;
  one.max_batch_tokens = kXfBatchTokens;
  for (const ServeRequest& req : pool.requests) {
    ServingEngine ref_engine(*ref_stack, one);
    ServeOutcome o = std::move(ref_engine.ServeWithStatus({req})[0]);
    pool.ref_ok.push_back(o.status == ServeStatus::kOk);
    pool.refs.push_back(std::move(o.output));
  }
  return pool;
}

int64_t PlanMisses(const ServingEngine& engine) { return Totals(engine.stats()).misses; }

// Serves the pool in calls of 1, 3, 8 and 16 requests until a full cycle of
// the four sizes compiles no plan (at most 4 cycles). A 16-request call spans
// two batch windows, so both streams pack full batches at once, as they do
// when arrivals bunch up: the contexts and arenas of that state are then
// allocated in set-up, not in the timed window.
void WarmXf(ServingEngine& engine, const std::vector<ServeRequest>& requests) {
  constexpr size_t kSizes[] = {1, 3, 8, 2 * kXfWindow};
  constexpr int kCycle = 4;
  int quiet = 0;
  for (int round = 0; round < 4 * kCycle && quiet < kCycle; ++round) {
    const int64_t before = PlanMisses(engine);
    const size_t size = kSizes[round % kCycle];
    for (size_t i = 0; i < requests.size(); i += size) {
      const std::vector<ServeRequest> call(
          requests.begin() + static_cast<std::ptrdiff_t>(i),
          requests.begin() + static_cast<std::ptrdiff_t>(std::min(i + size, requests.size())));
      engine.ServeWithStatus(call);
    }
    quiet = PlanMisses(engine) == before ? quiet + 1 : 0;
  }
}

// Packed batch compositions (request lengths per packed forward) formed the
// way the engine forms them: window-aligned spans of `window` consecutive
// requests, split greedily at `max_tokens` rows.
std::vector<std::vector<int64_t>> PackedCompositions(const std::vector<int64_t>& lens,
                                                     int window, int64_t max_tokens) {
  std::vector<std::vector<int64_t>> out;
  for (size_t s = 0; s < lens.size(); s += static_cast<size_t>(window)) {
    const size_t e = std::min(lens.size(), s + static_cast<size_t>(window));
    std::vector<int64_t> cur;
    int64_t rows = 0;
    for (size_t i = s; i < e; ++i) {
      if (!cur.empty() && rows + lens[i] > max_tokens) {
        out.push_back(std::move(cur));
        cur.clear();
        rows = 0;
      }
      cur.push_back(lens[i]);
      rows += lens[i];
    }
    if (!cur.empty()) {
      out.push_back(std::move(cur));
    }
  }
  return out;
}

}  // namespace

Outcome RunServeXfOpen(const RunConfig& cfg, double rate_hz) {
  Outcome out;
  Tracer& tr = *cfg.tracer;
  XfPool pool = MakeXfPool(cfg.seed);

  // Poisson arrivals over [0, seconds) conditioned on their count: given n
  // arrivals in the window, a Poisson process places them as n sorted
  // uniform draws. Fixing n = rate * seconds removes the run-to-run spread
  // of the count. Arrivals take the pool's requests in shuffled rounds, so
  // every request is offered equally often.
  pit::Rng arrivals_rng(SubSeed(cfg.seed, 3));
  const auto n = static_cast<size_t>(std::llround(rate_hz * cfg.seconds));
  std::vector<double> arrival_us(n);
  for (double& t : arrival_us) {
    t = arrivals_rng.NextDouble() * cfg.seconds * 1e6;
  }
  std::sort(arrival_us.begin(), arrival_us.end());
  std::vector<size_t> pick;
  while (pick.size() < n) {
    std::vector<size_t> round(static_cast<size_t>(kXfPool));
    for (size_t i = 0; i < round.size(); ++i) {
      round[i] = i;
    }
    for (size_t i = round.size(); i > 1; --i) {
      std::swap(round[i - 1], round[arrivals_rng.NextBelow(i)]);
    }
    pick.insert(pick.end(), round.begin(), round.end());
  }
  pick.resize(n);

  ServingEngineOptions opts;
  opts.num_streams = std::min(kXfStreams, pit::NumThreads());
  opts.batch_window = kXfWindow;
  opts.max_batch_tokens = kXfBatchTokens;
  std::unique_ptr<PlannedTransformerStack> stack;
  std::unique_ptr<ServingEngine> engine;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    engine.reset();
    stack.reset();
    const double t0 = NowUs();
    stack = MakeXfStack(cfg.seed);
    engine = std::make_unique<ServingEngine>(*stack, opts);
    WarmXf(*engine, pool.requests);
    setups.push_back((NowUs() - t0) / 1e6);
  }
  out.setup_s = Median(setups);
  const EngineTotals before = Totals(engine->stats());

  out.attempted = static_cast<int64_t>(n);
  const double base = NowUs() + 1000.0;
  std::vector<double> due(n);
  for (size_t i = 0; i < n; ++i) {
    due[i] = base + arrival_us[i];
  }
  std::vector<double> done_us(n, 0.0);
  double last_done = base;
  std::vector<double> queue_ms;
  std::vector<double> call_ms;
  std::vector<double> late_ms;
  std::vector<int64_t> served_lens;  // request lengths in submission order
  struct Pending {
    size_t op;
    ServeOutcome outcome;
  };
  std::vector<Pending> pending;

  // Checks run while the generator is idle (nothing has arrived), so they
  // never delay a submission.
  auto verify = [&] {
    const int span = tr.Begin("bench.check", -1);
    for (Pending& p : pending) {
      const size_t k = pick[p.op];
      if (p.outcome.status == ServeStatus::kOk && pool.ref_ok[k] &&
          BitwiseEqual(p.outcome.output, pool.refs[k])) {
        out.samples.push_back(
            Sample{arrival_us[p.op] / 1e6, (done_us[p.op] - due[p.op]) / 1000.0, pool.lens[k]});
      } else {
        ++out.failed;
      }
    }
    pending.clear();
    tr.End(span);
  };

  size_t next = 0;
  std::vector<ServeRequest> call;
  std::vector<int64_t> first_pos(static_cast<size_t>(kXfPool), -1);
  while (true) {
    const double now = NowUs();
    if (next < n && due[next] <= now) {
      // Everything that has arrived goes to one call. A pool request's
      // tensor moves into the call and back; a second arrival of the same
      // request within one call gets a copy.
      size_t end = next;
      while (end < n && due[end] <= now) {
        ++end;
      }
      call.clear();
      for (size_t i = next; i < end; ++i) {
        ServeRequest& src = pool.requests[pick[i]];
        ServeRequest req;
        req.attn_mask = src.attn_mask;
        int64_t& pos = first_pos[pick[i]];
        if (pos < 0) {
          pos = static_cast<int64_t>(call.size());
          req.x = std::move(src.x);
        } else {
          req.x = call[static_cast<size_t>(pos)].x;
        }
        call.push_back(std::move(req));
      }
      const double submit = NowUs();
      std::vector<ServeOutcome> got = engine->ServeWithStatus(call);
      const double done = NowUs();
      for (size_t i = next; i < end; ++i) {
        int64_t& pos = first_pos[pick[i]];
        if (pos >= 0) {
          pool.requests[pick[i]].x = std::move(call[static_cast<size_t>(pos)].x);
          pos = -1;
        }
        done_us[i] = done;
        served_lens.push_back(pool.lens[pick[i]]);
        if (cfg.traced()) {
          queue_ms.push_back((submit - due[i]) / 1000.0);
          const int root = tr.Add("request", due[i], done, static_cast<int64_t>(i));
          tr.Add("runtime.queue_wait", due[i], submit, static_cast<int64_t>(i), root);
          tr.Add("runtime.serve", submit, done, static_cast<int64_t>(i), root);
        }
        pending.push_back(Pending{i, std::move(got[i - next])});
      }
      call_ms.push_back((done - submit) / 1000.0);
      last_done = done;
      next = end;
      continue;
    }
    if (!pending.empty()) {
      verify();
      continue;
    }
    if (next >= n) {
      break;
    }
    const int idle = tr.Begin("loadgen.idle", -1);
    SleepUntilUs(due[next]);
    late_ms.push_back((NowUs() - due[next]) / 1000.0);
    tr.End(idle);
  }
  out.timed_s = (last_done - base) / 1e6;

  if (cfg.traced()) {
    Metrics& m = out.layer;
    m.Set("runtime.queue_wait_ms_p50", Median(queue_ms), "ms");
    m.Set("runtime.serve_call_ms_p50", Median(call_ms), "ms");
    ReportEngine(before, Totals(engine->stats()), engine->stats(), &m);
    m.Set("loadgen.late_ms_p99", Percentile(late_ms, 0.99), "ms");
    ProbePack(PackedCompositions(served_lens, kXfWindow, kXfBatchTokens), cfg.seed, &tr, &m);
  }
  std::printf("serve_xf_open: rate=%.1f/s streams=%d window=%d max_tokens=%d pool=%lld "
              "arrivals=%zu calls=%zu late_p99_ms=%.3f\n",
              rate_hz, opts.num_streams, kXfWindow, kXfBatchTokens,
              static_cast<long long>(kXfPool), n, call_ms.size(), Percentile(late_ms, 0.99));
  return out;
}

// ---- serve_ffn_pit -----------------------------------------------------------

Outcome RunServeFfnPit(const RunConfig& cfg) {
  Outcome out;
  Tracer& tr = *cfg.tracer;
  pit::Rng rng(SubSeed(cfg.seed, 11));
  const std::vector<int64_t> lens = MixedLengths(kFfnList, rng);
  std::vector<ServeRequest> list;
  for (int64_t len : lens) {
    ServeRequest req;
    req.x = Tensor::Random({len, kHidden}, rng);
    list.push_back(std::move(req));
  }
  // The requests, longest first, are dealt to the calls in snake order, so
  // every call carries about the same number of tokens on every seed: the
  // slowest call, which sets the p99, is then not a matter of the seed.
  std::vector<size_t> by_len(list.size());
  for (size_t i = 0; i < by_len.size(); ++i) {
    by_len[i] = i;
  }
  std::stable_sort(by_len.begin(), by_len.end(),
                   [&](size_t a, size_t b) { return lens[a] > lens[b]; });
  const size_t num_calls = list.size() / static_cast<size_t>(kFfnCall);
  std::vector<std::vector<size_t>> members(num_calls);
  for (size_t k = 0; k < by_len.size(); ++k) {
    const size_t pos = k % num_calls;
    members[(k / num_calls) % 2 == 0 ? pos : num_calls - 1 - pos].push_back(by_len[k]);
  }
  std::vector<std::vector<ServeRequest>> calls(num_calls);
  for (size_t c = 0; c < num_calls; ++c) {
    for (size_t i : members[c]) {
      calls[c].push_back(list[i]);
    }
  }
  // One pass over the list, call by call; outcomes in list order.
  auto serve_pass = [&](ServingEngine& engine) {
    std::vector<ServeOutcome> got(list.size());
    for (size_t c = 0; c < num_calls; ++c) {
      std::vector<ServeOutcome> o = engine.ServeWithStatus(calls[c]);
      for (size_t j = 0; j < o.size(); ++j) {
        got[members[c][j]] = std::move(o[j]);
      }
    }
    return got;
  };
  auto make_stack = [&] {
    pit::Rng wr(SubSeed(cfg.seed, 12));
    return std::make_unique<PlannedFfnStack>(kLayers, kHidden, kFfn, wr);
  };
  // Dense eager oracle on a separate stack with the same weights.
  std::vector<Tensor> eager;
  {
    const std::unique_ptr<PlannedFfnStack> ref = make_stack();
    for (const ServeRequest& req : list) {
      eager.push_back(ref->ForwardEager(req.x));
    }
  }

  ServingEngineOptions opts;
  opts.num_streams = pit::NumThreads();
  opts.use_pit = true;
  opts.batch_window = 1;
  opts.max_batch_tokens = kXfBatchTokens;
  std::unique_ptr<PlannedFfnStack> stack;
  std::unique_ptr<ServingEngine> engine;
  std::vector<ServeOutcome> first;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    engine.reset();
    stack.reset();
    const double t0 = NowUs();
    stack = make_stack();
    engine = std::make_unique<ServingEngine>(*stack, opts);
    // Plan misses never stop here (about 50 lengths against 16-shape pools);
    // two passes compile the PIT kernels every length needs.
    serve_pass(*engine);
    first = serve_pass(*engine);
    setups.push_back((NowUs() - t0) / 1e6);
  }
  out.setup_s = Median(setups);
  // A request whose reference serve is wrong fails on every serve.
  std::vector<bool> ref_ok(list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    bool ok = first[i].status == ServeStatus::kOk && first[i].output.shape() == eager[i].shape();
    for (int64_t e = 0; ok && e < eager[i].size(); ++e) {
      ok = std::fabs(static_cast<double>(first[i].output[e]) - eager[i][e]) <=
           kFfnTol * (1.0 + std::fabs(static_cast<double>(eager[i][e])));
    }
    ref_ok[i] = ok;
  }

  const EngineTotals before = Totals(engine->stats());
  std::vector<double> call_ms;
  double timed_us = 0.0;
  int64_t serves = 0;
  // Whole passes only, so every run attempts the same mix.
  while (timed_us < cfg.seconds * 1e6 || serves % static_cast<int64_t>(num_calls) != 0) {
    const auto c = static_cast<size_t>(serves % static_cast<int64_t>(num_calls));
    const double submit = NowUs();
    const std::vector<ServeOutcome> got = engine->ServeWithStatus(calls[c]);
    const double done = NowUs();
    timed_us += done - submit;
    call_ms.push_back((done - submit) / 1000.0);
    tr.Add("runtime.serve", submit, done, serves);
    const int check = tr.Begin("bench.check", serves);
    for (size_t j = 0; j < got.size(); ++j) {
      const size_t i = members[c][j];
      if (ref_ok[i] && got[j].status == ServeStatus::kOk &&
          BitwiseEqual(got[j].output, first[i].output)) {
        out.samples.push_back(Sample{(timed_us - (done - submit)) / 1e6, (done - submit) / 1000.0, lens[i]});
      } else {
        ++out.failed;
      }
    }
    tr.End(check);
    out.attempted += static_cast<int64_t>(got.size());
    ++serves;
  }
  out.timed_s = timed_us / 1e6;

  std::vector<int64_t> distinct = lens;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  if (cfg.traced()) {
    Metrics& m = out.layer;
    m.Set("runtime.serve_call_ms_p50", Median(call_ms), "ms");
    ReportEngine(before, Totals(engine->stats()), engine->stats(), &m);
  }
  std::printf("serve_ffn_pit: list=%lld per_call=%lld distinct_lengths=%zu streams=%d calls=%lld\n",
              static_cast<long long>(kFfnList), static_cast<long long>(kFfnCall), distinct.size(),
              opts.num_streams, static_cast<long long>(serves));
  return out;
}

}  // namespace pb
