#include "perfbench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "pit/workloads/seq_len.h"

namespace pb {

namespace {
std::chrono::steady_clock::time_point Epoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}
}  // namespace

double NowUs() {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - Epoch())
      .count();
}

void SleepUntilUs(double t_us) {
  std::this_thread::sleep_until(
      Epoch() + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::micro>(t_us)));
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---- Tracer ------------------------------------------------------------------

int Tracer::Add(const char* name, double start_us, double end_us, int64_t op, int parent) {
  if (!on_) {
    return -1;
  }
  spans_.push_back(Span{name, start_us, end_us, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::Begin(const char* name, int64_t op, int parent) {
  if (!on_) {
    return -1;
  }
  const double now = NowUs();
  return Add(name, now, now, op, parent);
}

void Tracer::End(int index) {
  if (!on_ || index < 0) {
    return;
  }
  spans_[static_cast<size_t>(index)].end_us = NowUs();
}

std::vector<std::pair<std::string, double>> Tracer::SelfTimeByName() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(static_cast<int>(i));
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> iv;
    for (int c : children[i]) {
      const Span& k = spans_[static_cast<size_t>(c)];
      const double a = std::max(k.start_us, s.start_us);
      const double b = std::min(k.end_us, s.end_us);
      if (b > a) {
        iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_a = 0.0;
    double cur_b = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        covered += std::max(0.0, cur_b - cur_a);
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    covered += std::max(0.0, cur_b - cur_a);
    self[s.name] += std::max(0.0, (s.end_us - s.start_us) - covered);
  }
  return {self.begin(), self.end()};
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  // One track per operation keeps each track's spans properly nested.
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,\"op\":%lld}}\n",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<int>(s.name.find('.') == std::string::npos ? s.name.size()
                                                                        : s.name.find('.')),
                 s.name.c_str(), static_cast<long long>(s.op + 1), s.start_us,
                 s.end_us - s.start_us, i, s.parent, static_cast<long long>(s.op));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// ---- Metrics -----------------------------------------------------------------

void Metrics::Set(const std::string& name, double value, const std::string& unit) {
  if (Find(name) == nullptr) {
    all_.push_back(Metric{name, value, unit});
  }
}

const Metric* Metrics::Find(const std::string& name) const {
  const auto it =
      std::find_if(all_.begin(), all_.end(), [&](const Metric& m) { return m.name == name; });
  return it == all_.end() ? nullptr : &*it;
}

// ---- Inputs ------------------------------------------------------------------

namespace {

// Standard normal quantile by bisection on the CDF (inputs are drawn once per
// run, so speed does not matter).
double NormalQuantile(double u) {
  double lo = -9.0;
  double hi = 9.0;
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    (0.5 * std::erfc(-mid / std::sqrt(2.0)) < u ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

// `count` lengths of `dist` (the lognormal of pit::SampleBatchLens), one from
// each of `count` equal-probability strata in seeded order.
std::vector<int64_t> StratifiedLengths(const pit::SeqLenDistribution& dist, int64_t count,
                                       pit::Rng& rng) {
  std::vector<int64_t> stratum(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    stratum[static_cast<size_t>(i)] = i;
  }
  for (size_t i = stratum.size(); i > 1; --i) {
    std::swap(stratum[i - 1], stratum[rng.NextBelow(i)]);
  }
  const double mu = std::log(dist.mean) - 0.5 * dist.sigma * dist.sigma;
  std::vector<int64_t> lens;
  for (int64_t s : stratum) {
    const double u = (static_cast<double>(s) + rng.NextDouble()) / static_cast<double>(count);
    const double x = std::exp(mu + dist.sigma * NormalQuantile(u));
    lens.push_back(std::clamp<int64_t>(std::llround(x), dist.min_len, dist.max_len));
  }
  return lens;
}

}  // namespace

std::vector<int64_t> MixedLengths(int64_t count, pit::Rng& rng) {
  const std::vector<int64_t> alpaca =
      StratifiedLengths(pit::DatasetSeqLens("alpaca"), (count + 1) / 2, rng);
  const std::vector<int64_t> mnli = StratifiedLengths(pit::DatasetSeqLens("mnli"), count / 2, rng);
  std::vector<int64_t> lens;
  for (int64_t i = 0; i < count; ++i) {
    const auto k = static_cast<size_t>(i / 2);
    lens.push_back(i % 2 == 0 ? alpaca[k] : mnli[k]);
  }
  return lens;
}

pit::Tensor RequestMask(int64_t tokens, pit::Rng& rng) {
  pit::Tensor mask({tokens, tokens});
  for (int64_t r = 0; r < tokens; ++r) {
    for (int64_t c = 0; c < tokens; ++c) {
      mask.At(r, c) = (r == c || rng.NextBool(0.6)) ? 1.0f : 0.0f;
    }
  }
  return mask;
}

pit::Tensor SparseActivation(int64_t rows, int64_t cols, double sparsity, pit::Rng& rng) {
  pit::Tensor t({rows, cols});
  const int64_t total = rows * cols;
  const auto nnz = static_cast<int64_t>(std::llround((1.0 - sparsity) * static_cast<double>(total)));
  int64_t placed = 0;
  while (placed < nnz) {
    const auto pos = static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(total)));
    if (t[pos] == 0.0f) {
      float v = rng.NextFloat(-1.0f, 1.0f);
      t[pos] = v == 0.0f ? 0.5f : v;
      ++placed;
    }
  }
  return t;
}

// ---- Checks ------------------------------------------------------------------

bool BitwiseEqual(const pit::Tensor& a, const pit::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

bool RowMatchesReference(const float* a_row, const pit::Tensor& b, const float* c_row,
                         int64_t k) {
  const int64_t n = b.dim(1);
  std::vector<double> ref(static_cast<size_t>(n), 0.0);
  std::vector<double> mag(static_cast<size_t>(n), 0.0);
  for (int64_t i = 0; i < k; ++i) {
    if (a_row[i] == 0.0f) {
      continue;  // contributes exact zeros
    }
    const auto a = static_cast<double>(a_row[i]);
    const float* b_row = b.data() + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const double p = a * static_cast<double>(b_row[j]);
      ref[static_cast<size_t>(j)] += p;
      mag[static_cast<size_t>(j)] += std::fabs(p);
    }
  }
  // A row with no nonzero input has mag == 0, so its output must be exactly 0.
  const double unit = std::ldexp(1.0, -23) * static_cast<double>(k);
  for (int64_t j = 0; j < n; ++j) {
    const auto jj = static_cast<size_t>(j);
    if (!(std::fabs(static_cast<double>(c_row[j]) - ref[jj]) <= unit * mag[jj])) {
      return false;
    }
  }
  return true;
}

}  // namespace pb
