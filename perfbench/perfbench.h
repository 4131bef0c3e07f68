// Shared pieces of the repository benchmark: clock, span tracer, metric
// table, percentiles, seeded input generators and output checks. The
// benchmark drives the library only through its public headers; everything
// here is the benchmark's own code.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "pit/common/rng.h"
#include "pit/tensor/tensor.h"

namespace pb {

// Microseconds on the steady clock since the first call in the process.
double NowUs();
// Sleeps until NowUs() reaches `t_us`.
void SleepUntilUs(double t_us);

// Nearest-rank percentile (q in (0, 1]) of `v`; 0 for an empty sample.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);

// Peak resident set of this process so far, MiB (getrusage).
double PeakRssMiB();

// ---- Tracing ---------------------------------------------------------------
//
// Spans recorded by the benchmark around its calls into each library layer.
// A span's name starts with its layer ("runtime.serve", "core.opt_ffn", ...).
// Spans of one operation share `op`; `parent` indexes the enclosing span
// (-1 for a root). When tracing is off every entry point returns at its first
// branch, so untraced runs pay one predictable branch per call site.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  int64_t op = -1;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  // Records a finished span and returns its index (-1 when off).
  int Add(const char* name, double start_us, double end_us, int64_t op, int parent = -1);
  // Opens a span now; End closes it. Both are no-ops when off.
  int Begin(const char* name, int64_t op, int parent = -1);
  void End(int index);
  size_t size() const { return spans_.size(); }
  // Self time of every span (duration minus the part of it that its children
  // cover), summed per span name, in microseconds.
  std::vector<std::pair<std::string, double>> SelfTimeByName() const;
  // Writes a Chrome trace-event file (loads in Perfetto / chrome://tracing).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
};

// ---- Results ---------------------------------------------------------------
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Ordered metric table; the first value set under a name wins, so a
// workload's own measurement takes precedence over a probe's.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // The metric of that name, or nullptr.
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& all() const { return all_; }

 private:
  std::vector<Metric> all_;
};

// One operation that ended ok and passed its check.
struct Sample {
  double at_s = 0.0;  // start on the timed clock (open loop: scheduled arrival)
  double latency_ms = 0.0;
  int64_t tokens = 0;  // real token rows
};

// What one workload run hands back to main.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Sample> samples;
  // The timed clock's length: wall time from the first scheduled arrival to
  // the last completion for the open loop (a growing backlog lengthens it),
  // the sum of the timed operation durations for the closed loops (checks
  // are not timed).
  double timed_s = 0.0;
  double setup_s = 0.0;  // median set-up time
  Metrics layer;         // per-layer metrics (traced runs)
};

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  Tracer* tracer = nullptr;  // never null; tracer->on() says whether to trace
  // Whether the run reports per-layer metrics (the traced run).
  bool traced() const { return tracer->on(); }
};

// Number of set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

// ---- Seeded inputs ---------------------------------------------------------

// Mixed alpaca / mnli request lengths, alternating. Each dataset's lengths
// are stratified draws from its distribution, so the length histogram barely
// moves between seeds while the lengths themselves and their order do.
std::vector<int64_t> MixedLengths(int64_t count, pit::Rng& rng);
// A request's own 0/1 attention mask: every token attends to itself and to
// each other token with probability 0.6.
pit::Tensor RequestMask(int64_t tokens, pit::Rng& rng);
// [rows, cols] with exactly round((1 - sparsity) * rows * cols) nonzeros in
// (-1, 1) at distinct seeded positions.
pit::Tensor SparseActivation(int64_t rows, int64_t cols, double sparsity, pit::Rng& rng);

// ---- Output checks ---------------------------------------------------------
bool BitwiseEqual(const pit::Tensor& a, const pit::Tensor& b);
// One output row c_row = a_row * b ([k] x [k, n]) against a float64
// reference, within the forward-error bound k * 2^-23 * sum_i |a_i b_ij| per
// element; a row of a with no nonzero must give an exactly zero row.
bool RowMatchesReference(const float* a_row, const pit::Tensor& b, const float* c_row,
                         int64_t k);

}  // namespace pb

#endif  // PERFBENCH_PERFBENCH_H_
