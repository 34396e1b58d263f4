// Measurement helpers of the end-to-end benchmark: latency samples with
// guarded percentiles, process memory and I/O counters, span bookkeeping
// for the traced replay, and the result line.
#ifndef IDL_PERFBENCH_MEASURE_H_
#define IDL_PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b);
double MsSince(Clock::time_point t0);

// Latencies of one request type, in milliseconds.
class Samples {
 public:
  void Add(double ms) { values_.push_back(ms); }
  void Append(const Samples& other);
  size_t count() const { return values_.size(); }
  double Mean() const;
  double Median() const { return Percentile(0.5); }
  // Nearest-rank percentile. Only meaningful when Supports(q).
  double Percentile(double q) const;
  // True when at least ten samples lie beyond the q-th percentile — the
  // guard every reported percentile must pass (p99 needs 1000 samples).
  bool Supports(double q) const;

 private:
  mutable std::vector<double> values_;  // sorted lazily by Percentile
};

// Median of a handful of repeated measurements.
double MedianOf(std::vector<double> values);

// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so that a
// later PeakRssMb() reports the peak from this point on.
bool ResetPeakRss();
double PeakRssMb();
// Bytes this process has passed to write-like system calls (wchar in
// /proc/self/io).
uint64_t ProcessWriteBytes();
// Returns freed heap pages to the kernel, so that input generation does not
// inflate the resident set the server is measured in.
void ReleaseFreeMemory();

bool MakeDirs(const std::string& path);
void RemoveTree(const std::string& path);
uint64_t FileSize(const std::string& path);

// One named metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

// Prints the benchmark's last line:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::map<std::string, Metric>& metrics);

}  // namespace perfbench

#endif  // IDL_PERFBENCH_MEASURE_H_
