#include "measure.h"

#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double MsSince(Clock::time_point t0) { return MsBetween(t0, Clock::now()); }

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0.0;
  if (!std::is_sorted(values_.begin(), values_.end())) {
    std::sort(values_.begin(), values_.end());
  }
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values_.size())));
  if (rank == 0) rank = 1;
  return values_[std::min(rank, values_.size()) - 1];
}

bool Samples::Supports(double q) const {
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values_.size())));
  return values_.size() >= rank + 10;
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  return static_cast<bool>(clear.flush());
}

namespace {

// The first number after `key` in a "key: value" /proc file.
uint64_t ProcField(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      std::istringstream rest(line.substr(key.size()));
      uint64_t value = 0;
      rest >> value;
      return value;
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() {
  return static_cast<double>(ProcField("/proc/self/status", "VmHWM:")) /
         1024.0;
}

uint64_t ProcessWriteBytes() { return ProcField("/proc/self/io", "wchar:"); }

void ReleaseFreeMemory() { malloc_trim(0); }

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
