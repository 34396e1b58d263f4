#include "eval/explain.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/str_util.h"

namespace idl {

std::string EvalStats::ToString() const {
  return StrCat("scanned=", set_elements_scanned,
                " attrs=", attrs_enumerated, " cmp=", comparisons,
                " out=", substitutions_emitted, " negprobes=", negation_probes,
                " idxprobes=", index_probes, " idxbuilt=", indexes_built,
                " idxreused=", indexes_reused);
}

void EvalStats::BumpMetrics() const {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter* scanned = registry.counter("eval.set_elements_scanned");
  static Counter* attrs = registry.counter("eval.attrs_enumerated");
  static Counter* cmp = registry.counter("eval.comparisons");
  static Counter* out = registry.counter("eval.substitutions_emitted");
  static Counter* negprobes = registry.counter("eval.negation_probes");
  static Counter* idxprobes = registry.counter("eval.index_probes");
  static Counter* idxbuilt = registry.counter("eval.indexes_built");
  static Counter* idxreused = registry.counter("eval.indexes_reused");
  scanned->Increment(set_elements_scanned);
  attrs->Increment(attrs_enumerated);
  cmp->Increment(comparisons);
  out->Increment(substitutions_emitted);
  negprobes->Increment(negation_probes);
  idxprobes->Increment(index_probes);
  idxbuilt->Increment(indexes_built);
  idxreused->Increment(indexes_reused);
}

namespace {

std::string FormatMs(double ms) {
  // Two decimals, no locale surprises.
  int64_t hundredths = static_cast<int64_t>(ms * 100.0 + 0.5);
  return StrCat(hundredths / 100, ".", (hundredths % 100) < 10 ? "0" : "",
                hundredths % 100);
}

}  // namespace

std::string FormatMaintenanceStats(const MaintenanceStats& s) {
  return StrCat("maintenance: deltas=", s.deltas_applied,
                " rederived=", s.rederived,
                " strata_skipped=", s.strata_skipped,
                " strata_rederived=", s.strata_rederived,
                " fallbacks=", s.fallbacks, "\n");
}

namespace {

// Right-aligns `rows` (first row is the header) into a terminal table.
std::string AlignRows(const std::vector<std::vector<std::string>>& rows) {
  std::vector<size_t> width(rows[0].size(), 0);
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::string out;
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) out += "  ";
      out.append(width[c] - rows[r][c].size(), ' ');  // right-align
      out += rows[r][c];
    }
    out += '\n';
    if (r == 0) {
      for (size_t c = 0; c < width.size(); ++c) {
        if (c > 0) out += "  ";
        out.append(width[c], '-');
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace

std::string FormatSiteStats(const std::vector<SiteStats>& sites) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"site", "reqs", "hits", "misses", "retries", "timeouts",
                  "failures", "shipped", "pulled", "state"});
  SiteStats total;
  for (const auto& s : sites) {
    rows.push_back({s.site, StrCat(s.requests), StrCat(s.cache_hits),
                    StrCat(s.cache_misses), StrCat(s.retries),
                    StrCat(s.timeouts), StrCat(s.failures),
                    StrCat(s.shipped_subgoals), StrCat(s.pulled_exports),
                    s.degraded ? "degraded" : "ok"});
    total.requests += s.requests;
    total.cache_hits += s.cache_hits;
    total.cache_misses += s.cache_misses;
    total.retries += s.retries;
    total.timeouts += s.timeouts;
    total.failures += s.failures;
    total.shipped_subgoals += s.shipped_subgoals;
    total.pulled_exports += s.pulled_exports;
  }
  rows.push_back({"total", StrCat(total.requests), StrCat(total.cache_hits),
                  StrCat(total.cache_misses), StrCat(total.retries),
                  StrCat(total.timeouts), StrCat(total.failures),
                  StrCat(total.shipped_subgoals), StrCat(total.pulled_exports),
                  ""});
  return AlignRows(rows);
}

std::string FormatStratumStats(const std::vector<StratumStats>& strata) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"stratum", "rules", "passes", "rec", "subs", "skipped",
                  "delta", "par", "wall_ms"});
  StratumStats total;
  for (const auto& s : strata) {
    rows.push_back({StrCat(s.stratum), StrCat(s.rules), StrCat(s.passes),
                    s.recursive ? "yes" : "no", StrCat(s.substitutions),
                    StrCat(s.substitutions_skipped), StrCat(s.delta_facts),
                    StrCat(s.parallel_tasks), FormatMs(s.wall_ms)});
    total.rules += s.rules;
    total.passes += s.passes;
    total.substitutions += s.substitutions;
    total.substitutions_skipped += s.substitutions_skipped;
    total.delta_facts += s.delta_facts;
    total.parallel_tasks += s.parallel_tasks;
    total.wall_ms += s.wall_ms;
  }
  rows.push_back({"total", StrCat(total.rules), StrCat(total.passes), "",
                  StrCat(total.substitutions),
                  StrCat(total.substitutions_skipped),
                  StrCat(total.delta_facts), StrCat(total.parallel_tasks),
                  FormatMs(total.wall_ms)});
  return AlignRows(rows);
}

std::string FormatAnalyze(const std::vector<StratumStats>& strata,
                          double wall_ms, double cpu_ms, bool mask_timings) {
  auto ms = [mask_timings](double v) {
    return mask_timings ? std::string("-") : FormatMs(v);
  };
  auto trailer_ms = [mask_timings](double v) {
    return mask_timings ? std::string("-") : StrCat(FormatMs(v), "ms");
  };
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"stratum", "rule", "head", "passes", "subs", "enum_ms",
                  "write_ms", "wall_ms", "cpu_ms"});
  double strata_wall = 0.0;
  double strata_cpu = 0.0;
  for (const auto& s : strata) {
    rows.push_back({StrCat(s.stratum), "-", "-", StrCat(s.passes),
                    StrCat(s.substitutions), "-", "-", ms(s.wall_ms),
                    ms(s.cpu_ms)});
    strata_wall += s.wall_ms;
    strata_cpu += s.cpu_ms;
    for (const auto& r : s.rule_timings) {
      rows.push_back({StrCat(s.stratum), StrCat(r.rule), r.head,
                      StrCat(r.passes), StrCat(r.substitutions),
                      ms(r.enumerate_ms), ms(r.write_ms), "-", "-"});
    }
  }
  rows.push_back({"total", "-", "-", "", "", "", "", ms(strata_wall),
                  ms(strata_cpu)});
  return StrCat(AlignRows(rows), "analyze: wall=", trailer_ms(wall_ms),
                " cpu=", trailer_ms(cpu_ms),
                " strata_wall=", trailer_ms(strata_wall), "\n");
}

}  // namespace idl
