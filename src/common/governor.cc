#include "common/governor.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/str_util.h"

namespace idl {

namespace {

// Internal abort classification, stored as one atomic int so every
// checkpoint after the first failure repeats the same status.
enum AbortReason : int {
  kNone = 0,
  kAbortCancelled,
  kAbortInjected,  // cancel_at_checkpoint seam; reported as kCancelled
  kAbortDeadline,
  kAbortPasses,
  kAbortDerivations,
  kAbortCells,
};

// Messages carry the configured limit, never a live counter: the library's
// semi-naive fixpoint and the naive reference evaluator the tests compare it
// against reach a budget at different counter values, and the golden corpus
// requires both to reject a request with the same text.
Status StatusFor(int reason, const GovernorLimits& limits) {
  switch (reason) {
    case kNone:
      return Status::Ok();
    case kAbortCancelled:
      return Cancelled("request cancelled");
    case kAbortInjected:
      return Cancelled(StrCat("request cancelled (injected at checkpoint ",
                              limits.cancel_at_checkpoint, ")"));
    case kAbortDeadline:
      return DeadlineExceeded(
          StrCat("request exceeded its deadline (deadline_ms=",
                 limits.deadline_ms, ")"));
    case kAbortPasses:
      return ResourceExhausted(
          StrCat("fixpoint did not converge within max_passes=",
                 limits.max_passes));
    case kAbortDerivations:
      return ResourceExhausted(
          StrCat("evaluation exceeded max_derivations=",
                 limits.max_derivations));
    case kAbortCells:
      return ResourceExhausted(
          StrCat("universe exceeded max_universe_cells=",
                 limits.max_universe_cells));
  }
  return Internal("unknown governor abort reason");
}

// The wall clock is consulted on every stride-th checkpoint (and on every
// explicit budget charge), keeping the fast path to two relaxed atomics.
constexpr uint64_t kTimeCheckStride = 16;

const char* AbortMetricName(int reason) {
  switch (reason) {
    case kAbortCancelled:
    case kAbortInjected:
      return "governor.aborts.cancelled";
    case kAbortDeadline:
      return "governor.aborts.deadline";
    case kAbortPasses:
      return "governor.aborts.passes";
    case kAbortDerivations:
      return "governor.aborts.derivations";
    case kAbortCells:
      return "governor.aborts.cells";
  }
  return "governor.aborts.other";
}

// Stores the abort reason and, iff this is the governor's *first* abort
// (exchange saw kNone), bumps the per-reason process metric — sticky
// repeats at later checkpoints must not inflate the count.
void RecordAbort(std::atomic<int>& abort_code, int reason) {
  if (abort_code.exchange(reason, std::memory_order_relaxed) == kNone) {
    MetricsRegistry::Global().counter(AbortMetricName(reason))->Increment();
  }
}

}  // namespace

ResourceGovernor::ResourceGovernor(const GovernorLimits& limits,
                                   CancelHandle cancel,
                                   const ResourceGovernor* parent)
    : limits_(limits),
      cancel_(std::move(cancel)),
      parent_(parent),
      start_(std::chrono::steady_clock::now()),
      deadline_(limits.deadline_ms > 0
                    ? start_ + std::chrono::milliseconds(limits.deadline_ms)
                    : start_) {}

Status ResourceGovernor::CheckNow(bool check_time) const {
  int aborted = abort_code_.load(std::memory_order_relaxed);
  if (aborted != kNone) return StatusFor(aborted, limits_);
  int reason = kNone;
  if (cancel_.flag_->load(std::memory_order_relaxed)) {
    reason = kAbortCancelled;
  } else if (limits_.cancel_at_checkpoint > 0 &&
             checkpoints_.load(std::memory_order_relaxed) >=
                 limits_.cancel_at_checkpoint) {
    reason = kAbortInjected;
  } else if (check_time && limits_.deadline_ms > 0 &&
             std::chrono::steady_clock::now() >= deadline_) {
    reason = kAbortDeadline;
  }
  if (reason != kNone) {
    RecordAbort(abort_code_, reason);
    return StatusFor(reason, limits_);
  }
  if (parent_ != nullptr) {
    Status from_parent = parent_->Checkpoint();
    if (!from_parent.ok()) {
      // Sticky here too: the child keeps failing even if it later runs
      // checkpoints faster than the parent. The parent already counted the
      // abort in the metrics, so the child only records the code.
      abort_code_.store(kAbortCancelled, std::memory_order_relaxed);
      return from_parent;
    }
  }
  return Status::Ok();
}

Status ResourceGovernor::Checkpoint() const {
  uint64_t n = checkpoints_.fetch_add(1, std::memory_order_relaxed) + 1;
  return CheckNow(/*check_time=*/n % kTimeCheckStride == 0 || n == 1);
}

Status ResourceGovernor::CheckDeadlineNow() const {
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return CheckNow(/*check_time=*/true);
}

Status ResourceGovernor::ChargePass() const {
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  IDL_RETURN_IF_ERROR(CheckNow(/*check_time=*/true));
  int used = passes_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (limits_.max_passes > 0 && used > limits_.max_passes) {
    RecordAbort(abort_code_, kAbortPasses);
    return StatusFor(kAbortPasses, limits_);
  }
  return Status::Ok();
}

Status ResourceGovernor::ChargeDerivations(uint64_t n) const {
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  IDL_RETURN_IF_ERROR(CheckNow(/*check_time=*/false));
  uint64_t used = derivations_.fetch_add(n, std::memory_order_relaxed) + n;
  if (limits_.max_derivations > 0 && used > limits_.max_derivations) {
    RecordAbort(abort_code_, kAbortDerivations);
    return StatusFor(kAbortDerivations, limits_);
  }
  return Status::Ok();
}

Status ResourceGovernor::ChargeCells(uint64_t n) const {
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  IDL_RETURN_IF_ERROR(CheckNow(/*check_time=*/false));
  uint64_t used = cells_.fetch_add(n, std::memory_order_relaxed) + n;
  if (limits_.max_universe_cells > 0 && used > limits_.max_universe_cells) {
    RecordAbort(abort_code_, kAbortCells);
    return StatusFor(kAbortCells, limits_);
  }
  return Status::Ok();
}

int64_t ResourceGovernor::RemainingMs() const {
  int64_t remaining = -1;
  if (limits_.deadline_ms > 0) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline_ - std::chrono::steady_clock::now())
                    .count();
    remaining = left < 0 ? 0 : left;
  }
  if (parent_ != nullptr) {
    int64_t from_parent = parent_->RemainingMs();
    if (from_parent >= 0) {
      remaining = remaining < 0 ? from_parent
                                : std::min(remaining, from_parent);
    }
  }
  return remaining;
}

bool ResourceGovernor::cancelled() const {
  return cancel_.flag_->load(std::memory_order_relaxed) ||
         (parent_ != nullptr && parent_->cancelled());
}

GovernorUsage ResourceGovernor::Usage() const {
  GovernorUsage usage;
  usage.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  usage.passes = passes_.load(std::memory_order_relaxed);
  usage.derivations = derivations_.load(std::memory_order_relaxed);
  usage.peak_cells = cells_.load(std::memory_order_relaxed);
  usage.remaining_ms = RemainingMs();
  int aborted = abort_code_.load(std::memory_order_relaxed);
  if (aborted != kNone) {
    usage.abort_reason = StatusFor(aborted, limits_).ToString();
  }
  return usage;
}

std::string FormatGovernorUsage(const GovernorUsage& usage,
                                const GovernorLimits& limits) {
  auto bound = [](uint64_t limit) {
    return limit == 0 ? std::string("-") : StrCat(limit);
  };
  return StrCat(
      "governor: passes=", usage.passes, "/",
      bound(static_cast<uint64_t>(limits.max_passes)),
      " derivations=", usage.derivations, "/", bound(limits.max_derivations),
      " cells=", usage.peak_cells, "/", bound(limits.max_universe_cells),
      " checkpoints=", usage.checkpoints, " remaining_ms=",
      usage.remaining_ms < 0 ? std::string("-") : StrCat(usage.remaining_ms),
      " status=",
      usage.abort_reason.empty() ? std::string("completed")
                                 : usage.abort_reason,
      "\n");
}

}  // namespace idl
