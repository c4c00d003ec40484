#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "util/status.h"

namespace aggchecker {

/// \brief Hard resource limits for one checking run (or one interactive
/// Refresh). A zero/negative limit means "unlimited" — the default-constructed
/// limits enforce nothing and a governor built from them never trips.
struct GovernorLimits {
  /// Wall-clock deadline for the whole run, measured from governor
  /// construction (or the last Reset()).
  double deadline_seconds = 0.0;
  /// Total rows the evaluation backend may scan (naive scans + cube scans).
  uint64_t max_row_scans = 0;
  /// Total cube groups the CUBE operator may materialize — bounds
  /// cube-explosion on high-cardinality dimension combinations.
  uint64_t max_cube_groups = 0;
  /// Approximate bytes of evaluation state (join materialization, cube
  /// combo/group accumulators, result cells) the backend may allocate.
  /// Charges are modeled sizes, not allocator truth: both cube execution
  /// modes charge the same canonical per-combo/per-group constants so
  /// reports stay mode- and thread-invariant.
  uint64_t max_memory_bytes = 0;

  bool unlimited() const {
    return deadline_seconds <= 0.0 && max_row_scans == 0 &&
           max_cube_groups == 0 && max_memory_bytes == 0;
  }
};

/// \brief Consumption counters exposed to reports, snapshot of a governor.
struct GovernorUsage {
  uint64_t rows_charged = 0;        ///< rows scanned under this governor
  uint64_t cube_groups_charged = 0; ///< cube groups materialized
  uint64_t memory_bytes_charged = 0; ///< modeled evaluation-state bytes
  /// Budget/deadline inspections performed. Diagnostic only: unlike the
  /// charge totals, the checkpoint count depends on how charges interleave
  /// across threads and is NOT identical across thread counts.
  uint64_t checkpoints = 0;
  bool exhausted = false;           ///< a limit tripped during the run
  /// kOk, or the code that stopped the run (kDeadlineExceeded /
  /// kBudgetExhausted).
  StatusCode stop_code = StatusCode::kOk;
};

/// \brief Cooperative cancellation token threaded through the evaluation
/// stack (executor scans, cube materialization, the EM loop).
///
/// Hot loops charge work in blocks (`ChargeRows`) or at structural points
/// (`ChargeCubeGroups`, `CheckPoint`); when a limit trips, the charge call
/// returns kDeadlineExceeded / kBudgetExhausted and the caller unwinds with
/// that Status. Layers above translate the stop into partial results rather
/// than errors (ClaimVerdict::partial).
///
/// Cost model: charge calls only *inspect* limits (read the clock, compare
/// budgets) once per kCheckIntervalRows charged rows, so per-row overhead is
/// amortized to a counter add. Scan loops additionally call ChargeRows once
/// per kCheckIntervalRows-row block rather than per row, making governor
/// overhead on the unbounded path unmeasurable (see micro_engine_bench's
/// *Governed variants).
///
/// Thread safety: charge/inspect entry points are safe to call from any
/// number of worker threads concurrently. Counters are relaxed atomics; the
/// sticky trip is first-trip-wins under a mutex, after which the stop
/// code/message are immutable and may be read lock-free behind the
/// `tripped_` acquire load. Reset() is NOT safe against concurrent charges —
/// it may only run between parallel regions (the per-run setup already
/// guarantees this). Counters are mutable so a `const ResourceGovernor*` can
/// be plumbed through const evaluation paths.
///
/// Worker threads should not charge this object per block — they wrap it in
/// a ResourceGovernor::Shard (below) so charges fold into the shared atomics
/// at kCheckIntervalRows granularity.
class ResourceGovernor {
 public:
  /// Amortized inspection interval, in charged rows. Documented contract:
  /// a single-threaded run overshoots its row budget by at most this many
  /// rows; with N worker shards the bound is N * kCheckIntervalRows (each
  /// shard may hold up to one uninspected block).
  static constexpr uint64_t kCheckIntervalRows = 4096;

  /// Unlimited governor: counts usage but never trips.
  ResourceGovernor() { Reset(); }
  explicit ResourceGovernor(GovernorLimits limits) : limits_(limits) {
    Reset();
  }

  /// Process-unique id of the current run, reassigned by Reset(). Charge
  /// deduplication keyed on this (the relation cache charges a cached join
  /// once per run) stays correct across governor objects: two governors
  /// never share a run id, so state cached under one run re-charges when a
  /// fresh governor (or a Reset) starts the next run.
  uint64_t run_id() const { return run_id_; }

  /// \brief Per-thread (strictly: per-evaluation-call) charge accumulator.
  ///
  /// Scan loops charge the shard; the shard folds rows into the parent's
  /// atomics once kCheckIntervalRows rows accumulate (and flushes the
  /// remainder on destruction, so totals are exact regardless of thread
  /// count). Cube-group charges pass through immediately — group creation
  /// is orders of magnitude rarer than row scans and is the structural
  /// point where cube explosion must be caught early. Between folds the
  /// shard still observes the parent's sticky trip, so cancellation
  /// latency stays at one block.
  ///
  /// A shard wrapping a null governor charges nothing and never trips,
  /// which lets call sites drop their `if (governor)` guards.
  class Shard {
   public:
    explicit Shard(const ResourceGovernor* governor) : governor_(governor) {}
    ~Shard() { Flush(); }

    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    Status ChargeRows(uint64_t n) {
      if (governor_ == nullptr) return Status::OK();
      pending_rows_ += n;
      if (pending_rows_ >= ResourceGovernor::kCheckIntervalRows) {
        uint64_t flushed = pending_rows_;
        pending_rows_ = 0;
        return governor_->ChargeRows(flushed);
      }
      return governor_->TripStatus();
    }

    Status ChargeCubeGroups(uint64_t n) {
      if (governor_ == nullptr) return Status::OK();
      Status flush = Flush();  // keep parent row totals current at trip time
      if (!flush.ok()) return flush;
      return governor_->ChargeCubeGroups(n);
    }

    Status ChargeMemoryBytes(uint64_t n) {
      if (governor_ == nullptr) return Status::OK();
      Status flush = Flush();
      if (!flush.ok()) return flush;
      return governor_->ChargeMemoryBytes(n);
    }

    /// Folds any locally accumulated rows into the parent. Returns the
    /// parent's charge status (OK when nothing was pending and no trip).
    Status Flush() {
      if (governor_ == nullptr || pending_rows_ == 0) {
        return governor_ == nullptr ? Status::OK() : governor_->TripStatus();
      }
      uint64_t flushed = pending_rows_;
      pending_rows_ = 0;
      return governor_->ChargeRows(flushed);
    }

    /// The wrapped governor (nullptr for the charge-nothing shard).
    const ResourceGovernor* governor() const { return governor_; }

   private:
    const ResourceGovernor* governor_;
    uint64_t pending_rows_ = 0;
  };

  /// Charges `n` scanned rows. Amortized: inspects limits only when the
  /// rows charged since the last inspection reach kCheckIntervalRows.
  /// Returns non-OK (sticky) once a limit has tripped.
  Status ChargeRows(uint64_t n) const {
    rows_.fetch_add(n, std::memory_order_relaxed);
    if (tripped_.load(std::memory_order_acquire)) return StopStatus();
    uint64_t since =
        rows_since_check_.fetch_add(n, std::memory_order_relaxed) + n;
    if (since < kCheckIntervalRows) return Status::OK();
    rows_since_check_.store(0, std::memory_order_relaxed);
    return Inspect();
  }

  /// Charges `n` materialized cube groups; inspected immediately (group
  /// creation is orders of magnitude rarer than row scans).
  Status ChargeCubeGroups(uint64_t n) const {
    cube_groups_.fetch_add(n, std::memory_order_relaxed);
    if (tripped_.load(std::memory_order_acquire)) return StopStatus();
    return Inspect();
  }

  /// Charges `n` modeled bytes of evaluation state (join indices, cube
  /// accumulators); inspected immediately — allocation is a structural
  /// point where a memory blow-up must be caught before it happens.
  Status ChargeMemoryBytes(uint64_t n) const {
    memory_bytes_.fetch_add(n, std::memory_order_relaxed);
    if (tripped_.load(std::memory_order_acquire)) return StopStatus();
    return Inspect();
  }

  /// Forced inspection of all limits (deadline included). Structural
  /// call sites — per EM iteration, per batch — use this.
  Status CheckPoint() const {
    if (tripped_.load(std::memory_order_acquire)) return StopStatus();
    return Inspect();
  }

  /// The sticky stop Status if a limit has tripped, OK otherwise. Cheaper
  /// than CheckPoint (no inspection) — shards poll this between folds.
  Status TripStatus() const {
    if (tripped_.load(std::memory_order_acquire)) return StopStatus();
    return Status::OK();
  }

  /// True once any limit has tripped. Sticky until Reset().
  bool exhausted() const {
    return tripped_.load(std::memory_order_acquire);
  }

  GovernorUsage usage() const {
    GovernorUsage u;
    u.rows_charged = rows_.load(std::memory_order_relaxed);
    u.cube_groups_charged = cube_groups_.load(std::memory_order_relaxed);
    u.memory_bytes_charged = memory_bytes_.load(std::memory_order_relaxed);
    u.checkpoints = checkpoints_.load(std::memory_order_relaxed);
    u.exhausted = tripped_.load(std::memory_order_acquire);
    u.stop_code = u.exhausted ? stop_code_ : StatusCode::kOk;
    return u;
  }

  /// Clears counters and the tripped state and restarts the deadline clock.
  /// Must not race with concurrent charges.
  void Reset();

 private:
  Status Inspect() const;
  /// First-trip-wins: records (code, message) once; later trips keep the
  /// original stop reason. Only called while tripping.
  Status Trip(StatusCode code, std::string message) const;
  /// Only valid after `tripped_` reads true (stop fields are immutable
  /// from that point on, published by the release store in Trip).
  Status StopStatus() const { return Status(stop_code_, stop_message_); }

  GovernorLimits limits_;
  std::chrono::steady_clock::time_point deadline_{};
  bool enforce_deadline_ = false;
  uint64_t run_id_ = 0;  ///< assigned by Reset(); see run_id()

  mutable std::atomic<uint64_t> rows_{0};
  mutable std::atomic<uint64_t> rows_since_check_{0};
  mutable std::atomic<uint64_t> cube_groups_{0};
  mutable std::atomic<uint64_t> memory_bytes_{0};
  mutable std::atomic<uint64_t> checkpoints_{0};
  mutable std::atomic<bool> tripped_{false};
  mutable std::mutex trip_mu_;
  mutable StatusCode stop_code_ = StatusCode::kOk;
  mutable std::string stop_message_;
};

}  // namespace aggchecker
