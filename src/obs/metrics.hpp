// Production metrics for the serving layer: a registry of named counters,
// gauges and fixed-bucket latency histograms.
//
// Until now the serve layer's internal state surfaced only as end-of-run
// ServiceStats totals — an operator watching a live service could not see
// queue depth, per-priority latency distributions, or shed decisions as
// they happen. MetricsRegistry is the first-class, always-current view:
// instruments are registered once at service construction, and every
// update on the request path is a handful of relaxed atomic operations on
// a pre-resolved instrument — no map lookup, no lock, no allocation.
//
// Instrument kinds:
//
//   Counter    monotonic event count (requests submitted, sheds, retries).
//   Gauge      last-written value (push) — or, registered via gauge_fn, a
//              pull callback evaluated at export time. Pull gauges are how
//              live state that already has an owner (queue depth, EWMA
//              solve latency, cache generation, open breakers) is exported
//              without duplicating it: observation reads, never copies.
//   Histogram  fixed upper-bound buckets with atomic per-bucket counts.
//              Quantiles (p50/p95/p99) are bucket-interpolated estimates —
//              cheap, mergeable, and bounded-error by construction, which
//              is the standard production trade (cf. Prometheus classic
//              histograms). An empty histogram has no quantiles: NaN, and
//              the JSON/table exporters omit the fields rather than print
//              a fake 0.0 (the same discipline as bench::percentile).
//
// Thread safety and lock discipline (PR-7 contracts): the registry's maps
// are mutex-guarded (CAST_GUARDED_BY) and touched only at registration and
// export; instrument values are std::atomic with relaxed ordering — the
// hot path never takes the registry mutex. Export snapshots instrument
// pointers under the lock, releases it, then reads atomics and evaluates
// pull callbacks lock-free, so a callback may safely acquire service
// mutexes (no lock-order edge registry -> service exists while a service
// lock is held). Counts read mid-update are approximate by design —
// monitoring reads tolerate a torn view across instruments, never within
// one (each value is a single atomic).
//
// Observation must never perturb results: nothing in this header touches
// solver state, seeds, or scheduling — the serve golden tests prove every
// service response bit-identical to PlannerService::solve_direct, the
// path with no registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/annotations.hpp"

namespace cast::obs {

/// Monotonically increasing event count. Relaxed atomics: counters order
/// nothing, they only total.
class Counter {
public:
    void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t value() const {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (push form). For live state that already has an
/// owner, prefer a pull callback via MetricsRegistry::gauge_fn.
class Gauge {
public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }

private:
    std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: strictly increasing upper bounds plus an
/// implicit +inf overflow bucket. observe() is a binary search over the
/// bounds and two relaxed atomic increments.
class Histogram {
public:
    /// `bounds` must be non-empty and strictly increasing.
    explicit Histogram(std::vector<double> bounds);

    /// The default latency buckets (milliseconds): sub-millisecond queue
    /// waits through multi-second budget-exhausted solves.
    [[nodiscard]] static std::vector<double> default_latency_buckets_ms();

    void observe(double v);

    [[nodiscard]] std::uint64_t count() const {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }

    /// Bucket-interpolated quantile estimate, q in [0, 1]. NaN when the
    /// histogram is empty (there is no "p99 of nothing" — exporters omit
    /// the field). Values in the overflow bucket clamp to the top bound.
    [[nodiscard]] double quantile(double q) const;

    [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
    /// Per-bucket counts, overflow last (bounds().size() + 1 entries).
    [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

private:
    std::vector<double> bounds_;
    /// bounds_.size() + 1 slots; the last is the +inf overflow bucket.
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/// Named instrument registry with JSON and aligned-text export.
///
/// Registration (counter/gauge/histogram/gauge_fn) takes the registry
/// mutex and returns a stable reference — do it once at setup and cache
/// the reference; updates through the reference are lock-free. Registering
/// a name twice returns the existing instrument (a histogram's bounds are
/// fixed by its first registration).
class MetricsRegistry {
public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    [[nodiscard]] Counter& counter(const std::string& name) CAST_EXCLUDES(mutex_);
    [[nodiscard]] Gauge& gauge(const std::string& name) CAST_EXCLUDES(mutex_);
    [[nodiscard]] Histogram& histogram(const std::string& name,
                                       std::vector<double> bounds =
                                           Histogram::default_latency_buckets_ms())
        CAST_EXCLUDES(mutex_);

    /// Pull gauge: `fn` is evaluated at export time, outside the registry
    /// mutex (it may take its owner's locks). Replaces any previous
    /// callback under the same name.
    void gauge_fn(const std::string& name, std::function<double()> fn)
        CAST_EXCLUDES(mutex_);

    /// Point-in-time values by name; pull gauges are evaluated. Returns
    /// NaN / 0 semantics are the instrument's own — absent names signal
    /// via the optional-like bool pair below.
    [[nodiscard]] bool has_counter(const std::string& name) const CAST_EXCLUDES(mutex_);
    [[nodiscard]] std::uint64_t counter_value(const std::string& name) const
        CAST_EXCLUDES(mutex_);
    /// Total observations in the named histogram (0 when absent).
    [[nodiscard]] std::uint64_t histogram_count(const std::string& name) const
        CAST_EXCLUDES(mutex_);
    [[nodiscard]] double gauge_value(const std::string& name) const CAST_EXCLUDES(mutex_);

    /// One-line JSON document: {"counters": {...}, "gauges": {...},
    /// "histograms": {...}}. Names sort lexicographically so output diffs
    /// cleanly; empty-histogram quantile fields are omitted.
    [[nodiscard]] std::string json() const CAST_EXCLUDES(mutex_);
    void write_json(std::ostream& os) const CAST_EXCLUDES(mutex_);

    /// Aligned text tables (common/table.hpp), one per instrument kind.
    void write_table(std::ostream& os) const CAST_EXCLUDES(mutex_);

private:
    struct Snapshot;
    /// Instrument pointers + evaluated pull gauges, collected under the
    /// mutex, read lock-free afterwards.
    [[nodiscard]] Snapshot snapshot() const CAST_EXCLUDES(mutex_);

    mutable Mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_ CAST_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Gauge>> gauges_ CAST_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Histogram>> histograms_ CAST_GUARDED_BY(mutex_);
    std::map<std::string, std::function<double()>> gauge_fns_ CAST_GUARDED_BY(mutex_);
};

}  // namespace cast::obs
