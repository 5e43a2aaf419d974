// Structured tracing + flight recorder: the causal side of the obs layer.
//
// Where MetricsRegistry aggregates (counters/gauges/histograms), the Tracer
// records *individual* operations: spans with begin/end on simulated time,
// parent/child SpanContext propagation (explicit or via the current-span
// stack), span-scoped attributes (heights, txids, byte counts, ic::Meter
// instruction deltas), a fixed-capacity ring-buffer event log (the "flight
// recorder") with severities, and a slow-op watchdog that emits a warning
// event when a span's duration exceeds a configurable budget.
//
// Determinism contract: nothing here reads the wall clock or randomness.
// Time comes from a caller-installed clock (simulation time, or any other
// deterministic monotone source such as metered instructions); ids and
// ordering come from sequential counters assigned on the submitting thread.
// Two identically seeded runs therefore produce byte-identical exports
// (see trace_export.h), including runs that use parallel::ThreadPool.
//
// Threading: the Tracer is confined to the simulation thread (like the
// Simulation it observes); pool workers never touch it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/sim.h"

namespace icbtc::obs {

/// Trace timestamps are simulated microseconds (util::SimTime), never wall
/// clock.
using TraceTime = util::SimTime;

/// Identifies a span within a tracer. trace_id groups a causal tree (every
/// root span starts a new trace); span_id is unique per tracer.
struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  bool valid() const { return span_id != 0; }
  bool operator==(const SpanContext&) const = default;
};

enum class Severity { kDebug = 0, kInfo, kWarn, kError };

const char* to_string(Severity s);

/// A finished span. `attrs` hold pre-rendered JSON values (numbers unquoted,
/// strings quoted+escaped) so exporters can embed them verbatim.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root
  std::uint64_t seq = 0;        // begin order on the submitting thread
  std::string name;
  std::string category;  // "canister", "adapter", "btcnet", "ic", ...
  TraceTime start = 0;
  TraceTime end = 0;
  std::vector<std::pair<std::string, std::string>> attrs;

  TraceTime duration() const { return end - start; }
};

/// One flight-recorder entry.
struct TraceEvent {
  std::uint64_t seq = 0;
  TraceTime time = 0;
  Severity severity = Severity::kInfo;
  std::uint64_t trace_id = 0;  // 0 when emitted outside any span
  std::uint64_t span_id = 0;
  std::string name;
  std::string detail;
};

/// One per-request cost record: a Fig. 7 data point binding the consensus
/// latency, metered instructions, response size, and cycle cost of a single
/// replicated/query call. Recorded by the integration layer alongside the
/// request's root span.
struct RequestCostRecord {
  std::string endpoint;
  std::uint64_t trace_id = 0;
  TraceTime latency_us = 0;
  std::uint64_t instructions = 0;
  std::uint64_t response_bytes = 0;
  std::uint64_t cycles = 0;
};

struct TracerConfig {
  /// Flight-recorder ring capacity: the newest `event_capacity` events are
  /// retained, older ones are overwritten (deterministically).
  std::size_t event_capacity = 1024;
  /// Cap on retained finished spans; further spans are counted in
  /// dropped_spans() and discarded. The cap is count-based and therefore
  /// deterministic.
  std::size_t max_spans = 1 << 16;
  /// Default slow-span budget in simulated µs (0 disables the watchdog).
  /// Per-category overrides via set_slow_budget(category, budget).
  TraceTime slow_span_budget = 0;
};

class Tracer {
 public:
  explicit Tracer(TracerConfig config = {});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // ------------------------------- Clock --------------------------------

  /// Installs the deterministic time source (e.g. `[&]{ return sim.now(); }`
  /// or an instruction-derived clock). Without a clock, now() is 0.
  void set_clock(std::function<TraceTime()> clock) { clock_ = std::move(clock); }
  TraceTime now() const { return clock_ ? clock_() : 0; }

  // ------------------------------- Spans --------------------------------

  /// Begins a span. An invalid `parent` means "use the current span stack
  /// top" (root if the stack is empty); a valid one forces that parent —
  /// that is how causality is carried across scheduled events (capture
  /// current() at send time, pass it at delivery time).
  SpanContext begin_span(std::string_view name, std::string_view category,
                         SpanContext parent = {});

  /// Ends a span at now() (or at an explicit simulated end time, clamped to
  /// the span's start; used for modelled durations such as
  /// instructions-derived execution latency). Runs the slow-op watchdog.
  void end_span(SpanContext context);
  void end_span_at(SpanContext context, TraceTime at);

  /// Attaches an attribute to an open span. No-ops on unknown/finished ids.
  void attr_int(SpanContext context, std::string_view key, std::int64_t value);
  void attr_uint(SpanContext context, std::string_view key, std::uint64_t value);
  void attr_double(SpanContext context, std::string_view key, double value);
  void attr_str(SpanContext context, std::string_view key, std::string_view value);

  /// The innermost open span entered via push_current()/ScopedSpan on this
  /// thread, or an invalid context.
  SpanContext current() const;
  void push_current(SpanContext context) { stack_.push_back(context); }
  void pop_current();

  // --------------------------- Flight recorder --------------------------

  /// Appends an event to the ring buffer, bound to `context` (or to
  /// current() when invalid).
  void event(Severity severity, std::string_view name, std::string_view detail = {},
             SpanContext context = {});

  // ------------------------------ Watchdog ------------------------------

  void set_slow_budget(TraceTime budget) { config_.slow_span_budget = budget; }
  void set_slow_budget(std::string_view category, TraceTime budget);

  // --------------------------- Request records --------------------------

  void record_request_cost(RequestCostRecord record) {
    request_costs_.push_back(std::move(record));
  }
  const std::vector<RequestCostRecord>& request_costs() const { return request_costs_; }

  // ----------------------------- Inspection -----------------------------

  const TracerConfig& config() const { return config_; }
  /// Finished spans in begin (seq) order.
  const std::vector<SpanRecord>& finished_spans() const { return finished_; }
  /// Flight-recorder contents, oldest first.
  std::vector<TraceEvent> events() const;
  std::uint64_t dropped_spans() const { return dropped_spans_; }
  /// Total events ever recorded (>= events().size() once the ring wrapped).
  std::uint64_t total_events() const { return next_event_seq_; }

  /// Drops all recorded data (spans, events, request records) but keeps the
  /// clock, budgets, and id counters.
  void clear();

 private:
  void finish(SpanRecord&& record);
  static void render_attr(SpanRecord& record, std::string_view key, std::string value);

  TracerConfig config_;
  std::function<TraceTime()> clock_;
  std::uint64_t next_span_id_ = 1;
  std::uint64_t next_trace_id_ = 1;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_event_seq_ = 0;
  std::uint64_t dropped_spans_ = 0;

  std::unordered_map<std::uint64_t, SpanRecord> open_;  // by span_id
  std::vector<SpanContext> stack_;
  std::vector<SpanRecord> finished_;
  std::vector<TraceEvent> ring_;  // flight recorder, capacity-bounded
  std::vector<std::pair<std::string, TraceTime>> category_budgets_;
  std::vector<RequestCostRecord> request_costs_;
};

/// RAII span bound to the tracer's current-span stack. Inert when the tracer
/// is null, so call sites stay branch-free:
///   obs::ScopedSpan span(tracer_, "canister.get_utxos", "canister");
///   span.attr("instructions", segment.sample());
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(Tracer* tracer, std::string_view name, std::string_view category,
             SpanContext parent = {});
  ~ScopedSpan() { end(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return tracer_ != nullptr && !ended_; }
  SpanContext context() const { return context_; }
  TraceTime start() const { return start_; }
  Tracer* tracer() const { return tracer_; }

  void attr(std::string_view key, std::int64_t value);
  void attr(std::string_view key, std::uint64_t value);
  void attr(std::string_view key, double value);
  void attr(std::string_view key, std::string_view value);
  /// Avoids the ambiguous int literal -> int64/uint64/double overload set.
  void attr(std::string_view key, int value) { attr(key, static_cast<std::int64_t>(value)); }

  void event(Severity severity, std::string_view name, std::string_view detail = {});

  /// Ends the span now / at an explicit simulated time. Idempotent.
  void end();
  void end_at(TraceTime at);

 private:
  Tracer* tracer_ = nullptr;
  SpanContext context_{};
  TraceTime start_ = 0;
  bool ended_ = false;
};

}  // namespace icbtc::obs
