#include "obs/trace.h"

#include <algorithm>

#include "obs/json_detail.h"

namespace icbtc::obs {

const char* to_string(Severity s) {
  switch (s) {
    case Severity::kDebug: return "debug";
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
  }
  return "unknown";
}

Tracer::Tracer(TracerConfig config) : config_(config) {
  finished_.reserve(std::min<std::size_t>(config_.max_spans, 4096));
}

SpanContext Tracer::begin_span(std::string_view name, std::string_view category,
                               SpanContext parent) {
  if (!parent.valid()) parent = current();

  SpanRecord record;
  record.span_id = next_span_id_++;
  record.seq = next_seq_++;
  if (parent.valid()) {
    record.trace_id = parent.trace_id;
    record.parent_id = parent.span_id;
  } else {
    record.trace_id = next_trace_id_++;
  }
  record.name.assign(name);
  record.category.assign(category);
  record.start = now();
  record.end = record.start;

  SpanContext context{record.trace_id, record.span_id};
  open_.emplace(record.span_id, std::move(record));
  return context;
}

void Tracer::end_span(SpanContext context) { end_span_at(context, now()); }

void Tracer::end_span_at(SpanContext context, TraceTime at) {
  auto it = open_.find(context.span_id);
  if (it == open_.end()) return;
  SpanRecord record = std::move(it->second);
  open_.erase(it);
  record.end = std::max(at, record.start);

  // Slow-op watchdog: per-category budget wins over the default.
  TraceTime budget = config_.slow_span_budget;
  for (const auto& [category, b] : category_budgets_) {
    if (category == record.category) {
      budget = b;
      break;
    }
  }
  if (budget > 0 && record.duration() > budget) {
    event(Severity::kWarn, "slow_span",
          record.name + " took " + std::to_string(record.duration()) + "us (budget " +
              std::to_string(budget) + "us)",
          context);
  }

  finish(std::move(record));
}

void Tracer::finish(SpanRecord&& record) {
  if (finished_.size() >= config_.max_spans) {
    ++dropped_spans_;
    return;
  }
  finished_.push_back(std::move(record));
}

void Tracer::render_attr(SpanRecord& record, std::string_view key, std::string value) {
  // Last write wins, so repeated sets don't duplicate keys in the export.
  for (auto& [k, v] : record.attrs) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  record.attrs.emplace_back(std::string(key), std::move(value));
}

void Tracer::attr_int(SpanContext context, std::string_view key, std::int64_t value) {
  auto it = open_.find(context.span_id);
  if (it == open_.end()) return;
  render_attr(it->second, key, std::to_string(value));
}

void Tracer::attr_uint(SpanContext context, std::string_view key, std::uint64_t value) {
  auto it = open_.find(context.span_id);
  if (it == open_.end()) return;
  render_attr(it->second, key, std::to_string(value));
}

void Tracer::attr_double(SpanContext context, std::string_view key, double value) {
  auto it = open_.find(context.span_id);
  if (it == open_.end()) return;
  render_attr(it->second, key, detail::format_double(value));
}

void Tracer::attr_str(SpanContext context, std::string_view key, std::string_view value) {
  auto it = open_.find(context.span_id);
  if (it == open_.end()) return;
  render_attr(it->second, key, detail::json_quote(std::string(value)));
}

SpanContext Tracer::current() const {
  return stack_.empty() ? SpanContext{} : stack_.back();
}

void Tracer::pop_current() {
  if (!stack_.empty()) stack_.pop_back();
}

void Tracer::event(Severity severity, std::string_view name, std::string_view detail,
                   SpanContext context) {
  if (config_.event_capacity == 0) return;
  if (!context.valid()) context = current();

  TraceEvent e;
  e.seq = next_event_seq_++;
  e.time = now();
  e.severity = severity;
  e.trace_id = context.trace_id;
  e.span_id = context.span_id;
  e.name.assign(name);
  e.detail.assign(detail);

  if (ring_.size() < config_.event_capacity) {
    ring_.push_back(std::move(e));
  } else {
    ring_[e.seq % config_.event_capacity] = std::move(e);
  }
}

void Tracer::set_slow_budget(std::string_view category, TraceTime budget) {
  for (auto& [c, b] : category_budgets_) {
    if (c == category) {
      b = budget;
      return;
    }
  }
  category_budgets_.emplace_back(std::string(category), budget);
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out(ring_);
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.seq < b.seq; });
  return out;
}

void Tracer::clear() {
  open_.clear();
  stack_.clear();
  finished_.clear();
  ring_.clear();
  request_costs_.clear();
  dropped_spans_ = 0;
  next_event_seq_ = 0;
}

// ------------------------------- ScopedSpan -------------------------------

ScopedSpan::ScopedSpan(Tracer* tracer, std::string_view name, std::string_view category,
                       SpanContext parent)
    : tracer_(tracer) {
  if (!tracer_) {
    ended_ = true;
    return;
  }
  context_ = tracer_->begin_span(name, category, parent);
  start_ = tracer_->now();
  tracer_->push_current(context_);
}

void ScopedSpan::attr(std::string_view key, std::int64_t value) {
  if (active()) tracer_->attr_int(context_, key, value);
}

void ScopedSpan::attr(std::string_view key, std::uint64_t value) {
  if (active()) tracer_->attr_uint(context_, key, value);
}

void ScopedSpan::attr(std::string_view key, double value) {
  if (active()) tracer_->attr_double(context_, key, value);
}

void ScopedSpan::attr(std::string_view key, std::string_view value) {
  if (active()) tracer_->attr_str(context_, key, value);
}

void ScopedSpan::event(Severity severity, std::string_view name, std::string_view detail) {
  if (active()) tracer_->event(severity, name, detail, context_);
}

void ScopedSpan::end() {
  if (!active()) return;
  ended_ = true;
  tracer_->pop_current();
  tracer_->end_span(context_);
}

void ScopedSpan::end_at(TraceTime at) {
  if (!active()) return;
  ended_ = true;
  tracer_->pop_current();
  tracer_->end_span_at(context_, at);
}

}  // namespace icbtc::obs
