#include "obs/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <vector>

#include "obs/json_detail.h"

namespace icbtc::obs {
namespace {

using detail::json_quote;

void append_attrs(std::string& out, const SpanRecord& span) {
  out += "\"attrs\":{";
  bool first = true;
  for (const auto& [key, value] : span.attrs) {
    if (!first) out += ",";
    first = false;
    out += json_quote(key) + ":" + value;  // values are pre-rendered JSON
  }
  out += "}";
}

struct SpanIndex {
  // Children (as indices into the tracer's finished_spans) keyed by parent
  // span id, each list ordered by begin seq.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  // Roots per trace: spans whose parent is 0 or wasn't retained.
  std::map<std::uint64_t, std::vector<std::size_t>> trace_roots;
};

SpanIndex build_index(const std::vector<SpanRecord>& spans) {
  SpanIndex index;
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_id.emplace(spans[i].span_id, i);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (span.parent_id != 0 && by_id.count(span.parent_id)) {
      index.children[span.parent_id].push_back(i);
    } else {
      index.trace_roots[span.trace_id].push_back(i);
    }
  }
  auto by_seq = [&spans](std::size_t a, std::size_t b) {
    return spans[a].seq < spans[b].seq;
  };
  for (auto& [_, list] : index.children) std::sort(list.begin(), list.end(), by_seq);
  for (auto& [_, list] : index.trace_roots) std::sort(list.begin(), list.end(), by_seq);
  return index;
}

void append_span_tree(std::string& out, const std::vector<SpanRecord>& spans,
                      const SpanIndex& index, std::size_t i) {
  const SpanRecord& span = spans[i];
  out += "{\"span_id\":" + std::to_string(span.span_id);
  out += ",\"name\":" + json_quote(span.name);
  out += ",\"category\":" + json_quote(span.category);
  out += ",\"start_us\":" + std::to_string(span.start);
  out += ",\"end_us\":" + std::to_string(span.end);
  out += ",\"duration_us\":" + std::to_string(span.duration());
  out += ",";
  append_attrs(out, span);
  out += ",\"children\":[";
  auto it = index.children.find(span.span_id);
  if (it != index.children.end()) {
    bool first = true;
    for (std::size_t child : it->second) {
      if (!first) out += ",";
      first = false;
      append_span_tree(out, spans, index, child);
    }
  }
  out += "]}";
}

}  // namespace

std::string to_trace_json(const Tracer& tracer) {
  const std::vector<SpanRecord>& spans = tracer.finished_spans();
  SpanIndex index = build_index(spans);

  std::string out;
  out.reserve(4096 + spans.size() * 192);
  out += "{\"traces\":[";
  bool first_trace = true;
  for (const auto& [trace_id, roots] : index.trace_roots) {
    if (!first_trace) out += ",";
    first_trace = false;
    out += "{\"trace_id\":" + std::to_string(trace_id) + ",\"spans\":[";
    bool first_root = true;
    for (std::size_t root : roots) {
      if (!first_root) out += ",";
      first_root = false;
      append_span_tree(out, spans, index, root);
    }
    out += "]}";
  }
  out += "],\"requests\":[";
  bool first_request = true;
  for (const RequestCostRecord& r : tracer.request_costs()) {
    if (!first_request) out += ",";
    first_request = false;
    out += "{\"endpoint\":" + json_quote(r.endpoint);
    out += ",\"trace_id\":" + std::to_string(r.trace_id);
    out += ",\"latency_us\":" + std::to_string(r.latency_us);
    out += ",\"instructions\":" + std::to_string(r.instructions);
    out += ",\"response_bytes\":" + std::to_string(r.response_bytes);
    out += ",\"cycles\":" + std::to_string(r.cycles);
    out += "}";
  }
  out += "],\"events\":[";
  bool first_event = true;
  for (const TraceEvent& e : tracer.events()) {
    if (!first_event) out += ",";
    first_event = false;
    out += "{\"seq\":" + std::to_string(e.seq);
    out += ",\"time_us\":" + std::to_string(e.time);
    out += ",\"severity\":\"" + std::string(to_string(e.severity)) + "\"";
    out += ",\"trace_id\":" + std::to_string(e.trace_id);
    out += ",\"span_id\":" + std::to_string(e.span_id);
    out += ",\"name\":" + json_quote(e.name);
    out += ",\"detail\":" + json_quote(e.detail);
    out += "}";
  }
  out += "],\"dropped_spans\":" + std::to_string(tracer.dropped_spans());
  out += "}";
  return out;
}

std::string to_chrome_trace(const Tracer& tracer) {
  const std::vector<SpanRecord>& spans = tracer.finished_spans();

  // tid = index of the category in sorted order, so track assignment is a
  // pure function of the set of categories present.
  std::map<std::string, int> category_tid;
  for (const SpanRecord& span : spans) category_tid.emplace(span.category, 0);
  int next_tid = 1;
  for (auto& [_, tid] : category_tid) tid = next_tid++;

  std::string out;
  out.reserve(4096 + spans.size() * 160);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [category, tid] : category_tid) {
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":" + json_quote(category) + "}}";
  }
  for (const SpanRecord& span : spans) {
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(category_tid[span.category]);
    out += ",\"name\":" + json_quote(span.name);
    out += ",\"cat\":" + json_quote(span.category);
    out += ",\"ts\":" + std::to_string(span.start);
    out += ",\"dur\":" + std::to_string(span.duration());
    out += ",\"args\":{\"trace_id\":" + std::to_string(span.trace_id);
    out += ",\"span_id\":" + std::to_string(span.span_id);
    for (const auto& [key, value] : span.attrs) {
      out += ',';
      out += json_quote(key) + ":" + value;
    }
    out += "}}";
  }
  for (const TraceEvent& e : tracer.events()) {
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"s\":\"g\"";
    out += ",\"name\":" + json_quote(e.name);
    out += ",\"cat\":\"" + std::string(to_string(e.severity)) + "\"";
    out += ",\"ts\":" + std::to_string(e.time);
    out += ",\"args\":{\"detail\":" + json_quote(e.detail);
    out += ",\"trace_id\":" + std::to_string(e.trace_id) + "}}";
  }
  out += "]}";
  return out;
}

std::string flight_recorder_text(const Tracer& tracer) {
  std::string out;
  for (const TraceEvent& e : tracer.events()) {
    char head[96];
    std::snprintf(head, sizeof(head), "[%10lld us] %-5s ", static_cast<long long>(e.time),
                  to_string(e.severity));
    out += head;
    out += e.name;
    if (!e.detail.empty()) {
      out += ": ";
      out += e.detail;
    }
    if (e.span_id != 0) {
      out += " (trace " + std::to_string(e.trace_id) + ", span " + std::to_string(e.span_id) +
             ")";
    }
    out += "\n";
  }
  if (out.empty()) out = "(flight recorder empty)\n";
  return out;
}

}  // namespace icbtc::obs
