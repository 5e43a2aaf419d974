// Shared deterministic JSON formatting helpers for the obs exporters
// (metrics snapshots, trace records, Chrome trace events). Determinism is
// the whole point: for a given value the rendering is always byte-identical.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

namespace icbtc::obs::detail {

/// Shortest decimal representation that round-trips to the same double.
/// Deterministic for a given value, and value-identity is all the snapshot
/// determinism guarantee needs.
inline std::string format_double(double v) {
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `s` escaped and in double quotes: a JSON string literal.
inline std::string json_quote(const std::string& s) {
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

}  // namespace icbtc::obs::detail
