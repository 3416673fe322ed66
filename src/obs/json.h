// Minimal JSON emission for the observability layer.
//
// Two tools, two jobs:
//  * json_escape / json_number — primitives for code that streams large
//    documents directly into a string (the trace exporters, which would
//    waste memory building a value tree for 10^5 events);
//  * JsonValue — an ordered document tree for code that assembles nested
//    reports incrementally (metrics snapshots, BENCH_*.json emission);
//  * parse_json — a small recursive-descent parser producing JsonValue
//    trees, for the code that consumes our own reports (the
//    drsm_bench_diff regression gate).  It accepts exactly standard JSON;
//    object key order is preserved, duplicate keys keep the last value.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace drsm::obs {

/// Escapes `text` for use inside a JSON string literal (quotes not
/// included).
std::string json_escape(std::string_view text);

/// Renders a double the way JSON requires: finite values in shortest
/// round-trip form, non-finite values as null (JSON has no Inf/NaN).
std::string json_number(double value);

/// An ordered JSON document: null, bool, number, string, array or object.
/// Object keys keep insertion order so emitted reports diff cleanly.
class JsonValue {
 public:
  JsonValue() = default;  // null
  JsonValue(bool v) : kind_(Kind::kBool), bool_(v) {}
  JsonValue(double v) : kind_(Kind::kNumber), num_(v) {}
  JsonValue(int v) : JsonValue(static_cast<double>(v)) {}
  JsonValue(std::size_t v) : JsonValue(static_cast<double>(v)) {}
  JsonValue(const char* v) : kind_(Kind::kString), str_(v) {}
  JsonValue(std::string v) : kind_(Kind::kString), str_(std::move(v)) {}

  static JsonValue array();
  static JsonValue object();

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Value readers with a fallback for kind mismatches — parsed reports
  /// are read defensively, not validated.
  bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double as_number(double fallback = 0.0) const {
    return is_number() ? num_ : fallback;
  }
  const std::string& as_string() const { return str_; }  // empty if not one

  /// Object field lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// i-th array element (or object value, in insertion order); bounds are
  /// DRSM_CHECKed.
  const JsonValue& at(std::size_t i) const;

  /// i-th object key, parallel to at().
  const std::string& key(std::size_t i) const;

  /// Array append; the value must be (or becomes) an array.
  JsonValue& push_back(JsonValue v);

  /// Object field access, creating the field (and object-ness) on demand.
  /// Inserting a new field may reallocate: references returned earlier for
  /// *this* object are invalidated.  Build sub-documents as locals and
  /// move them in rather than holding a reference across insertions.
  JsonValue& operator[](std::string_view key);

  std::size_t size() const { return items_.size(); }

  /// Serializes the document.  `indent` > 0 pretty-prints.
  std::string dump(int indent = 0) const;

 private:
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject,
  };

  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  // Array elements, or object fields (keys_ parallel) in insertion order.
  std::vector<JsonValue> items_;
  std::vector<std::string> keys_;
};

/// Parses standard JSON.  Throws drsm::Error (with a byte offset) on any
/// syntax error, trailing garbage, or arrays/objects nested deeper than a
/// fixed bound (256 levels).
JsonValue parse_json(std::string_view text);

/// Writes `text` to `path` atomically enough for our purposes (truncate +
/// write).  Throws drsm::Error on I/O failure.
void write_file(const std::string& path, std::string_view text);

/// Reads the whole file; throws drsm::Error if it cannot be opened.
std::string read_file(const std::string& path);

}  // namespace drsm::obs
