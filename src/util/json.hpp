// Minimal JSON value, parser and writer.
//
// Specification graphs are serialized to a plain JSON schema (see
// `spec/spec_io.hpp`).  This is a self-contained implementation covering the
// JSON subset the library emits: null, bool, finite numbers, strings with
// standard escapes, arrays and objects.  Object key order is preserved so
// serialized models diff cleanly.  `JsonWriter` is the one text formatter:
// `Json::dump` walks a DOM through it, and callers with large documents
// write through it directly, without building a DOM at all.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/status.hpp"

namespace sdf {

class Json;
class JsonWriter;
struct JsonLimits;  // util/json_stream.hpp

using JsonArray = std::vector<Json>;
/// Insertion-ordered object representation.
using JsonObject = std::vector<std::pair<std::string, Json>>;

/// A JSON document node.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}         // NOLINT
  Json(bool b) : value_(b) {}                        // NOLINT
  Json(double d) : value_(d) {}                      // NOLINT
  Json(int i) : value_(static_cast<double>(i)) {}    // NOLINT
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}  // NOLINT
  Json(std::size_t i) : value_(static_cast<double>(i)) {}   // NOLINT
  Json(const char* s) : value_(std::string(s)) {}    // NOLINT
  Json(std::string s) : value_(std::move(s)) {}      // NOLINT
  Json(JsonArray a) : value_(std::move(a)) {}        // NOLINT
  Json(JsonObject o) : value_(std::move(o)) {}       // NOLINT

  [[nodiscard]] Type type() const;
  [[nodiscard]] bool is_null() const { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type() == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type() == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type() == Type::kString; }
  [[nodiscard]] bool is_array() const { return type() == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; precondition: matching `type()`.
  [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
  [[nodiscard]] double as_number() const { return std::get<double>(value_); }
  [[nodiscard]] std::int64_t as_int() const {
    return static_cast<std::int64_t>(as_number());
  }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(value_);
  }
  [[nodiscard]] const JsonArray& as_array() const {
    return std::get<JsonArray>(value_);
  }
  [[nodiscard]] JsonArray& as_array() { return std::get<JsonArray>(value_); }
  [[nodiscard]] const JsonObject& as_object() const {
    return std::get<JsonObject>(value_);
  }
  [[nodiscard]] JsonObject& as_object() { return std::get<JsonObject>(value_); }

  /// Object field lookup; returns nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// Object field lookup with default.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string fallback) const;
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const;

  /// Appends/overwrites a field on an object node.
  void set(std::string key, Json value);

  bool operator==(const Json& other) const { return value_ == other.value_; }

  /// Serializes; `indent < 0` yields compact output, otherwise pretty-printed
  /// with the given indent width.  Non-finite numbers are written as
  /// `null`: JSON has no spelling for them.
  [[nodiscard]] std::string dump(int indent = -1) const;
  /// Writes this value as the next value of `out`.
  void write(JsonWriter& out) const;

  /// Parses a complete JSON document (trailing garbage is an error).
  /// Thin shim over `JsonStreamParser` (util/json_stream.hpp) with the
  /// default limits: depth-capped but otherwise unbounded.
  [[nodiscard]] static Result<Json> parse(std::string_view text);
  /// Same, with explicit resource caps (see `JsonLimits`).
  [[nodiscard]] static Result<Json> parse(std::string_view text,
                                          const JsonLimits& limits);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

/// Incremental JSON text writer.  A sequence of calls that describes a
/// document yields exactly the bytes `Json::dump(indent)` gives for that
/// document.  Output accumulates in a buffer; a writer with a sink hands
/// the buffer over in chunks of about 64 KiB and at `flush()`, so a
/// document of any size costs only that much memory.  Precondition: the
/// calls describe well-formed JSON (a `key` before each object member).
class JsonWriter {
 public:
  using Sink = std::function<void(std::string_view)>;

  explicit JsonWriter(int indent = -1, Sink sink = nullptr);

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  /// Object member key; the member's value is the next value written
  /// (`w.key("n").number(1)`).
  JsonWriter& key(std::string_view name);
  void null();
  void boolean(bool value);
  void number(double value);
  void string(std::string_view value);

  /// Hands buffered output to the sink (no-op without one).
  void flush();
  /// Everything written (without a sink); leaves the writer empty.
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  /// Separator and line break before the next array element or member.
  void next_item();
  void close(char bracket);
  void newline_indent(std::size_t depth);

  int indent_;
  Sink sink_;
  std::string out_;
  /// One entry per open container: whether it has an item yet.
  std::vector<bool> has_items_;
  bool after_key_ = false;
};

}  // namespace sdf
