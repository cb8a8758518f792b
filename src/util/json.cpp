#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/json_stream.hpp"
#include "util/strings.hpp"

namespace sdf {

Json::Type Json::type() const {
  return static_cast<Type>(value_.index());
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object())
    if (k == key) return &v;
  return nullptr;
}

double Json::number_or(std::string_view key, double fallback) const {
  const Json* j = find(key);
  return (j && j->is_number()) ? j->as_number() : fallback;
}

std::string Json::string_or(std::string_view key, std::string fallback) const {
  const Json* j = find(key);
  return (j && j->is_string()) ? j->as_string() : std::move(fallback);
}

bool Json::bool_or(std::string_view key, bool fallback) const {
  const Json* j = find(key);
  return (j && j->is_bool()) ? j->as_bool() : fallback;
}

void Json::set(std::string key, Json value) {
  if (!is_object()) value_ = JsonObject{};
  for (auto& [k, v] : as_object()) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  as_object().emplace_back(std::move(key), std::move(value));
}

namespace {

/// Writer buffer size at which a sink receives the output.
constexpr std::size_t kFlushBytes = 64 * 1024;

void escape_into(std::string& out, std::string_view s) {
  out += '"';
  std::size_t plain = 0;  // start of the run that needs no escaping
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20)
      continue;
    out.append(s, plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s, plain);
  out += '"';
}

void number_into(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  // Range first: the integer cast is undefined beyond +-2^63.
  if (std::fabs(d) < 1e15 && d == std::trunc(d)) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf,
                                  static_cast<std::int64_t>(d))
                        .ptr);
  } else {
    out += format_double(d, 12);
  }
}

}  // namespace

JsonWriter::JsonWriter(int indent, Sink sink)
    : indent_(indent), sink_(std::move(sink)) {}

void JsonWriter::newline_indent(std::size_t depth) {
  if (indent_ < 0) return;
  out_ += '\n';
  out_.append(static_cast<std::size_t>(indent_) * depth, ' ');
}

void JsonWriter::next_item() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (has_items_.empty()) return;  // the top-level value
  if (has_items_.back()) out_ += ',';
  has_items_.back() = true;
  newline_indent(has_items_.size());
  if (sink_ && out_.size() >= kFlushBytes) flush();
}

void JsonWriter::begin_object() {
  next_item();
  out_ += '{';
  has_items_.push_back(false);
}

void JsonWriter::begin_array() {
  next_item();
  out_ += '[';
  has_items_.push_back(false);
}

void JsonWriter::close(char bracket) {
  const bool had_items = has_items_.back();
  has_items_.pop_back();
  if (had_items) newline_indent(has_items_.size());
  out_ += bracket;
}

void JsonWriter::end_object() { close('}'); }
void JsonWriter::end_array() { close(']'); }

JsonWriter& JsonWriter::key(std::string_view name) {
  next_item();
  escape_into(out_, name);
  out_ += indent_ < 0 ? ":" : ": ";
  after_key_ = true;
  return *this;
}

void JsonWriter::null() {
  next_item();
  out_ += "null";
}

void JsonWriter::boolean(bool value) {
  next_item();
  out_ += value ? "true" : "false";
}

void JsonWriter::number(double value) {
  next_item();
  number_into(out_, value);
}

void JsonWriter::string(std::string_view value) {
  next_item();
  escape_into(out_, value);
}

void JsonWriter::flush() {
  if (!sink_ || out_.empty()) return;
  sink_(out_);
  out_.clear();
}

void Json::write(JsonWriter& out) const {
  switch (type()) {
    case Type::kNull: out.null(); break;
    case Type::kBool: out.boolean(as_bool()); break;
    case Type::kNumber: out.number(as_number()); break;
    case Type::kString: out.string(as_string()); break;
    case Type::kArray:
      out.begin_array();
      for (const Json& element : as_array()) element.write(out);
      out.end_array();
      break;
    case Type::kObject:
      out.begin_object();
      for (const auto& [k, v] : as_object()) v.write(out.key(k));
      out.end_object();
      break;
  }
}

std::string Json::dump(int indent) const {
  JsonWriter out(indent);
  write(out);
  return out.take();
}

Result<Json> Json::parse(std::string_view text) {
  return parse(text, JsonLimits{});
}

Result<Json> Json::parse(std::string_view text, const JsonLimits& limits) {
  JsonDomBuilder builder;
  JsonStreamParser parser(builder, limits);
  if (Status s = parser.feed(text); !s.ok()) return s.error();
  if (Status s = parser.finish(); !s.ok()) return s.error();
  return builder.take();
}

}  // namespace sdf
