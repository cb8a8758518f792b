#include "util/json_stream.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <utility>

#include "util/strings.hpp"

namespace sdf {
namespace {

/// Number tokens longer than this are rejected outright.  Any finite
/// double is expressible well under this bound; only pathological inputs
/// ("1" followed by a megabyte of zeros) ever reach it.
constexpr std::size_t kMaxNumberBytes = 4096;

bool is_ws(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// Characters the number scanner accepts — deliberately the same liberal
/// set as the pre-streaming parser (strtod plus full-token-consumed is the
/// actual validity check).
bool is_number_char(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
         c == '+' || c == '-';
}

bool is_word_char(char c) { return c >= 'a' && c <= 'z'; }

/// Bytes a string body copies verbatim: everything but its terminator and
/// the escape introducer.
bool is_plain_string_char(char c) { return c != '"' && c != '\\'; }

/// Length of the run of `pred` bytes starting at `chunk[i]`, at most
/// `budget` long.
template <typename Pred>
std::size_t run_length(std::string_view chunk, std::size_t i,
                       std::uint64_t budget, Pred pred) {
  const std::size_t limit =
      i + static_cast<std::size_t>(
              std::min<std::uint64_t>(chunk.size() - i, budget));
  std::size_t end = i;
  while (end < limit && pred(chunk[end])) ++end;
  return end - i;
}

/// True when `prefix` could still grow into "null", "true" or "false".
/// The word scanner emits the value as soon as a full word matches (the
/// pre-streaming parser consumed exactly the word and no more, so `nullx`
/// parsed `null` and then failed on the trailing `x` — this reproduces
/// that) and rejects at the first byte that rules every word out.
bool is_word_prefix(const std::string& prefix) {
  constexpr std::string_view kWords[] = {"null", "true", "false"};
  for (std::string_view word : kWords)
    if (word.size() > prefix.size() &&
        word.compare(0, prefix.size(), prefix) == 0)
      return true;
  return false;
}

}  // namespace

JsonStreamParser::JsonStreamParser(JsonEventHandler& handler,
                                   const JsonLimits& limits)
    : handler_(handler), limits_(limits) {
  if (limits_.max_depth < 1) limits_.max_depth = 1;
}

Status JsonStreamParser::fail(std::string what) {
  return fail_at(offset_, std::move(what));
}

Status JsonStreamParser::fail_at(std::uint64_t offset, std::string what) {
  state_ = State::kFailed;
  error_ = strprintf("JSON parse error at offset %llu: %s",
                     static_cast<unsigned long long>(offset), what.c_str());
  return Error{error_};
}

void JsonStreamParser::note_buffered() {
  const std::size_t held = buf_.size() + stack_.size() / 8 + 1;
  if (held > peak_) peak_ = held;
}

Status JsonStreamParser::charge_node() {
  ++nodes_;
  if (limits_.max_nodes != 0 && nodes_ > limits_.max_nodes)
    return fail(strprintf("document exceeds max_nodes (%llu)",
                          static_cast<unsigned long long>(limits_.max_nodes)));
  return Status::Ok();
}

Status JsonStreamParser::value_done() {
  state_ = stack_.empty() ? State::kDone : State::kAfterValue;
  return Status::Ok();
}

Status JsonStreamParser::begin_value(char c) {
  switch (c) {
    case '{':
    case '[': {
      if (static_cast<int>(stack_.size()) >= limits_.max_depth)
        return fail("nesting too deep");
      if (Status s = charge_node(); !s.ok()) return s;
      stack_.push_back(c == '{');
      note_buffered();
      if (Status s = c == '{' ? handler_.on_begin_object()
                              : handler_.on_begin_array();
          !s.ok()) {
        state_ = State::kFailed;
        error_ = s.error().message;
        return s;
      }
      state_ = c == '{' ? State::kObjectFirst : State::kArrayFirst;
      return Status::Ok();
    }
    case '"':
      buf_.clear();
      in_key_ = false;
      token_start_ = offset_;
      state_ = State::kString;
      return Status::Ok();
    default:
      token_start_ = offset_;
      buf_.clear();
      if (is_word_char(c)) {
        buf_ += c;
        state_ = State::kWord;
        return Status::Ok();
      }
      if (is_number_char(c)) {
        buf_ += c;
        state_ = State::kNumber;
        return Status::Ok();
      }
      return fail("invalid value");
  }
}

Status JsonStreamParser::end_word() {
  Status s = Status::Ok();
  if (buf_ == "null") {
    if (s = charge_node(); s.ok()) s = handler_.on_null();
  } else if (buf_ == "true") {
    if (s = charge_node(); s.ok()) s = handler_.on_bool(true);
  } else if (buf_ == "false") {
    if (s = charge_node(); s.ok()) s = handler_.on_bool(false);
  } else {
    return fail_at(token_start_, "invalid value");
  }
  buf_.clear();
  if (!s.ok()) {
    state_ = State::kFailed;
    error_ = s.error().message;
    return s;
  }
  return value_done();
}

Status JsonStreamParser::end_number() {
  char* end = nullptr;
  const double value = std::strtod(buf_.c_str(), &end);
  if (end != buf_.c_str() + buf_.size() || buf_.empty())
    return fail("invalid number");
  if (!std::isfinite(value))
    return fail("number out of range (non-finite)");
  buf_.clear();
  Status s = charge_node();
  if (s.ok()) s = handler_.on_number(value);
  if (!s.ok()) {
    state_ = State::kFailed;
    error_ = s.error().message;
    return s;
  }
  return value_done();
}

Status JsonStreamParser::end_string() {
  Status s = Status::Ok();
  if (in_key_) {
    s = handler_.on_key(std::move(buf_));
  } else {
    if (s = charge_node(); s.ok()) s = handler_.on_string(std::move(buf_));
  }
  buf_.clear();
  if (!s.ok()) {
    state_ = State::kFailed;
    error_ = s.error().message;
    return s;
  }
  if (in_key_) {
    in_key_ = false;
    state_ = State::kObjectColon;
    return Status::Ok();
  }
  return value_done();
}

Status JsonStreamParser::close_container(char c) {
  const bool closing_object = c == '}';
  if (stack_.empty() || stack_.back() != closing_object)
    return fail(closing_object ? "unexpected '}'" : "unexpected ']'");
  stack_.pop_back();
  Status s =
      closing_object ? handler_.on_end_object() : handler_.on_end_array();
  if (!s.ok()) {
    state_ = State::kFailed;
    error_ = s.error().message;
    return s;
  }
  return value_done();
}

Status JsonStreamParser::step(char c) {
  switch (state_) {
    case State::kValue:
      if (is_ws(c)) return Status::Ok();
      return begin_value(c);

    case State::kArrayFirst:
      if (is_ws(c)) return Status::Ok();
      if (c == ']') return close_container(c);
      return begin_value(c);

    case State::kObjectFirst:
      if (is_ws(c)) return Status::Ok();
      if (c == '}') return close_container(c);
      [[fallthrough]];
    case State::kObjectKey:
      if (is_ws(c)) return Status::Ok();
      if (c != '"') return fail("expected string");
      buf_.clear();
      in_key_ = true;
      token_start_ = offset_;
      state_ = State::kString;
      return Status::Ok();

    case State::kObjectColon:
      if (is_ws(c)) return Status::Ok();
      if (c != ':') return fail("expected ':'");
      state_ = State::kValue;
      return Status::Ok();

    case State::kAfterValue:
      if (is_ws(c)) return Status::Ok();
      if (c == ',') {
        state_ = stack_.back() ? State::kObjectKey : State::kValue;
        return Status::Ok();
      }
      if (c == ']' || c == '}') {
        if (stack_.back() != (c == '}'))
          return fail(stack_.back() ? "expected ',' or '}'"
                                    : "expected ',' or ']'");
        return close_container(c);
      }
      return fail(stack_.back() ? "expected ',' or '}'"
                                : "expected ',' or ']'");

    case State::kWord:
      if (is_word_char(c)) {
        buf_ += c;
        if (buf_ == "null" || buf_ == "true" || buf_ == "false")
          return end_word();
        if (!is_word_prefix(buf_)) return fail_at(token_start_, "invalid value");
        return Status::Ok();
      }
      // A non-word byte while a prefix is still pending: the word never
      // completed ("nul", "fals,").
      return fail_at(token_start_, "invalid value");

    case State::kNumber:
      // feed() takes number bytes in bulk: `c` ends the token.
      if (Status s = end_number(); !s.ok()) return s;
      return step(c);  // reprocess the terminator

    case State::kString:
      // feed() copies plain bytes in bulk (UTF-8 passes through
      // unvalidated, so multi-byte sequences split across chunks need no
      // care): `c` is the closing quote or a backslash.
      if (c == '"') return end_string();
      state_ = State::kStringEscape;
      return Status::Ok();

    case State::kStringEscape:
      switch (c) {
        case '"': buf_ += '"'; break;
        case '\\': buf_ += '\\'; break;
        case '/': buf_ += '/'; break;
        case 'n': buf_ += '\n'; break;
        case 't': buf_ += '\t'; break;
        case 'r': buf_ += '\r'; break;
        case 'b': buf_ += '\b'; break;
        case 'f': buf_ += '\f'; break;
        case 'u':
          unicode_code_ = 0;
          unicode_digits_ = 0;
          state_ = State::kStringUnicode;
          return Status::Ok();
        default:
          return fail("unknown escape");
      }
      note_buffered();
      if (limits_.max_string_bytes != 0 &&
          buf_.size() > limits_.max_string_bytes)
        return fail(strprintf(
            "string exceeds max_string_bytes (%llu)",
            static_cast<unsigned long long>(limits_.max_string_bytes)));
      state_ = State::kString;
      return Status::Ok();

    case State::kStringUnicode: {
      unsigned digit = 0;
      if (c >= '0' && c <= '9') digit = static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') digit = static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') digit = static_cast<unsigned>(c - 'A' + 10);
      else return fail("bad \\u escape");
      unicode_code_ = (unicode_code_ << 4) | digit;
      if (++unicode_digits_ < 4) return Status::Ok();
      // UTF-8 encode (BMP only; surrogate pairs are not emitted by the
      // library's own writer — lone surrogates encode as-is, matching the
      // pre-streaming parser byte for byte).
      const unsigned code = unicode_code_;
      if (code < 0x80) {
        buf_ += static_cast<char>(code);
      } else if (code < 0x800) {
        buf_ += static_cast<char>(0xC0 | (code >> 6));
        buf_ += static_cast<char>(0x80 | (code & 0x3F));
      } else {
        buf_ += static_cast<char>(0xE0 | (code >> 12));
        buf_ += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
        buf_ += static_cast<char>(0x80 | (code & 0x3F));
      }
      note_buffered();
      if (limits_.max_string_bytes != 0 &&
          buf_.size() > limits_.max_string_bytes)
        return fail(strprintf(
            "string exceeds max_string_bytes (%llu)",
            static_cast<unsigned long long>(limits_.max_string_bytes)));
      state_ = State::kString;
      return Status::Ok();
    }

    case State::kDone:
      if (is_ws(c)) return Status::Ok();
      return fail("trailing characters");

    case State::kFailed:
      return Error{error_};
  }
  return fail("internal parser state corruption");  // unreachable
}

bool JsonStreamParser::skips_whitespace() const {
  switch (state_) {
    case State::kValue:
    case State::kArrayFirst:
    case State::kObjectFirst:
    case State::kObjectKey:
    case State::kObjectColon:
    case State::kAfterValue:
    case State::kDone:
      return true;
    default:
      return false;
  }
}

Status JsonStreamParser::feed(std::string_view chunk) {
  if (state_ == State::kFailed) return Error{error_};
  std::size_t i = 0;
  while (i < chunk.size()) {
    if (limits_.max_total_bytes != 0 && offset_ >= limits_.max_total_bytes)
      return fail(strprintf(
          "input exceeds max_total_bytes (%llu)",
          static_cast<unsigned long long>(limits_.max_total_bytes)));
    // Fast paths: consume a whole run of bytes that `step` would take one
    // at a time with no other effect -- whitespace between tokens, a
    // string body, the rest of a number.  Each run stops at the total-bytes
    // cap and the loop re-checks the caps before the byte that ended it,
    // so every error and its offset are the same as byte by byte, whatever
    // the chunking.
    const std::uint64_t budget = limits_.max_total_bytes != 0
                                     ? limits_.max_total_bytes - offset_
                                     : UINT64_MAX;
    if (state_ == State::kString || state_ == State::kNumber) {
      const bool string = state_ == State::kString;
      std::size_t run = string ? run_length(chunk, i, budget,
                                            is_plain_string_char)
                               : run_length(chunk, i, budget, is_number_char);
      const std::uint64_t cap =
          string ? limits_.max_string_bytes : kMaxNumberBytes;
      // Never buffer past the token cap: append only up to the first
      // overflowing byte and fail at exactly that byte's offset, so
      // retained memory stays bounded even when a hostile token arrives in
      // one giant chunk.
      if (cap != 0 && buf_.size() + run > cap) {
        run = static_cast<std::size_t>(cap) + 1 - buf_.size();
        buf_.append(chunk.data() + i, run);
        offset_ += run - 1;
        note_buffered();
        return fail(string ? strprintf("string exceeds max_string_bytes "
                                       "(%llu)",
                                       static_cast<unsigned long long>(cap))
                           : std::string("number literal too long"));
      }
      if (run > 0) {
        buf_.append(chunk.data() + i, run);
        offset_ += run;
        note_buffered();
        i += run;
        continue;
      }
    } else if (skips_whitespace()) {
      const std::size_t run = run_length(chunk, i, budget, is_ws);
      if (run > 0) {
        offset_ += run;
        i += run;
        continue;
      }
    }
    if (Status s = step(chunk[i]); !s.ok()) return s;
    ++offset_;
    ++i;
  }
  return Status::Ok();
}

Status JsonStreamParser::finish() {
  if (state_ == State::kFailed) return Error{error_};
  // Terminate any in-flight token, then judge the final state.
  if (state_ == State::kWord) {
    if (Status s = end_word(); !s.ok()) return s;
  } else if (state_ == State::kNumber) {
    if (Status s = end_number(); !s.ok()) return s;
  }
  switch (state_) {
    case State::kDone:
      return Status::Ok();
    case State::kString:
    case State::kStringEscape:
      return fail("unterminated string");
    case State::kStringUnicode:
      return fail("bad \\u escape");
    default:
      return fail("unexpected end of input");
  }
}

// ---- JsonDomBuilder ---------------------------------------------------------

Status JsonDomBuilder::add(Json value) {
  if (stack_.empty()) {
    root_ = std::move(value);
    done_ = true;
    return Status::Ok();
  }
  Frame& top = stack_.back();
  if (top.container.is_array()) {
    top.container.as_array().push_back(std::move(value));
  } else {
    // The parser guarantees a key precedes every object member.
    top.container.as_object().emplace_back(std::move(top.pending_key),
                                           std::move(value));
    top.has_key = false;
  }
  return Status::Ok();
}

Status JsonDomBuilder::on_null() { return add(Json(nullptr)); }
Status JsonDomBuilder::on_bool(bool value) { return add(Json(value)); }
Status JsonDomBuilder::on_number(double value) { return add(Json(value)); }
Status JsonDomBuilder::on_string(std::string&& value) {
  return add(Json(std::move(value)));
}

Status JsonDomBuilder::on_key(std::string&& key) {
  Frame& top = stack_.back();
  top.pending_key = std::move(key);
  top.has_key = true;
  return Status::Ok();
}

Status JsonDomBuilder::on_begin_object() {
  stack_.push_back(Frame{Json(JsonObject{}), {}, false});
  return Status::Ok();
}

Status JsonDomBuilder::on_begin_array() {
  stack_.push_back(Frame{Json(JsonArray{}), {}, false});
  return Status::Ok();
}

Status JsonDomBuilder::on_end_object() {
  Json finished = std::move(stack_.back().container);
  stack_.pop_back();
  return add(std::move(finished));
}

Status JsonDomBuilder::on_end_array() { return on_end_object(); }

Json JsonDomBuilder::take() {
  SDF_CHECK(done_ && stack_.empty(),
            "JsonDomBuilder::take before the document completed");
  done_ = false;
  return std::move(root_);
}

// ---- DOM replay -------------------------------------------------------------

Status replay_json_events(const Json& doc, JsonEventHandler& handler) {
  switch (doc.type()) {
    case Json::Type::kNull:
      return handler.on_null();
    case Json::Type::kBool:
      return handler.on_bool(doc.as_bool());
    case Json::Type::kNumber:
      return handler.on_number(doc.as_number());
    case Json::Type::kString:
      return handler.on_string(std::string(doc.as_string()));
    case Json::Type::kArray: {
      if (Status s = handler.on_begin_array(); !s.ok()) return s;
      for (const Json& element : doc.as_array())
        if (Status s = replay_json_events(element, handler); !s.ok()) return s;
      return handler.on_end_array();
    }
    case Json::Type::kObject: {
      if (Status s = handler.on_begin_object(); !s.ok()) return s;
      for (const auto& [key, value] : doc.as_object()) {
        if (Status s = handler.on_key(std::string(key)); !s.ok()) return s;
        if (Status s = replay_json_events(value, handler); !s.ok()) return s;
      }
      return handler.on_end_object();
    }
  }
  return Error{"replay_json_events: corrupt Json value"};  // unreachable
}

}  // namespace sdf
