// Incremental (push) JSON parsing with hard resource caps.
//
// `JsonStreamParser` accepts a document in arbitrary chunks — `feed()` any
// number of times, then `finish()` — and emits SAX-style events to a
// `JsonEventHandler` as soon as each token completes.  All lexical state
// (strings, escapes, `\uXXXX` sequences, numbers, `null`/`true`/`false`
// words) survives chunk boundaries, so a caller may split the input at
// every single byte and observe the identical event stream.
//
// Resource caps are enforced *while parsing*, not after: a hostile input
// that is small on the wire but explosive in memory (nesting bombs, giant
// strings, megabyte number literals, node floods) is rejected at the first
// byte that exceeds a cap, with the absolute byte offset in the error.
// The parser itself retains only O(max string length + nesting depth)
// bytes between chunks — `peak_buffered_bytes()` exposes the high-water
// mark so tests can pin that bound.
//
// `JsonDomBuilder` is the standard handler that materializes a `Json`
// document; `Json::parse` is a thin shim over it, so every existing caller
// exercises the streaming path.  `replay_json_events` walks an existing
// DOM and re-emits its event stream, letting DOM consumers share one
// schema-reader implementation with true streaming consumers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"
#include "util/status.hpp"

namespace sdf {

/// Hard resource caps enforced during parsing.  Zero means "unlimited" for
/// the byte/node caps; depth is always finite (parsing and DOM teardown
/// would otherwise recurse once per level and overflow the stack).
struct JsonLimits {
  /// Maximum container nesting depth (matches the pre-streaming parser).
  int max_depth = 256;
  /// Total input bytes accepted across all `feed()` calls.
  std::uint64_t max_total_bytes = 0;
  /// Per-token byte cap for strings and object keys (decoded bytes).
  std::uint64_t max_string_bytes = 0;
  /// Total JSON values (scalars + containers; keys not counted).
  std::uint64_t max_nodes = 0;

  /// Caps for untrusted front-door ingestion (specs, checkpoints): far
  /// above any legitimate document, far below what could hurt a server.
  /// 256 MiB of input, 1 MiB per string, 8M nodes, depth 256.
  [[nodiscard]] static JsonLimits ingest_defaults() {
    JsonLimits limits;
    limits.max_total_bytes = 256ull << 20;
    limits.max_string_bytes = 1ull << 20;
    limits.max_nodes = 8ull << 20;
    return limits;
  }
};

/// Receives parse events.  Every callback may veto the parse by returning
/// an error Status; the parser aborts immediately and `feed()`/`finish()`
/// return that error unchanged (no offset prefix — handler errors are
/// domain errors, not syntax errors).
class JsonEventHandler {
 public:
  virtual ~JsonEventHandler() = default;

  virtual Status on_null() = 0;
  virtual Status on_bool(bool value) = 0;
  virtual Status on_number(double value) = 0;
  virtual Status on_string(std::string&& value) = 0;
  /// Object member key (always precedes the member's value events).
  virtual Status on_key(std::string&& key) = 0;
  virtual Status on_begin_object() = 0;
  virtual Status on_end_object() = 0;
  virtual Status on_begin_array() = 0;
  virtual Status on_end_array() = 0;
};

/// The push parser; see file comment.  Single-document: after the
/// top-level value closes only trailing whitespace is accepted.
class JsonStreamParser {
 public:
  explicit JsonStreamParser(JsonEventHandler& handler,
                            const JsonLimits& limits = {});

  /// Consumes the next chunk.  Returns the first error hit (syntax error,
  /// cap violation, or handler veto); after an error the parser is stuck
  /// and every later call returns the same error.
  [[nodiscard]] Status feed(std::string_view chunk);

  /// Declares end of input; validates that the document is complete.
  [[nodiscard]] Status finish();

  /// Total bytes accepted so far (= absolute offset of the next byte).
  [[nodiscard]] std::uint64_t bytes_consumed() const { return offset_; }

  /// High-water mark of bytes the parser retained *between* characters
  /// (partial-token buffer + container stack).  Bounded by
  /// `max_string_bytes` plus `max_depth` regardless of input size — the
  /// cap-violation tests pin this.
  [[nodiscard]] std::size_t peak_buffered_bytes() const { return peak_; }

 private:
  enum class State : std::uint8_t {
    kValue,          // expecting a value
    kArrayFirst,     // just after '[': value or ']'
    kObjectFirst,    // just after '{': key or '}'
    kObjectKey,      // after ',' in an object: key required
    kObjectColon,    // after a key: ':' required
    kAfterValue,     // after a value: ',' / ']' / '}' / end of document
    kWord,           // inside null/true/false
    kNumber,         // inside a number token
    kString,         // inside a string or key body
    kStringEscape,   // just after '\'
    kStringUnicode,  // inside the 4 hex digits of \uXXXX
    kDone,           // document complete; whitespace only
    kFailed,
  };

  Status fail(std::string what);
  Status fail_at(std::uint64_t offset, std::string what);
  [[nodiscard]] Status step(char c);      // feed one character
  [[nodiscard]] Status begin_value(char c);
  [[nodiscard]] Status end_word();
  [[nodiscard]] Status end_number();
  [[nodiscard]] Status end_string();
  [[nodiscard]] Status close_container(char c);
  [[nodiscard]] Status value_done();
  [[nodiscard]] Status charge_node();
  void note_buffered();
  /// True in the states where `step` ignores whitespace.
  [[nodiscard]] bool skips_whitespace() const;

  JsonEventHandler& handler_;
  JsonLimits limits_;
  State state_ = State::kValue;
  /// Container stack: one entry per open container, true = object.
  std::vector<bool> stack_;
  /// Partial-token buffer (string/key/number/word bytes seen so far).
  std::string buf_;
  /// True while `buf_` holds an object key rather than a string value.
  bool in_key_ = false;
  /// Pending \uXXXX state: accumulated code point and hex digits seen.
  unsigned unicode_code_ = 0;
  int unicode_digits_ = 0;
  std::uint64_t token_start_ = 0;  ///< absolute offset of current token
  std::uint64_t offset_ = 0;
  std::uint64_t nodes_ = 0;
  std::size_t peak_ = 0;
  std::string error_;  ///< sticky error message (state_ == kFailed)
};

/// Handler that materializes the event stream into a `Json` document.
/// Duplicate keys are preserved in document order, exactly as the
/// pre-streaming parser did.
class JsonDomBuilder : public JsonEventHandler {
 public:
  Status on_null() override;
  Status on_bool(bool value) override;
  Status on_number(double value) override;
  Status on_string(std::string&& value) override;
  Status on_key(std::string&& key) override;
  Status on_begin_object() override;
  Status on_end_object() override;
  Status on_begin_array() override;
  Status on_end_array() override;

  /// The completed document; precondition: the parse finished cleanly.
  [[nodiscard]] Json take();

 private:
  Status add(Json value);

  struct Frame {
    Json container;           // under-construction array or object
    std::string pending_key;  // set between on_key and the member's value
    bool has_key = false;
  };
  std::vector<Frame> stack_;
  Json root_;
  bool done_ = false;
};

/// Walks an existing DOM and emits its event stream (document order,
/// duplicate keys included).  Lets `spec_from_json` share the streaming
/// schema reader.  Depth is bounded by the parse that built `doc`.
[[nodiscard]] Status replay_json_events(const Json& doc,
                                        JsonEventHandler& handler);

}  // namespace sdf
