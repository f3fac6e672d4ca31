#ifndef OWLQR_UTIL_JSON_H_
#define OWLQR_UTIL_JSON_H_

// The repository's single JSON implementation: a streaming writer and a
// small DOM parser.
//
// JsonWriter replaces the ad-hoc string-concatenation emitters that used to
// live in the metrics registry, the CLI's REPL summary lines and the bench
// harness: every serialization — including the serving layer's wire codecs
// (src/server/api.h) — goes through this one escaper/formatter, so a name
// with a quote or a control character in it can only be handled correctly
// (or incorrectly) in one place.
//
// JsonValue is the matching parser for the serving layer's request bodies
// and the client library's response handling: recursive descent with a
// hard nesting cap (malicious bodies must not overflow the stack), strict
// about structure (trailing garbage is an error) and tolerant of nothing.
// It is not a speed demon and is not meant to be: request bodies are small;
// answers are written, not parsed, on the hot path.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace owlqr {

// Appends `s` to `*out` as a JSON string literal (quotes included).
void AppendJsonString(std::string* out, std::string_view s);

// Appends `v` in a JSON-legal spelling: %.17g round-trips doubles, while
// NaN and infinities (which JSON cannot carry) are clamped to 0 rather than
// emitting a token the reader would reject.
void AppendJsonDouble(std::string* out, double v);

// A push-style writer: begin/end containers, emit keys and values, read the
// result out of str().  The writer tracks whether a comma is due, so callers
// never hand-manage separators.  Misuse (a key outside an object, unbalanced
// End calls) is a programmer error and intentionally unchecked beyond what
// the structure makes impossible — the output of a misused writer will not
// parse, which every test catches immediately.
class JsonWriter {
 public:
  JsonWriter() = default;

  void BeginObject() { Separate(); out_.push_back('{'); fresh_ = true; }
  void EndObject() { out_.push_back('}'); fresh_ = false; }
  void BeginArray() { Separate(); out_.push_back('['); fresh_ = true; }
  void EndArray() { out_.push_back(']'); fresh_ = false; }

  // Emits the member key (with its ':'); the next value call supplies the
  // member value.
  void Key(std::string_view key) {
    Separate();
    AppendJsonString(&out_, key);
    out_.push_back(':');
    fresh_ = true;  // Suppress the comma before the value.
  }

  void String(std::string_view s) { Separate(); AppendJsonString(&out_, s); }
  // Splices `json` — which must already be a serialized JSON value — in
  // value position, e.g. to nest an object another writer produced.
  void Raw(std::string_view json) { Separate(); out_ += json; }
  void Int(long long v) { Separate(); out_ += std::to_string(v); }
  void UInt(unsigned long long v) { Separate(); out_ += std::to_string(v); }
  void Double(double v) { Separate(); AppendJsonDouble(&out_, v); }
  void Bool(bool v) { Separate(); out_ += v ? "true" : "false"; }
  void Null() { Separate(); out_ += "null"; }

  // Key/value in one call, for the common object-member case.
  void KV(std::string_view key, std::string_view v) { Key(key); String(v); }
  void KV(std::string_view key, const char* v) { Key(key); String(v); }
  void KV(std::string_view key, long long v) { Key(key); Int(v); }
  void KV(std::string_view key, unsigned long long v) { Key(key); UInt(v); }
  void KV(std::string_view key, int v) { Key(key); Int(v); }
  void KV(std::string_view key, long v) { Key(key); Int(v); }
  void KV(std::string_view key, unsigned long v) { Key(key); UInt(v); }
  void KV(std::string_view key, unsigned int v) { Key(key); UInt(v); }
  void KV(std::string_view key, double v) { Key(key); Double(v); }
  void KV(std::string_view key, bool v) { Key(key); Bool(v); }

  // Pre-sizes the output buffer for a document of about `bytes`.
  void Reserve(size_t bytes) { out_.reserve(bytes); }

  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

 private:
  void Separate() {
    if (!fresh_ && !out_.empty()) {
      char last = out_.back();
      if (last != '{' && last != '[' && last != ':') out_.push_back(',');
    }
    fresh_ = false;
  }

  std::string out_;
  bool fresh_ = true;  // True right after a container opens or a key.
};

// A parsed JSON document.  Object member order is not preserved (members
// live in a map); duplicate keys keep the last occurrence, matching what
// every mainstream parser does.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  // Parses `text` into `*out`.  The whole input must be one JSON value plus
  // optional trailing whitespace; anything else fails with a position-
  // carrying message in `*error` (nullable).  Nesting beyond kMaxDepth
  // containers fails rather than recursing unboundedly.
  static bool Parse(std::string_view text, JsonValue* out,
                    std::string* error = nullptr);

  static constexpr int kMaxDepth = 64;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  // Typed accessors with caller-supplied defaults: the wrong type returns
  // the default, never aborts — wire bodies are hostile input.
  bool AsBool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double AsDouble(double fallback = 0) const {
    return is_number() ? number_ : fallback;
  }
  // A number that is not exactly a long (fractional, non-finite, or out of
  // range) counts as the wrong type too.
  long AsLong(long fallback = 0) const {
    long value = 0;
    return ToLong(&value) ? value : fallback;
  }
  // Stores the number in *out iff it is finite, integral and within long's
  // range; false otherwise (not a number, 1.5, 1e30, ...).
  bool ToLong(long* out) const {
    // -2^63 and 2^63 are exact doubles; the comparisons also reject NaN.
    constexpr double kBound = 9223372036854775808.0;
    if (!is_number() || !(number_ >= -kBound && number_ < kBound) ||
        std::trunc(number_) != number_) {
      return false;
    }
    *out = static_cast<long>(number_);
    return true;
  }
  const std::string& AsString() const { return string_; }  // "" if not one.

  // Object member lookup; null when this is not an object or the key is
  // absent.
  const JsonValue* Find(const std::string& key) const;
  // Array elements (empty unless is_array()).
  const std::vector<JsonValue>& items() const { return items_; }
  // Object members (empty unless is_object()).
  const std::map<std::string, JsonValue>& members() const { return members_; }
  size_t size() const {
    return is_array() ? items_.size() : members_.size();
  }

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::map<std::string, JsonValue> members_;
};

}  // namespace owlqr

#endif  // OWLQR_UTIL_JSON_H_
