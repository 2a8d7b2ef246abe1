// Single-pass NDJSON codec shared by the scheduler event, telemetry and span
// streams (src/obs). Every line of those streams is one flat JSON object:
// integer, double and string members plus flat arrays of numbers.
//
// Decoding. NdjsonObjectReader walks one line once, left to right, and hands
// each member to the caller, who reads the value with a typed read straight
// into its record. No DOM is built and nothing is allocated unless a string
// holds an escape. The reader is strict: the line must be exactly one JSON
// object (surrounding whitespace allowed, trailing content rejected), a typed
// read fails on a value of any other JSON type, integers are decoded exactly
// with std::from_chars<int64_t> (never through a double), doubles with
// std::from_chars<double> (so shortest round-trip output reads back bitwise),
// and string escapes — \uXXXX included — are decoded. Members the caller does
// not read are skipped as any JSON value. DecodeNdjsonObject adds the
// key-table dispatch and rejects a known key that appears twice.
//
// Encoding. The Append* helpers build lines with std::to_chars into a
// caller-owned buffer; WriteNdjsonLines writes a stream's lines through
// one reused buffer; ReadNdjsonLines is the matching line loop.

#ifndef SRC_COMMON_NDJSON_H_
#define SRC_COMMON_NDJSON_H_

#include <cassert>
#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/function_ref.h"

namespace philly {

class NdjsonObjectReader {
 public:
  explicit NdjsonObjectReader(std::string_view line) : text_(line) {}

  // Advances to the next member and sets *key (a view that stays valid until
  // the next call). A value the caller did not read is skipped first. Returns
  // false at the end of the object — after checking that only whitespace
  // follows — or on the first error; ok() tells the two apart.
  bool NextMember(std::string_view* key);

  // Typed reads of the current member's value. Each returns false and ends
  // the scan when the value has another JSON type or does not fit.
  template <std::signed_integral Int>
  bool ReadInt(Int* out);
  bool ReadDouble(double* out);
  // The view points into the line, or into a buffer of the reader's when the
  // string holds escapes; it stays valid until the next read.
  bool ReadStringView(std::string_view* out);
  bool ReadString(std::string* out);
  // Reads an integer array, reserving exactly its element count first.
  template <std::signed_integral Int>
  bool ReadIntArray(std::vector<Int>* out);
  // Reads a number array into `out`; more than out.size() elements fail.
  // *count receives the number of elements read.
  template <typename Number>
  bool ReadArray(std::span<Number> out, size_t* count);

  // Ends the scan with an error (always returns false). The first error wins.
  bool Fail(std::string_view what);

  bool ok() const { return error_.empty(); }
  // "<what> at byte N", naming the member when one was being read.
  const std::string& error() const { return error_; }

 private:
  enum class State { kStart, kValue, kAfterValue, kDone };

  template <typename Number>
  bool ReadNumber(Number* out) {
    if constexpr (std::is_floating_point_v<Number>) {
      return ReadDouble(out);
    } else {
      return ReadInt(out);
    }
  }

  bool ParseKey(std::string_view* key);
  bool BeginValue() {
    return state_ == State::kValue || Fail("no value to read");
  }
  void EndValue() { state_ = State::kAfterValue; }
  // Finds the end of the JSON number at pos_ (false when none starts there).
  bool ScanNumber(size_t* end) const;
  bool ParseString(std::string& scratch, std::string_view* out);
  bool ParseEscape(std::string& scratch);
  bool ParseHex4(uint32_t* code);
  bool SkipValue(int depth);
  bool OpenArray();
  bool NextElement(bool first);
  size_t CountArrayElements() const;
  void SkipSpace();

  std::string_view text_;
  size_t pos_ = 0;
  State state_ = State::kStart;
  std::string_view key_;
  std::string key_scratch_;    // decoded keys that held escapes
  std::string value_scratch_;  // decoded string values that held escapes
  std::string error_;
};

template <std::signed_integral Int>
bool NdjsonObjectReader::ReadInt(Int* out) {
  if (!BeginValue()) {
    return false;
  }
  // One pass: from_chars consumes the sign and digits; what follows must not
  // turn the token into a fraction or exponent, and JSON forbids "01".
  const char* first = text_.data() + pos_;
  const char* last = text_.data() + text_.size();
  const auto [ptr, ec] = std::from_chars(first, last, *out);
  if (ec == std::errc::invalid_argument) {
    return Fail("expected an integer");
  }
  const char* digits = first + (*first == '-' ? 1 : 0);
  if ((*digits == '0' && ptr - digits > 1) ||
      (ptr != last && (*ptr == '.' || *ptr == 'e' || *ptr == 'E'))) {
    return Fail("expected an integer");
  }
  if (ec != std::errc()) {
    return Fail("integer out of range");
  }
  pos_ = static_cast<size_t>(ptr - text_.data());
  EndValue();
  return true;
}

template <std::signed_integral Int>
bool NdjsonObjectReader::ReadIntArray(std::vector<Int>* out) {
  out->clear();
  if (!OpenArray()) {
    return false;
  }
  out->reserve(CountArrayElements());
  for (bool first = true; NextElement(first); first = false) {
    Int value = 0;
    if (!ReadInt(&value)) {
      return false;
    }
    out->push_back(value);
  }
  return ok();
}

template <typename Number>
bool NdjsonObjectReader::ReadArray(std::span<Number> out, size_t* count) {
  *count = 0;
  if (!OpenArray()) {
    return false;
  }
  for (bool first = true; NextElement(first); first = false) {
    if (*count == out.size()) {
      return Fail("array has too many elements");
    }
    if (!ReadNumber(&out[(*count)++])) {
      return false;
    }
  }
  return ok();
}

// Index of `key` in `keys`, or -1. The search starts at *hint and leaves it
// just past the match, so a line written in table order costs one comparison
// per member.
int FindNdjsonKey(std::span<const std::string_view> keys, std::string_view key,
                  size_t* hint);

// Decodes `line` as one flat object whose known members are named by `keys`
// (at most 64). For each member keys[i] it calls read_member(i, reader),
// which reads the value with one typed read and returns its result (or
// reader.Fail(...)). Unknown keys are skipped; a known key that appears twice
// is rejected. *seen gets bit i set for each member keys[i] present. On
// failure returns false with the reader's message in *error (when non-null).
template <typename ReadMember>
bool DecodeNdjsonObject(std::string_view line,
                        std::span<const std::string_view> keys,
                        ReadMember&& read_member, uint64_t* seen,
                        std::string* error) {
  assert(keys.size() <= 64);  // one bit of `present` per key
  NdjsonObjectReader reader(line);
  uint64_t present = 0;
  size_t hint = 0;
  std::string_view key;
  while (reader.NextMember(&key)) {
    const int index = FindNdjsonKey(keys, key, &hint);
    if (index < 0) {
      continue;  // skipped by the next NextMember
    }
    const uint64_t bit = uint64_t{1} << index;
    if ((present & bit) != 0) {
      reader.Fail("duplicate member");
      break;
    }
    present |= bit;
    if (!read_member(static_cast<size_t>(index), reader)) {
      reader.Fail("invalid value");  // no-op when the read already failed
      break;
    }
  }
  if (!reader.ok()) {
    if (error != nullptr) {
      *error = reader.error();
    }
    return false;
  }
  *seen = present;
  return true;
}

// Reads `in` one line at a time, skipping empty lines, and passes each line
// to decode_line, which returns false and sets its error argument on a
// malformed line. Stops at the first such line and reports it as
// "line N: <error>" via *error (cleared first; empty on success).
void ReadNdjsonLines(std::istream& in,
                     FunctionRef<bool(std::string_view, std::string*)> decode_line,
                     std::string* error);

// Writes `count` lines, line i built by append_line(buffer, i) and followed
// by '\n', through one reused buffer flushed in large blocks.
void WriteNdjsonLines(std::ostream& out, size_t count,
                      FunctionRef<void(std::string&, size_t)> append_line);

// Encoding helpers. The *Field forms append `,"key":value`: every stream
// line opens with a fixed first member, so each later member takes a comma.
void AppendJsonInt(std::string& out, int64_t value);
// Shortest round-trip encoding: byte-stable, and reads back bitwise.
void AppendJsonDouble(std::string& out, double value);
void AppendNdjsonField(std::string& out, std::string_view key, int64_t value);
void AppendNdjsonField(std::string& out, std::string_view key, double value);
// The value is JSON-escaped (JsonEscape).
void AppendNdjsonField(std::string& out, std::string_view key,
                       std::string_view value);

template <typename Sequence>
void AppendNdjsonArray(std::string& out, std::string_view key,
                       const Sequence& values) {
  out += ",\"";
  out += key;
  out += "\":[";
  // Elements are formatted into a stack buffer and appended in blocks: one
  // string append per block instead of one per element.
  char block[512];
  char* p = block;
  for (size_t i = 0; i < values.size(); ++i) {
    if (block + sizeof(block) - p < 40) {  // room for ',' + any number
      out.append(block, p);
      p = block;
    }
    if (i > 0) {
      *p++ = ',';
    }
    p = std::to_chars(p, block + sizeof(block), values[i]).ptr;
  }
  *p++ = ']';
  out.append(block, p);
}

}  // namespace philly

#endif  // SRC_COMMON_NDJSON_H_
