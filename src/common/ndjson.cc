#include "src/common/ndjson.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "src/common/strings.h"

namespace philly {
namespace {

// Unknown members nest at most this deep; deeper input is rejected rather
// than recursed into.
constexpr int kMaxSkipDepth = 64;

// WriteNdjsonLines hands the stream blocks of about this many bytes.
constexpr size_t kWriteBlockBytes = size_t{64} << 10;

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsSpace(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

int HexValue(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

void AppendUtf8(std::string& out, uint32_t code) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xC0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else if (code < 0x10000) {
    out += static_cast<char>(0xE0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (code >> 18));
    out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

}  // namespace

bool NdjsonObjectReader::Fail(std::string_view what) {
  if (error_.empty()) {
    if (state_ == State::kValue) {
      error_ += "member '";
      error_ += key_;
      error_ += "': ";
    }
    error_ += what;
    error_ += " at byte ";
    error_ += std::to_string(pos_);
  }
  state_ = State::kDone;
  return false;
}

void NdjsonObjectReader::SkipSpace() {
  while (pos_ < text_.size() && IsSpace(text_[pos_])) {
    ++pos_;
  }
}

bool NdjsonObjectReader::NextMember(std::string_view* key) {
  switch (state_) {
    case State::kDone:
      return false;
    case State::kStart:
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '{') {
        return Fail("expected '{'");
      }
      ++pos_;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        break;  // empty object
      }
      return ParseKey(key);
    case State::kValue:
      if (!SkipValue(0)) {
        return false;
      }
      EndValue();
      [[fallthrough]];
    case State::kAfterValue:
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        SkipSpace();
        return ParseKey(key);
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        break;
      }
      return Fail("expected ',' or '}'");
  }
  state_ = State::kDone;
  SkipSpace();
  if (pos_ != text_.size()) {
    return Fail("trailing content");
  }
  return false;
}

bool NdjsonObjectReader::ParseKey(std::string_view* key) {
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return Fail("expected a member name");
  }
  if (!ParseString(key_scratch_, &key_)) {
    return false;
  }
  SkipSpace();
  if (pos_ >= text_.size() || text_[pos_] != ':') {
    return Fail("expected ':'");
  }
  ++pos_;
  SkipSpace();
  state_ = State::kValue;
  *key = key_;
  return true;
}

bool NdjsonObjectReader::ScanNumber(size_t* end) const {
  size_t p = pos_;
  const size_t n = text_.size();
  if (p < n && text_[p] == '-') {
    ++p;
  }
  if (p >= n || !IsDigit(text_[p])) {
    return false;
  }
  // JSON forbids leading zeros: after a 0 the integer part ends, so "01"
  // stops at the 0 and the stray 1 fails as unexpected content.
  if (text_[p] == '0') {
    ++p;
  } else {
    while (p < n && IsDigit(text_[p])) {
      ++p;
    }
  }
  if (p < n && text_[p] == '.') {
    ++p;
    if (p >= n || !IsDigit(text_[p])) {
      return false;
    }
    while (p < n && IsDigit(text_[p])) {
      ++p;
    }
  }
  if (p < n && (text_[p] == 'e' || text_[p] == 'E')) {
    ++p;
    if (p < n && (text_[p] == '+' || text_[p] == '-')) {
      ++p;
    }
    if (p >= n || !IsDigit(text_[p])) {
      return false;
    }
    while (p < n && IsDigit(text_[p])) {
      ++p;
    }
  }
  *end = p;
  return true;
}

bool NdjsonObjectReader::ReadDouble(double* out) {
  size_t end = 0;
  if (!BeginValue()) {
    return false;
  }
  if (!ScanNumber(&end)) {
    return Fail("expected a number");
  }
  const char* last = text_.data() + end;
  const auto [ptr, ec] = std::from_chars(text_.data() + pos_, last, *out);
  if (ec != std::errc() || ptr != last) {
    return Fail("number out of range");
  }
  pos_ = end;
  EndValue();
  return true;
}

bool NdjsonObjectReader::ReadStringView(std::string_view* out) {
  if (!BeginValue()) {
    return false;
  }
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return Fail("expected a string");
  }
  if (!ParseString(value_scratch_, out)) {
    return false;
  }
  EndValue();
  return true;
}

bool NdjsonObjectReader::ReadString(std::string* out) {
  std::string_view view;
  if (!ReadStringView(&view)) {
    return false;
  }
  out->assign(view);
  return true;
}

bool NdjsonObjectReader::ParseString(std::string& scratch, std::string_view* out) {
  const size_t begin = ++pos_;  // past the opening quote
  // Fast path: no escapes, so the view points into the line.
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') {
      *out = text_.substr(begin, pos_ - begin);
      ++pos_;
      return true;
    }
    if (c == '\\') {
      break;
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      return Fail("control character in string");
    }
    ++pos_;
  }
  scratch.assign(text_.substr(begin, pos_ - begin));
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') {
      *out = scratch;
      ++pos_;
      return true;
    }
    if (c == '\\') {
      ++pos_;
      if (!ParseEscape(scratch)) {
        return false;
      }
      continue;
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      return Fail("control character in string");
    }
    scratch += c;
    ++pos_;
  }
  return Fail("unterminated string");
}

bool NdjsonObjectReader::ParseEscape(std::string& scratch) {
  if (pos_ >= text_.size()) {
    return Fail("unterminated string");
  }
  const char esc = text_[pos_++];
  switch (esc) {
    case '"':
    case '\\':
    case '/':
      scratch += esc;
      return true;
    case 'b':
      scratch += '\b';
      return true;
    case 'f':
      scratch += '\f';
      return true;
    case 'n':
      scratch += '\n';
      return true;
    case 'r':
      scratch += '\r';
      return true;
    case 't':
      scratch += '\t';
      return true;
    case 'u':
      break;
    default:
      return Fail("invalid escape");
  }
  uint32_t code = 0;
  if (!ParseHex4(&code)) {
    return false;
  }
  if (code >= 0xDC00 && code <= 0xDFFF) {
    return Fail("unpaired surrogate escape");
  }
  if (code >= 0xD800 && code <= 0xDBFF) {
    // A high surrogate must be followed by an escaped low surrogate.
    uint32_t low = 0;
    if (text_.substr(pos_, 2) != "\\u") {
      return Fail("unpaired surrogate escape");
    }
    pos_ += 2;
    if (!ParseHex4(&low)) {
      return false;
    }
    if (low < 0xDC00 || low > 0xDFFF) {
      return Fail("unpaired surrogate escape");
    }
    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
  }
  AppendUtf8(scratch, code);
  return true;
}

bool NdjsonObjectReader::ParseHex4(uint32_t* code) {
  if (text_.size() - pos_ < 4) {
    return Fail("truncated \\u escape");
  }
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    const int digit = HexValue(text_[pos_ + static_cast<size_t>(i)]);
    if (digit < 0) {
      return Fail("invalid \\u escape");
    }
    value = value * 16 + static_cast<uint32_t>(digit);
  }
  pos_ += 4;
  *code = value;
  return true;
}

bool NdjsonObjectReader::SkipValue(int depth) {
  if (depth > kMaxSkipDepth) {
    return Fail("value nested too deeply");
  }
  if (pos_ >= text_.size()) {
    return Fail("expected a value");
  }
  const char c = text_[pos_];
  if (c == '"') {
    std::string_view ignored;
    return ParseString(value_scratch_, &ignored);
  }
  if (c == '{' || c == '[') {
    const char close = c == '{' ? '}' : ']';
    ++pos_;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == close) {
      ++pos_;
      return true;
    }
    for (;;) {
      if (c == '{') {
        std::string_view ignored;
        if (pos_ >= text_.size() || text_[pos_] != '"') {
          return Fail("expected a member name");
        }
        if (!ParseString(value_scratch_, &ignored)) {
          return false;
        }
        SkipSpace();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return Fail("expected ':'");
        }
        ++pos_;
        SkipSpace();
      }
      if (!SkipValue(depth + 1)) {
        return false;
      }
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        SkipSpace();
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == close) {
        ++pos_;
        return true;
      }
      return Fail(c == '{' ? "expected ',' or '}'" : "expected ',' or ']'");
    }
  }
  for (const std::string_view literal : {"true", "false", "null"}) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
  }
  size_t end = 0;
  if (!ScanNumber(&end)) {
    return Fail("invalid value");
  }
  pos_ = end;
  return true;
}

bool NdjsonObjectReader::OpenArray() {
  if (!BeginValue()) {
    return false;
  }
  if (pos_ >= text_.size() || text_[pos_] != '[') {
    return Fail("expected an array");
  }
  ++pos_;
  SkipSpace();
  return true;
}

bool NdjsonObjectReader::NextElement(bool first) {
  SkipSpace();
  // A ']' right after a comma never gets here: the comma's element read
  // fails on it first.
  if (pos_ < text_.size() && text_[pos_] == ']') {
    ++pos_;
    EndValue();
    return false;
  }
  if (!first) {
    if (pos_ >= text_.size() || text_[pos_] != ',') {
      state_ = State::kValue;
      return Fail("expected ',' or ']'");
    }
    ++pos_;
    SkipSpace();
  }
  state_ = State::kValue;
  return true;
}

size_t NdjsonObjectReader::CountArrayElements() const {
  const std::string_view rest = text_.substr(pos_);
  const std::string_view body = rest.substr(0, rest.find(']'));
  if (body.find_first_not_of(" \t\n\r") == std::string_view::npos) {
    return 0;
  }
  return static_cast<size_t>(std::count(body.begin(), body.end(), ',')) + 1;
}

int FindNdjsonKey(std::span<const std::string_view> keys, std::string_view key,
                  size_t* hint) {
  const size_t n = keys.size();
  size_t i = *hint < n ? *hint : 0;
  for (size_t probes = 0; probes < n; ++probes) {
    if (keys[i] == key) {
      *hint = i + 1;
      return static_cast<int>(i);
    }
    if (++i == n) {
      i = 0;
    }
  }
  return -1;
}

void ReadNdjsonLines(std::istream& in,
                     FunctionRef<bool(std::string_view, std::string*)> decode_line,
                     std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  std::string line;
  std::string line_error;
  int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    if (!decode_line(line, &line_error)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_number) + ": " + line_error;
      }
      return;
    }
  }
}

void WriteNdjsonLines(std::ostream& out, size_t count,
                      FunctionRef<void(std::string&, size_t)> append_line) {
  std::string buffer;
  buffer.reserve(kWriteBlockBytes + 4096);
  for (size_t i = 0; i < count; ++i) {
    append_line(buffer, i);
    buffer += '\n';
    if (buffer.size() >= kWriteBlockBytes) {
      out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      buffer.clear();
    }
  }
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
}

void AppendJsonInt(std::string& out, int64_t value) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

void AppendJsonDouble(std::string& out, double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

void AppendNdjsonField(std::string& out, std::string_view key, int64_t value) {
  out += ",\"";
  out += key;
  out += "\":";
  AppendJsonInt(out, value);
}

void AppendNdjsonField(std::string& out, std::string_view key, double value) {
  out += ",\"";
  out += key;
  out += "\":";
  AppendJsonDouble(out, value);
}

void AppendNdjsonField(std::string& out, std::string_view key,
                       std::string_view value) {
  out += ",\"";
  out += key;
  out += "\":\"";
  out += JsonEscape(value);
  out += '"';
}

}  // namespace philly
