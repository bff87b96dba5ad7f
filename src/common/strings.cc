#include "common/strings.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <limits>

namespace uclean {

std::vector<std::string> SplitString(std::string_view line, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = line.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(line.substr(start));
      break;
    }
    out.emplace_back(line.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

size_t SplitFields(std::string_view line, char delim, std::string_view* fields,
                   size_t capacity) {
  size_t count = 0;
  size_t start = 0;
  while (true) {
    const size_t pos = line.find(delim, start);
    const size_t end = pos == std::string_view::npos ? line.size() : pos;
    if (count < capacity) fields[count] = line.substr(start, end - start);
    ++count;
    if (pos == std::string_view::npos) return count;
    start = pos + 1;
  }
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(delim);
    out.append(parts[i]);
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         (s[begin] == ' ' || s[begin] == '\t' || s[begin] == '\r' ||
          s[begin] == '\n')) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin &&
         (s[end - 1] == ' ' || s[end - 1] == '\t' || s[end - 1] == '\r' ||
          s[end - 1] == '\n')) {
    --end;
  }
  return s.substr(begin, end - begin);
}

Result<double> ParseDouble(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty()) {
    return Status::InvalidArgument("empty string is not a double");
  }
  // from_chars parses a subset of strtod's grammar (no '+', no hex) with
  // the same correctly rounded value, but reports no underflow: strtod
  // sets ERANGE on zero and subnormal results from nonzero digits, and on
  // some tokens that round up to DBL_MIN. Above DBL_MIN, finite, the two
  // agree; every other token takes strtod's path.
  double value = 0.0;
  const std::from_chars_result fast =
      std::from_chars(s.data(), s.data() + s.size(), value);
  if (fast.ec == std::errc() && fast.ptr == s.data() + s.size() &&
      std::isfinite(value) &&
      std::fabs(value) > std::numeric_limits<double>::min()) {
    return value;
  }
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::InvalidArgument("not a double: '" + buf + "'");
  }
  return value;
}

Result<int64_t> ParseInt(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty()) {
    return Status::InvalidArgument("empty string is not an integer");
  }
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::InvalidArgument("not an integer: '" + std::string(s) + "'");
  }
  return value;
}

std::string FormatDouble(double value) {
  // "-1.2345678901234567e-308" is the longest: 24 bytes.
  char buf[32];
  const std::to_chars_result out =
      std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general,
                    std::numeric_limits<double>::max_digits10);
  return std::string(buf, out.ptr);
}

Status ReadCsvRows(std::istream* is, std::string_view header,
                   const std::function<Status(std::string_view row)>& row) {
  constexpr size_t kChunk = size_t{64} << 10;
  // buf[begin, end) is read but not yet consumed; no '\n' lies in
  // buf[begin, scanned).
  std::string buf;
  size_t begin = 0;
  size_t scanned = 0;
  size_t end = 0;
  bool at_eof = false;
  size_t line_no = 0;
  bool saw_header = false;
  while (true) {
    const char* newline = static_cast<const char*>(
        std::memchr(buf.data() + scanned, '\n', end - scanned));
    std::string_view line;
    if (newline != nullptr) {
      const size_t stop = static_cast<size_t>(newline - buf.data());
      line = std::string_view(buf.data() + begin, stop - begin);
      begin = scanned = stop + 1;
    } else if (!at_eof) {
      // Keep the partial line and append the next chunk after it.
      std::memmove(buf.data(), buf.data() + begin, end - begin);
      end -= begin;
      begin = 0;
      scanned = end;
      if (buf.size() < end + kChunk) buf.resize(end + kChunk);
      is->read(buf.data() + end, static_cast<std::streamsize>(kChunk));
      const size_t got = static_cast<size_t>(is->gcount());
      end += got;
      at_eof = got < kChunk;
      continue;
    } else if (begin < end) {
      line = std::string_view(buf.data() + begin, end - begin);
      begin = scanned = end;
    } else {
      break;
    }
    ++line_no;
    line = StripWhitespace(line);
    if (line.empty() || line.front() == '#') continue;
    if (!saw_header) {
      if (line != header) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": expected header '" +
                                       std::string(header) + "'");
      }
      saw_header = true;
      continue;
    }
    Status s = row(line);
    if (!s.ok()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": " + s.message());
    }
  }
  if (!saw_header) return Status::InvalidArgument("empty CSV: no header");
  return Status::OK();
}

}  // namespace uclean
