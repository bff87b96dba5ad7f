// Small string utilities for CSV serialization and report formatting.
//
// ParseDouble and FormatDouble go through std::from_chars / std::to_chars
// for double, which libstdc++ provides from GCC 11 (libstdc++ 11) on.

#ifndef UCLEAN_COMMON_STRINGS_H_
#define UCLEAN_COMMON_STRINGS_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace uclean {

/// Splits `line` on `delim`, preserving empty fields.
std::vector<std::string> SplitString(std::string_view line, char delim);

/// Splits `line` on `delim` like SplitString, without copying: stores
/// the first min(count, capacity) fields in `fields` and returns the
/// count of fields on the line.
size_t SplitFields(std::string_view line, char delim, std::string_view* fields,
                   size_t capacity);

/// Joins `parts` with `delim` between consecutive elements.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// Parses a double after StripWhitespace. Accepts exactly the tokens
/// std::strtod (C locale) consumes whole without setting ERANGE, with
/// strtod's value: decimal and hexadecimal forms, a leading '+' or '-',
/// and the inf/nan spellings; it rejects overflow and underflow (zero
/// from nonzero digits, subnormals, and tokens just below DBL_MIN that
/// strtod rounds up to it but flags). Tokens whose std::from_chars value
/// is finite and above DBL_MIN in magnitude skip strtod: there the two
/// agree.
Result<double> ParseDouble(std::string_view s);

/// Parses a 64-bit signed integer, rejecting trailing garbage and
/// empty input.
Result<int64_t> ParseInt(std::string_view s);

/// Formats a double with enough digits to round-trip (max_digits10):
/// printf's "%.17g", so "inf", "-inf", "nan" and "-nan" for non-finite
/// values.
std::string FormatDouble(double value);

/// Reads header-led CSV text from `is`, the grammar model/csv_io.h and
/// clean/profile_io.h share, and calls `row` with each data row.
///
/// Lines end at '\n' (a final line without one still counts) and are
/// numbered from 1, counting every line. Each line is StripWhitespace-d;
/// blank lines and lines starting with '#' are skipped. The first other
/// line must equal `header`; every later one is a data row, passed to
/// `row` stripped. The text is read in fixed 64 KiB chunks, so memory is
/// bounded by the longest line, not by the input.
///
/// Errors: "line N: expected header '<header>'"; "empty CSV: no header"
/// when the input holds no header; and a row's error, returned as
/// InvalidArgument "line N: <its message>". Reading stops at the first.
Status ReadCsvRows(std::istream* is, std::string_view header,
                   const std::function<Status(std::string_view row)>& row);

}  // namespace uclean

#endif  // UCLEAN_COMMON_STRINGS_H_
