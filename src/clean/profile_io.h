// CSV (de)serialization of cleaning profiles (per-x-tuple costs and
// sc-probabilities), so campaigns can be configured outside the binary.
//
// Format (header required, '#' comments allowed):
//
//     xtuple,cost,sc_prob
//     0,3,0.75
//
// Rows must cover x-tuples 0..m-1 exactly once each (any order). Lines,
// comments, whitespace and numbers follow the database reader's grammar
// (model/csv_io.h), read through the same ReadCsvRows.
//
// Threading: stateless serialization; concurrent calls are safe on
// distinct streams/paths (the functions add no synchronization around
// a shared stream).

#ifndef UCLEAN_CLEAN_PROFILE_IO_H_
#define UCLEAN_CLEAN_PROFILE_IO_H_

#include <iosfwd>
#include <string>

#include "clean/problem.h"
#include "common/status.h"

namespace uclean {

/// Writes `profile` as CSV to `os`.
Status WriteProfileCsv(const CleaningProfile& profile, std::ostream* os);

/// Writes `profile` to the file at `path`.
Status WriteProfileCsvFile(const CleaningProfile& profile,
                           const std::string& path);

/// Parses a profile from CSV text on `is`. The result covers x-tuples
/// 0..m-1 where m is the number of rows; missing or duplicate x-tuple
/// rows are errors.
Result<CleaningProfile> ReadProfileCsv(std::istream* is);

/// Reads a profile from the file at `path`.
Result<CleaningProfile> ReadProfileCsvFile(const std::string& path);

}  // namespace uclean

#endif  // UCLEAN_CLEAN_PROFILE_IO_H_
