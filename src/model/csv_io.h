// CSV (de)serialization of probabilistic databases.
//
// Format (header required, comments with '#' allowed):
//
//     xtuple,tuple_id,score,prob,label
//     0,0,21,0.6,S1-reading-a
//
// Null-completion tuples are never written; they are re-derived on load.
//
// Grammar the reader accepts (common/strings.h ReadCsvRows):
//   - Lines end at '\n'; a final line without one still counts, and a
//     CR before the '\n' is stripped with the other edge whitespace
//     (space, tab, CR, LF), so CRLF files read like LF files. Line
//     numbers in errors count every line.
//   - Blank lines and lines whose first non-blank character is '#' are
//     skipped anywhere. The first other line must be the header exactly.
//   - Every later line has exactly five comma-separated fields (there is
//     no quoting): xtuple and tuple_id are 64-bit integers (ParseInt),
//     score and prob are doubles (ParseDouble: what strtod consumes
//     whole without ERANGE, so '+', hex and inf/nan spellings parse,
//     and overflow, subnormals and underflow to zero are errors). Each
//     numeric field may carry edge whitespace. The label is not
//     stripped: it keeps its leading and inner whitespace and runs to
//     the end of the stripped line.
//   - x-tuple keys may be sparse and in any order; they are renumbered
//     densely in order of first appearance. DatabaseBuilder then checks
//     ids, probabilities, scores and masses.
// The stream is read in fixed 64 KiB chunks, so a load holds at most one
// chunk plus the longest line of text besides the database it builds.

#ifndef UCLEAN_MODEL_CSV_IO_H_
#define UCLEAN_MODEL_CSV_IO_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "model/database.h"

namespace uclean {

/// Writes `db`'s real tuples as CSV to `os`.
Status WriteDatabaseCsv(const ProbabilisticDatabase& db, std::ostream* os);

/// Writes `db` to the file at `path`.
Status WriteDatabaseCsvFile(const ProbabilisticDatabase& db,
                            const std::string& path);

/// Parses a database from CSV text on `is`.
Result<ProbabilisticDatabase> ReadDatabaseCsv(std::istream* is);

/// Reads a database from the file at `path`.
Result<ProbabilisticDatabase> ReadDatabaseCsvFile(const std::string& path);

}  // namespace uclean

#endif  // UCLEAN_MODEL_CSV_IO_H_
