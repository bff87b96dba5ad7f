#include "clean/profile_io.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "common/strings.h"
#include "model/tuple.h"

namespace uclean {

namespace {
constexpr char kHeader[] = "xtuple,cost,sc_prob";
}  // namespace

Status WriteProfileCsv(const CleaningProfile& profile, std::ostream* os) {
  if (profile.costs.size() != profile.sc_probs.size()) {
    return Status::InvalidArgument("profile vectors disagree on size");
  }
  *os << kHeader << "\n";
  for (size_t l = 0; l < profile.costs.size(); ++l) {
    *os << l << ',' << profile.costs[l] << ','
        << FormatDouble(profile.sc_probs[l]) << "\n";
  }
  if (!*os) return Status::IOError("write failed");
  return Status::OK();
}

Status WriteProfileCsvFile(const CleaningProfile& profile,
                           const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  return WriteProfileCsv(profile, &out);
}

Result<CleaningProfile> ReadProfileCsv(std::istream* is) {
  std::string line;
  bool saw_header = false;
  size_t line_no = 0;
  struct Row {
    XTupleId xtuple;
    int64_t cost;
    double sc;
  };
  std::vector<Row> rows;
  std::unordered_set<XTupleId> seen;
  while (std::getline(*is, line)) {
    ++line_no;
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    if (!saw_header) {
      if (stripped != kHeader) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": expected header '" + kHeader + "'");
      }
      saw_header = true;
      continue;
    }
    std::vector<std::string> fields = SplitString(stripped, ',');
    if (fields.size() != 3) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": expected 3 fields");
    }
    Result<int64_t> xtuple = ParseInt(fields[0]);
    Result<int64_t> cost = ParseInt(fields[1]);
    Result<double> sc = ParseDouble(fields[2]);
    for (const Status& s : {xtuple.status(), cost.status(), sc.status()}) {
      if (!s.ok()) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": " + s.message());
      }
    }
    if (*xtuple < 0) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": negative x-tuple id");
    }
    if (*xtuple > std::numeric_limits<XTupleId>::max()) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) + ": x-tuple id " +
          std::to_string(*xtuple) + " past the largest x-tuple id " +
          std::to_string(std::numeric_limits<XTupleId>::max()));
    }
    const XTupleId id = static_cast<XTupleId>(*xtuple);
    if (!seen.insert(id).second) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": duplicate x-tuple " +
                                     std::to_string(id));
    }
    rows.push_back(Row{id, *cost, *sc});
  }
  if (!saw_header) return Status::InvalidArgument("empty CSV: no header");
  // The rows must cover ids 0..n-1, n being the rows read: sort them
  // rather than index a table sized by the largest id, which the file
  // controls.
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.xtuple < b.xtuple; });
  CleaningProfile profile;
  for (size_t l = 0; l < rows.size(); ++l) {
    // Distinct ascending ids: the first one past its index marks a gap.
    if (static_cast<size_t>(rows[l].xtuple) != l) {
      return Status::InvalidArgument("missing row for x-tuple " +
                                     std::to_string(l));
    }
    profile.costs.push_back(rows[l].cost);
    profile.sc_probs.push_back(rows[l].sc);
  }
  UCLEAN_RETURN_IF_ERROR(profile.Validate(profile.costs.size()));
  return profile;
}

Result<CleaningProfile> ReadProfileCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  return ReadProfileCsv(&in);
}

}  // namespace uclean
