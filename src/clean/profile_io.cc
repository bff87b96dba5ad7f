#include "clean/profile_io.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <ostream>
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
  struct Row {
    XTupleId xtuple;
    int64_t cost;
    double sc;
  };
  std::vector<Row> rows;
  std::unordered_set<XTupleId> seen;
  const Status read =
      ReadCsvRows(is, kHeader, [&](std::string_view line) -> Status {
        std::string_view fields[3];
        if (SplitFields(line, ',', fields, 3) != 3) {
          return Status::InvalidArgument("expected 3 fields");
        }
        const Result<int64_t> xtuple = ParseInt(fields[0]);
        UCLEAN_RETURN_IF_ERROR(xtuple.status());
        const Result<int64_t> cost = ParseInt(fields[1]);
        UCLEAN_RETURN_IF_ERROR(cost.status());
        const Result<double> sc = ParseDouble(fields[2]);
        UCLEAN_RETURN_IF_ERROR(sc.status());
        if (*xtuple < 0) return Status::InvalidArgument("negative x-tuple id");
        if (*xtuple > std::numeric_limits<XTupleId>::max()) {
          return Status::InvalidArgument(
              "x-tuple id " + std::to_string(*xtuple) +
              " past the largest x-tuple id " +
              std::to_string(std::numeric_limits<XTupleId>::max()));
        }
        const XTupleId id = static_cast<XTupleId>(*xtuple);
        if (!seen.insert(id).second) {
          return Status::InvalidArgument("duplicate x-tuple " +
                                         std::to_string(id));
        }
        rows.push_back(Row{id, *cost, *sc});
        return Status::OK();
      });
  UCLEAN_RETURN_IF_ERROR(read);
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
