#include "model/csv_io.h"

#include <fstream>
#include <ostream>
#include <unordered_map>

#include "common/strings.h"

namespace uclean {

namespace {
constexpr char kHeader[] = "xtuple,tuple_id,score,prob,label";
}  // namespace

Status WriteDatabaseCsv(const ProbabilisticDatabase& db, std::ostream* os) {
  *os << kHeader << "\n";
  // Emit grouped by x-tuple for human readability; rank order within.
  for (size_t l = 0; l < db.num_xtuples(); ++l) {
    for (int32_t idx : db.xtuple_members(static_cast<XTupleId>(l))) {
      const Tuple& t = db.tuple(static_cast<size_t>(idx));
      if (t.is_null) continue;
      *os << t.xtuple << ',' << t.id << ',' << FormatDouble(t.score) << ','
          << FormatDouble(t.prob) << ',' << t.label << "\n";
    }
  }
  if (!*os) return Status::IOError("write failed");
  return Status::OK();
}

Status WriteDatabaseCsvFile(const ProbabilisticDatabase& db,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  return WriteDatabaseCsv(db, &out);
}

Result<ProbabilisticDatabase> ReadDatabaseCsv(std::istream* is) {
  // x-tuple keys in the file may be sparse/unordered; remap densely in
  // order of first appearance.
  std::unordered_map<int64_t, XTupleId> xtuple_remap;
  xtuple_remap.reserve(1024);  // skips the small tables' rehashes
  DatabaseBuilder builder;
  const Status read =
      ReadCsvRows(is, kHeader, [&](std::string_view line) -> Status {
        std::string_view fields[5];
        const size_t count = SplitFields(line, ',', fields, 5);
        if (count != 5) {
          return Status::InvalidArgument("expected 5 fields, got " +
                                         std::to_string(count));
        }
        const Result<int64_t> xkey = ParseInt(fields[0]);
        UCLEAN_RETURN_IF_ERROR(xkey.status());
        const Result<int64_t> id = ParseInt(fields[1]);
        UCLEAN_RETURN_IF_ERROR(id.status());
        const Result<double> score = ParseDouble(fields[2]);
        UCLEAN_RETURN_IF_ERROR(score.status());
        const Result<double> prob = ParseDouble(fields[3]);
        UCLEAN_RETURN_IF_ERROR(prob.status());
        auto [it, inserted] = xtuple_remap.try_emplace(*xkey, XTupleId{0});
        if (inserted) it->second = builder.AddXTuple();
        return builder.AddAlternative(it->second, *id, *score, *prob,
                                      std::string(fields[4]));
      });
  UCLEAN_RETURN_IF_ERROR(read);
  return std::move(builder).Finish();
}

Result<ProbabilisticDatabase> ReadDatabaseCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  return ReadDatabaseCsv(&in);
}

}  // namespace uclean
