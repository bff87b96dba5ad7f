// Differential mutation test of the CSV database reader, the profile
// reader and ParseDouble against the readers they replaced, kept below as
// the oracle: a std::getline loop, SplitString into std::string fields,
// strtod on a copy of every number, and a DatabaseBuilder::Finish that
// checks ids with a hash set and std::sorts whole tuples.
//
// Seeded valid files are mutated byte- and field-wise (digit flips, '+',
// hex, subnormals, overflow, inf/nan, inner whitespace, CR, NUL, dropped
// or extra commas, comments, blank lines, header variants, truncation,
// lines longer than the reader's 64 KiB chunk) under a fixed iteration
// budget. For every input both sides must accept or reject alike, with
// the same status code and message, and an accepted database or profile
// must be bitwise the oracle's.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "clean/profile_io.h"
#include "common/strings.h"
#include "model/csv_io.h"
#include "model/database.h"

namespace uclean {
namespace {

// ------------------------------------------------------------- oracle

namespace oracle {

Result<double> ParseDouble(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty()) {
    return Status::InvalidArgument("empty string is not a double");
  }
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::InvalidArgument("not a double: '" + buf + "'");
  }
  return value;
}

/// A database as the former DatabaseBuilder::Finish laid it out.
struct Database {
  std::vector<Tuple> tuples;
  std::vector<std::vector<int32_t>> members;
  std::vector<double> real_mass;
  size_t num_real = 0;
};

class Builder {
 public:
  XTupleId AddXTuple() {
    pending_.emplace_back();
    return static_cast<XTupleId>(pending_.size() - 1);
  }

  Status AddAlternative(XTupleId xtuple, TupleId id, double score,
                        double prob, std::string label) {
    if (xtuple < 0 || static_cast<size_t>(xtuple) >= pending_.size()) {
      return Status::OutOfRange("x-tuple id " + std::to_string(xtuple) +
                                " does not exist");
    }
    if (id < 0) {
      return Status::InvalidArgument(
          "negative tuple ids are reserved for null tuples (got " +
          std::to_string(id) + ")");
    }
    if (!(prob > 0.0) || prob > 1.0 + kMassEpsilon) {
      return Status::InvalidArgument("existential probability of tuple " +
                                     std::to_string(id) + " must be in (0,1]");
    }
    if (!std::isfinite(score)) {
      return Status::InvalidArgument("score of tuple " + std::to_string(id) +
                                     " must be finite");
    }
    Tuple t;
    t.id = id;
    t.xtuple = xtuple;
    t.score = score;
    t.prob = std::min(prob, 1.0);
    t.label = std::move(label);
    pending_[xtuple].push_back(std::move(t));
    return Status::OK();
  }

  Result<Database> Finish() && {
    Database db;
    std::unordered_set<TupleId> seen_ids;
    for (size_t l = 0; l < pending_.size(); ++l) {
      double mass = 0.0;
      for (const Tuple& t : pending_[l]) {
        mass += t.prob;
        if (!seen_ids.insert(t.id).second) {
          return Status::InvalidArgument("duplicate tuple id " +
                                         std::to_string(t.id));
        }
      }
      if (mass > 1.0 + kMassEpsilon) {
        return Status::InvalidArgument(
            "existential mass of x-tuple " + std::to_string(l) + " is " +
            std::to_string(mass) + " > 1");
      }
      db.num_real += pending_[l].size();
    }
    db.real_mass.resize(pending_.size(), 0.0);
    for (size_t l = 0; l < pending_.size(); ++l) {
      double mass = 0.0;
      for (Tuple& t : pending_[l]) {
        mass += t.prob;
        db.tuples.push_back(std::move(t));
      }
      db.real_mass[l] = std::min(mass, 1.0);
      if (mass < 1.0 - kMassEpsilon) {
        Tuple null_tuple;
        null_tuple.id = -static_cast<TupleId>(l) - 1;
        null_tuple.xtuple = static_cast<XTupleId>(l);
        null_tuple.score = 0.0;
        null_tuple.prob = 1.0 - mass;
        null_tuple.is_null = true;
        db.tuples.push_back(std::move(null_tuple));
      }
    }
    std::sort(db.tuples.begin(), db.tuples.end(),
              [](const Tuple& a, const Tuple& b) {
                if (a.is_null != b.is_null) return b.is_null;
                if (a.is_null) return a.xtuple < b.xtuple;
                if (a.score != b.score) return a.score > b.score;
                return a.id < b.id;
              });
    db.members.assign(pending_.size(), {});
    for (size_t i = 0; i < db.tuples.size(); ++i) {
      db.members[db.tuples[i].xtuple].push_back(static_cast<int32_t>(i));
    }
    return db;
  }

 private:
  static constexpr double kMassEpsilon = 1e-9;
  std::vector<std::vector<Tuple>> pending_;
};

Result<Database> ReadDatabaseCsv(std::istream* is) {
  const char kHeader[] = "xtuple,tuple_id,score,prob,label";
  std::string line;
  bool saw_header = false;
  std::map<int64_t, XTupleId> xtuple_remap;
  Builder builder;
  size_t line_no = 0;
  while (std::getline(*is, line)) {
    ++line_no;
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    if (!saw_header) {
      if (stripped != kHeader) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) +
            ": expected header '" + kHeader + "'");
      }
      saw_header = true;
      continue;
    }
    std::vector<std::string> fields = SplitString(stripped, ',');
    if (fields.size() != 5) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": expected 5 fields, got " +
                                     std::to_string(fields.size()));
    }
    Result<int64_t> xkey = ParseInt(fields[0]);
    Result<int64_t> id = ParseInt(fields[1]);
    Result<double> score = ParseDouble(fields[2]);
    Result<double> prob = ParseDouble(fields[3]);
    for (const Status& s :
         {xkey.status(), id.status(), score.status(), prob.status()}) {
      if (!s.ok()) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": " + s.message());
      }
    }
    auto [it, inserted] = xtuple_remap.try_emplace(*xkey, XTupleId{0});
    if (inserted) it->second = builder.AddXTuple();
    Status s =
        builder.AddAlternative(it->second, *id, *score, *prob, fields[4]);
    if (!s.ok()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) + ": " +
                                     s.message());
    }
  }
  if (!saw_header) return Status::InvalidArgument("empty CSV: no header");
  return std::move(builder).Finish();
}

Result<CleaningProfile> ReadProfileCsv(std::istream* is) {
  const char kHeader[] = "xtuple,cost,sc_prob";
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
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.xtuple < b.xtuple; });
  CleaningProfile profile;
  for (size_t l = 0; l < rows.size(); ++l) {
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

}  // namespace oracle

// ---------------------------------------------------------- comparison

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// Printable form of a mutated input for failure messages.
std::string Show(const std::string& text) {
  std::string out;
  for (char c : text.substr(0, 400)) {
    if (c == '\n') {
      out += "\\n\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\0') {
      out += "\\0";
    } else {
      out += c;
    }
  }
  if (text.size() > 400) out += "... (" + std::to_string(text.size()) + " B)";
  return out;
}

template <typename T, typename U>
::testing::AssertionResult SameStatus(const Result<T>& got,
                                      const Result<U>& want) {
  if (got.ok() != want.ok() ||
      got.status().code() != want.status().code() ||
      got.status().message() != want.status().message()) {
    return ::testing::AssertionFailure()
           << "got " << got.status() << ", oracle " << want.status();
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameDatabase(
    const Result<ProbabilisticDatabase>& got,
    const Result<oracle::Database>& want) {
  ::testing::AssertionResult status = SameStatus(got, want);
  if (!status || !got.ok()) return status;
  const ProbabilisticDatabase& db = *got;
  if (db.num_tuples() != want->tuples.size() ||
      db.num_real_tuples() != want->num_real ||
      db.num_xtuples() != want->members.size()) {
    return ::testing::AssertionFailure()
           << "shape " << db.num_tuples() << "/" << db.num_real_tuples()
           << "/" << db.num_xtuples() << ", oracle " << want->tuples.size()
           << "/" << want->num_real << "/" << want->members.size();
  }
  for (size_t i = 0; i < db.num_tuples(); ++i) {
    const Tuple& a = db.tuple(i);
    const Tuple& b = want->tuples[i];
    if (a.id != b.id || a.xtuple != b.xtuple ||
        Bits(a.score) != Bits(b.score) || Bits(a.prob) != Bits(b.prob) ||
        a.is_null != b.is_null || a.label != b.label) {
      return ::testing::AssertionFailure()
             << "tuple " << i << ": id " << a.id << " vs " << b.id;
    }
  }
  for (size_t l = 0; l < db.num_xtuples(); ++l) {
    const XTupleId x = static_cast<XTupleId>(l);
    if (db.xtuple_members(x) != want->members[l] ||
        Bits(db.xtuple_real_mass(x)) != Bits(want->real_mass[l])) {
      return ::testing::AssertionFailure() << "x-tuple " << l;
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameProfile(const Result<CleaningProfile>& got,
                                       const Result<CleaningProfile>& want) {
  ::testing::AssertionResult status = SameStatus(got, want);
  if (!status || !got.ok()) return status;
  if (got->costs != want->costs ||
      got->sc_probs.size() != want->sc_probs.size()) {
    return ::testing::AssertionFailure() << "profile shape";
  }
  for (size_t l = 0; l < got->sc_probs.size(); ++l) {
    if (Bits(got->sc_probs[l]) != Bits(want->sc_probs[l])) {
      return ::testing::AssertionFailure() << "sc_prob " << l;
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameDatabaseFor(const std::string& text) {
  std::istringstream a(text);
  std::istringstream b(text);
  return SameDatabase(ReadDatabaseCsv(&a), oracle::ReadDatabaseCsv(&b));
}

::testing::AssertionResult SameProfileFor(const std::string& text) {
  std::istringstream a(text);
  std::istringstream b(text);
  return SameProfile(ReadProfileCsv(&a), oracle::ReadProfileCsv(&b));
}

::testing::AssertionResult SameDouble(const std::string& token) {
  const Result<double> got = ParseDouble(token);
  const Result<double> want = oracle::ParseDouble(token);
  ::testing::AssertionResult status = SameStatus(got, want);
  if (!status || !got.ok()) return status;
  if (Bits(*got) != Bits(*want)) {
    return ::testing::AssertionFailure()
           << *got << " vs oracle " << *want;
  }
  return ::testing::AssertionSuccess();
}

// ----------------------------------------------------------- mutation

/// Number tokens at and around every place from_chars and strtod part
/// ways, plus malformed ones.
const std::vector<std::string>& EdgeTokens() {
  static const std::vector<std::string> tokens = {
      "0", "-0", "+0", "0.0", "-0.0", "0e5", "00", ".0", "0.", "1", "-1",
      "+0.5", "+1e3", "0x1p-3", "0X1.8P1", "-0x1p-1", "0x10", "0x", "0x.p1",
      "1e-310", "-1e-310", "1e-320", "4.9e-324", "2.4703282292062327e-324",
      "2.2250738585072011e-308", "2.2250738585072012e-308",
      "2.22507385850720125e-308", "2.2250738585072013e-308",
      "2.2250738585072014e-308", "-2.2250738585072012e-308", "1e-400",
      "1e309", "-1e309", "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "1e308", "inf", "-inf", "+inf", "INF",
      "infinity", "-Infinity", "infin", "nan", "-nan", "NaN", "nan(0x1)",
      "nan()", "nan(", "1e", "1e+", "1e-", "e5", ".", "-", "+", "", " ",
      "1.5x", "x1.5", "1 5", "1\t5", "1,5", "1..5", "--1", "+-1", "1e5.5",
      "\v0.5", "\f1", "0.5\v", " 0.25 ", "\t0.75\t", "0.1", "0.5", "1.0",
      "1.0000000001", "1.000000001", "0.9999999999", "12345678901234567890",
      "0.30000000000000004", "3.141592653589793238462643383279",
      "1e23", "8.98846567431158e307", "9007199254740993",
      "0.000000000000000000000000000000000001", std::string("1\0", 2),
      std::string("\0", 1)};
  return tokens;
}

class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  size_t Below(size_t n) {
    return n == 0 ? 0 : static_cast<size_t>(rng_() % n);
  }
  bool Chance(size_t percent) { return Below(100) < percent; }

  /// A double printed one of several ways.
  std::string Number(double v) {
    char buf[64];
    switch (Below(5)) {
      case 0:
        return FormatDouble(v);
      case 1:
        std::snprintf(buf, sizeof buf, "%g", v);
        return buf;
      case 2:
        std::snprintf(buf, sizeof buf, "%.3f", v);
        return buf;
      case 3:
        std::snprintf(buf, sizeof buf, "%.20e", v);
        return buf;
      default:
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    }
  }

  std::string Token() {
    if (Chance(50)) return EdgeTokens()[Below(EdgeTokens().size())];
    uint64_t bits = rng_();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    if (Chance(50)) v = std::ldexp(static_cast<double>(bits >> 11), -53);
    std::string token = Number(v);
    if (Chance(30)) Mutate(&token);
    return token;
  }

  /// A valid database file: `nx` x-tuples with 1-5 alternatives each,
  /// keys sparse or dense, ids unique, scores with ties and signed
  /// zeros, masses at most 1, in x-tuple or shuffled row order.
  std::string DatabaseText(size_t nx) {
    std::vector<std::string> rows;
    const bool sparse = Chance(30);
    int64_t next_id = static_cast<int64_t>(Below(5));
    for (size_t l = 0; l < nx; ++l) {
      const int64_t key =
          sparse ? static_cast<int64_t>(rng_() % 2000001) - 1000000
                 : static_cast<int64_t>(l);
      const size_t alternatives = 1 + Below(5);
      double left = Chance(30) ? 1.0 : 0.2 + 0.8 * Unit();
      for (size_t a = 0; a < alternatives && left > 1e-6; ++a) {
        double prob = a + 1 == alternatives ? left : left * Unit();
        if (!(prob > 0.0)) prob = left;
        left -= prob;
        double score = 0.0;
        switch (Below(4)) {
          case 0:
            score = static_cast<double>(Below(7));  // ties
            break;
          case 1:
            score = Chance(50) ? 0.0 : -0.0;
            break;
          default:
            score = (Unit() - 0.3) * 1e4;
        }
        next_id += 1 + static_cast<int64_t>(Below(3));
        const int64_t id =
            Chance(50) ? next_id : next_id * 7919 % 1000003 + 1000000;
        std::string label;
        for (size_t c = Below(6); c > 0; --c) {
          label += "ab -_xyZ"[Below(8)];
        }
        rows.push_back(std::to_string(key) + "," + std::to_string(id) + "," +
                       Number(score) + "," +
                       (Chance(80) ? FormatDouble(prob) : Number(prob)) + "," +
                       label);
      }
    }
    if (Chance(30)) std::shuffle(rows.begin(), rows.end(), rng_);
    return Assemble("xtuple,tuple_id,score,prob,label", rows);
  }

  /// A valid profile file: rows 0..m-1 in any order.
  std::string ProfileText(size_t m) {
    std::vector<std::string> rows;
    for (size_t l = 0; l < m; ++l) {
      rows.push_back(std::to_string(l) + "," +
                     std::to_string(1 + Below(20)) + "," + Number(Unit()));
    }
    if (Chance(50)) std::shuffle(rows.begin(), rows.end(), rng_);
    return Assemble("xtuple,cost,sc_prob", rows);
  }

  /// Applies one random mutation to `text`.
  void Mutate(std::string* text) {
    std::string& s = *text;
    const size_t at = Below(s.size() + 1);
    switch (Below(17)) {
      case 0: {  // digit flip
        for (size_t tries = 0; tries < 8 && !s.empty(); ++tries) {
          const size_t i = Below(s.size());
          if (s[i] >= '0' && s[i] <= '9') {
            s[i] = static_cast<char>('0' + Below(10));
            break;
          }
        }
        break;
      }
      case 1:
        s.insert(at, 1, '+');
        break;
      case 2:
        ReplaceField(&s, EdgeTokens()[Below(EdgeTokens().size())]);
        break;
      case 3:
        s.insert(at, 1, " \t\v\f"[Below(4)]);
        break;
      case 4:
        if (Chance(50)) {
          s.insert(at, 1, '\r');
        } else {  // CRLF line ends throughout
          std::string crlf;
          for (char c : s) {
            if (c == '\n') crlf += '\r';
            crlf += c;
          }
          s = crlf;
        }
        break;
      case 5:
        s.insert(at, 1, '\0');
        break;
      case 6: {  // drop or add a comma
        const size_t comma = s.find(',', at);
        if (comma != std::string::npos && Chance(50)) {
          s.erase(comma, 1);
        } else {
          s.insert(at, 1, ',');
        }
        break;
      }
      case 7:
        s.insert(LineStart(s, at),
                 Chance(50) ? "# note, with commas\n" : "  \t\n");
        break;
      case 8: {  // header variants
        static const char* const kVariants[] = {
            "xtuple,tuple_id,score,prob", "XTUPLE,TUPLE_ID,SCORE,PROB,LABEL",
            " xtuple,tuple_id,score,prob,label\t",
            "xtuple, tuple_id,score,prob,label", "xtuple,cost,sc_prob ",
            "xtuple,cost", "#xtuple,tuple_id,score,prob,label", ""};
        const size_t end = s.find('\n');
        s.replace(0, end == std::string::npos ? s.size() : end,
                  kVariants[Below(8)]);
        break;
      }
      case 9:
        s.resize(at);  // truncation
        break;
      case 10:
        if (!s.empty() && s.back() == '\n') s.pop_back();
        break;
      case 11: {  // a line longer than a 64 KiB chunk
        const size_t length = (64 << 10) + Below(3 << 16);
        const size_t start = LineStart(s, at);
        switch (Below(4)) {
          case 0:
            s.insert(start, "#" + std::string(length, 'c') + "\n");
            break;
          case 1:
            s.insert(start, std::string(length, ' ') + "\n");
            break;
          case 2:
            s.insert(at, std::string(length, 'L'));
            break;
          default:
            s.insert(at, std::string(length, ' '));
        }
        break;
      }
      case 12: {  // duplicate a line (repeated ids, mass past 1)
        const size_t start = LineStart(s, at);
        const size_t end = s.find('\n', start);
        s.insert(start, s.substr(start, end == std::string::npos
                                            ? std::string::npos
                                            : end - start + 1));
        break;
      }
      case 13: {  // delete a line
        const size_t start = LineStart(s, at);
        const size_t end = s.find('\n', start);
        s.erase(start, end == std::string::npos ? std::string::npos
                                                : end - start + 1);
        break;
      }
      case 14:
        s.insert(at, 1, '\n');
        break;
      case 15:
        if (!s.empty()) s.erase(Below(s.size()), 1 + Below(4));
        break;
      default:
        ReplaceField(&s, Token());
    }
  }

 private:
  double Unit() { return std::ldexp(static_cast<double>(rng_() >> 11), -53); }

  std::string Assemble(const char* header,
                       const std::vector<std::string>& rows) {
    std::string text;
    if (Chance(10)) text += "# generated\n\n";
    text += header;
    text += '\n';
    for (const std::string& row : rows) {
      text += row;
      text += '\n';
      if (Chance(3)) text += Chance(50) ? "# c\n" : "\n";
    }
    return text;
  }

  static size_t LineStart(const std::string& s, size_t at) {
    if (at == 0) return 0;
    const size_t nl = s.rfind('\n', at - 1);
    return nl == std::string::npos ? 0 : nl + 1;
  }

  /// Replaces the field at a random position with `token`.
  void ReplaceField(std::string* s, const std::string& token) {
    if (s->empty()) {
      *s = token;
      return;
    }
    const size_t at = Below(s->size());
    size_t begin = s->find_last_of(",\n", at);
    begin = begin == std::string::npos ? 0 : begin + 1;
    size_t end = s->find_first_of(",\n", at);
    if (end == std::string::npos) end = s->size();
    if (begin > end) begin = end;
    s->replace(begin, end - begin, token);
  }

  std::mt19937_64 rng_;
};

// --------------------------------------------------------------- tests

TEST(CsvDifferential, ParseDoubleAgreesWithStrtod) {
  for (const std::string& token : EdgeTokens()) {
    EXPECT_TRUE(SameDouble(token)) << Show(token);
  }
  Mutator m(11);
  for (int i = 0; i < 60000; ++i) {
    const std::string token = m.Token();
    ASSERT_TRUE(SameDouble(token)) << "iteration " << i << ": " << Show(token);
  }
}

TEST(CsvDifferential, DatabaseReaderAgreesOnMutatedFiles) {
  Mutator m(21);
  for (int i = 0; i < 3000; ++i) {
    // One file in twenty spans several 64 KiB chunks.
    std::string text = m.DatabaseText(i % 20 == 0 ? 700 + m.Below(400)
                                                  : 1 + m.Below(12));
    for (size_t n = i % 4; n > 0; --n) m.Mutate(&text);
    ASSERT_TRUE(SameDatabaseFor(text)) << "iteration " << i << ":\n"
                                       << Show(text);
  }
}

TEST(CsvDifferential, ProfileReaderAgreesOnMutatedFiles) {
  Mutator m(31);
  for (int i = 0; i < 2000; ++i) {
    std::string text =
        m.ProfileText(i % 20 == 0 ? 4000 + m.Below(2000) : 1 + m.Below(12));
    for (size_t n = i % 4; n > 0; --n) m.Mutate(&text);
    ASSERT_TRUE(SameProfileFor(text)) << "iteration " << i << ":\n"
                                      << Show(text);
  }
}

// Inputs the mutator reaches only by chance, each spelled out once.
TEST(CsvDifferential, EdgeFiles) {
  const std::string header = "xtuple,tuple_id,score,prob,label\n";
  const std::string big_label(200 << 10, 'x');
  const std::vector<std::string> files = {
      "", "\n", header, header + "0,1,2.5,0.5,a",
      header + "0,1,2.5,0.5,a\r\n0,2,3,0.5,b\r\n",
      "\r\n# c\n\n" + header + "0,1,2.5,0.5,a\n",
      header + "0,1,2.5,0.5," + big_label + "\n0,2,1,0.25,b",
      header + "0,1,-0,0.5,a\n1,2,0,0.5,b\n2,3,-0.0,1,c\n",
      header + "0,1,1e-310,0.5,a\n",
      header + "0,1,1,2.2250738585072012e-308,a\n",
      header + "0,1,1,+0.5,a\n0,2,0x1p3,0x1p-2,b\n",
      header + "0,1,1,0.5,a\n0,1,2,0.5,b\n",
      header + "0,1,1,0.75,a\n0,2,2,0.5,b\n1,1,1,0.5,c\n",
      header + "0,1,1,0.5\n", header + "0,1,1,0.5,a,b\n",
      header + "0,-1,1,0.5,a\n", header + "0,1,inf,0.5,a\n",
      header + "0,1,nan,0.5,a\n", header + "0,1,1,nan,a\n",
      header + std::string("0,1,1,0.5\0,a\n", 12),
      header + "7,1,1,0.5,a\n-3,2,1,0.5,b\n7,3,1,0.25,c\n",
      header + header};
  for (const std::string& text : files) {
    EXPECT_TRUE(SameDatabaseFor(text)) << Show(text);
  }
  // A file larger than one chunk, with and without a final newline.
  Mutator m(41);
  std::string large = m.DatabaseText(2500);
  ASSERT_GT(large.size(), size_t{64} << 10);
  EXPECT_TRUE(SameDatabaseFor(large));
  large.pop_back();
  EXPECT_TRUE(SameDatabaseFor(large));
  const std::string profile_header = "xtuple,cost,sc_prob\n";
  for (const std::string& text :
       {profile_header + "0,1,0.5", profile_header + "0,1,1e-320\n",
        profile_header + "0,1,0.5\n0,2,0.5\n", profile_header + "1,1,0.5\n",
        profile_header + "-1,1,0.5\n", profile_header + "0,1\n",
        profile_header + "0,1,0.5,\n", profile_header + "0,0,0.5\n",
        profile_header + "0,1,1.5\n", profile_header + "2147483648,1,0.5\n"}) {
    EXPECT_TRUE(SameProfileFor(text)) << Show(text);
  }
}

}  // namespace
}  // namespace uclean
