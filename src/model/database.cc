#include "model/database.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <unordered_set>

#include "common/check.h"

namespace uclean {

double ProbabilisticDatabase::NumPossibleWorlds() const {
  double worlds = 1.0;
  for (const auto& members : members_) {
    worlds *= static_cast<double>(members.size());
  }
  return worlds;
}

Result<size_t> ProbabilisticDatabase::RankIndexOfTupleId(TupleId id) const {
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (tuples_[i].id == id) return i;
  }
  return Status::NotFound("no tuple with id " + std::to_string(id));
}

std::string ProbabilisticDatabase::DebugString(size_t max_rows) const {
  std::ostringstream os;
  os << "ProbabilisticDatabase: " << num_xtuples() << " x-tuples, "
     << num_real_tuples() << " real tuples (" << num_tuples()
     << " with nulls)\n";
  os << "rank  id        xtuple  score        prob     label\n";
  size_t rows = std::min(max_rows, tuples_.size());
  for (size_t i = 0; i < rows; ++i) {
    const Tuple& t = tuples_[i];
    os << i + 1 << "\t" << t.id << "\t" << t.xtuple << "\t" << t.score << "\t"
       << t.prob << "\t" << (t.is_null ? "<null>" : t.label) << "\n";
  }
  if (rows < tuples_.size()) {
    os << "... (" << tuples_.size() - rows << " more)\n";
  }
  return os.str();
}

XTupleId DatabaseBuilder::AddXTuple(std::string label) {
  xtuple_labels_.push_back(std::move(label));
  pending_.emplace_back();
  return static_cast<XTupleId>(xtuple_labels_.size() - 1);
}

Status DatabaseBuilder::AddAlternative(XTupleId xtuple, TupleId id,
                                       double score, double prob,
                                       std::string label) {
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
  t.is_null = false;
  t.label = std::move(label);
  pending_[xtuple].push_back(std::move(t));
  return Status::OK();
}

namespace {

/// RanksAbove's order on real tuples' scores as an ascending integer:
/// higher scores get smaller keys, and -0.0 keys as +0.0, which
/// RanksAbove treats as equal.
uint64_t DescendingScoreKey(double score) {
  if (score == 0.0) score = 0.0;
  uint64_t bits = 0;
  std::memcpy(&bits, &score, sizeof bits);
  // The IEEE bits as an ascending unsigned key, then reversed.
  const uint64_t ascending =
      (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
  return ~ascending;
}

}  // namespace

Status DatabaseBuilder::FirstError() const {
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
  }
  return Status::OK();
}

Result<ProbabilisticDatabase> DatabaseBuilder::Finish() && {
  // One pass sums each x-tuple's mass in insertion order and collects
  // the ids; only when an id repeats or a mass exceeds 1 does FirstError
  // walk the builder again for the error its order reports first.
  std::vector<double> mass(pending_.size(), 0.0);
  std::vector<TupleId> ids;
  size_t num_null = 0;
  bool over_full = false;
  for (size_t l = 0; l < pending_.size(); ++l) {
    for (const Tuple& t : pending_[l]) {
      mass[l] += t.prob;
      ids.push_back(t.id);
    }
    over_full |= mass[l] > 1.0 + kMassEpsilon;
    num_null += mass[l] < 1.0 - kMassEpsilon;
  }
  std::sort(ids.begin(), ids.end());
  if (over_full || std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return FirstError();
  }
  const size_t num_real = ids.size();
  std::vector<TupleId>().swap(ids);

  ProbabilisticDatabase db;
  db.num_real_ = num_real;
  db.tuples_.reserve(num_real + num_null);
  for (size_t l = 0; l < pending_.size(); ++l) {
    for (Tuple& t : pending_[l]) db.tuples_.push_back(std::move(t));
    std::vector<Tuple>().swap(pending_[l]);
  }

  // Descending rank order: real tuples by (score desc, id asc); null tuples
  // after all real tuples, by ascending x-tuple id. This realizes the
  // paper's unique-rank requirement with its Section VI tie-breaking rule.
  // The real tuples sort as integer keys, then move once each, following
  // the permutation's cycles in place.
  struct RankKey {
    uint64_t score;
    size_t index;
  };
  std::vector<RankKey> keys(num_real);
  for (size_t i = 0; i < num_real; ++i) {
    keys[i] = {DescendingScoreKey(db.tuples_[i].score), i};
  }
  std::sort(keys.begin(), keys.end(),
            [&db](const RankKey& a, const RankKey& b) {
              if (a.score != b.score) return a.score < b.score;
              return db.tuples_[a.index].id < db.tuples_[b.index].id;
            });
  for (size_t i = 0; i < num_real; ++i) {
    if (keys[i].index == i) continue;  // in place, or placed by a cycle
    Tuple first = std::move(db.tuples_[i]);
    size_t to = i;
    while (keys[to].index != i) {
      const size_t from = keys[to].index;
      db.tuples_[to] = std::move(db.tuples_[from]);
      keys[to].index = to;
      to = from;
    }
    db.tuples_[to] = std::move(first);
    keys[to].index = to;
  }
  std::vector<RankKey>().swap(keys);

  db.real_mass_.resize(pending_.size());
  for (size_t l = 0; l < pending_.size(); ++l) {
    db.real_mass_[l] = std::min(mass[l], 1.0);
    if (mass[l] < 1.0 - kMassEpsilon) {
      // Materialize the conceptual null tuple (Section III-A).
      Tuple null_tuple;
      null_tuple.id = -static_cast<TupleId>(l) - 1;
      null_tuple.xtuple = static_cast<XTupleId>(l);
      null_tuple.score = 0.0;  // ignored: nulls sort below all real tuples
      null_tuple.prob = 1.0 - mass[l];
      null_tuple.is_null = true;
      null_tuple.label = std::move(xtuple_labels_[l]);
      db.tuples_.push_back(std::move(null_tuple));
    }
  }

  db.members_.assign(pending_.size(), {});
  for (size_t i = 0; i < db.tuples_.size(); ++i) {
    db.members_[db.tuples_[i].xtuple].push_back(static_cast<int32_t>(i));
  }
  return db;
}

DatabaseBuilder DatabaseBuilder::FromDatabase(const ProbabilisticDatabase& db) {
  DatabaseBuilder b;
  for (size_t l = 0; l < db.num_xtuples(); ++l) {
    b.AddXTuple();
  }
  for (size_t i = 0; i < db.num_tuples(); ++i) {
    const Tuple& t = db.tuple(i);
    if (t.is_null) continue;
    Status s = b.AddAlternative(t.xtuple, t.id, t.score, t.prob, t.label);
    UCLEAN_CHECK(s.ok());  // db was validated at construction
  }
  return b;
}

Status DatabaseBuilder::ReplaceWithCertain(XTupleId xtuple,
                                           const Tuple* certain) {
  if (xtuple < 0 || static_cast<size_t>(xtuple) >= pending_.size()) {
    return Status::OutOfRange("x-tuple id " + std::to_string(xtuple) +
                              " does not exist");
  }
  pending_[xtuple].clear();
  if (certain == nullptr) return Status::OK();  // entity certainly absent
  if (certain->is_null) return Status::OK();    // same: certain null
  Tuple t = *certain;
  t.xtuple = xtuple;
  t.prob = 1.0;
  pending_[xtuple].push_back(std::move(t));
  return Status::OK();
}

}  // namespace uclean
