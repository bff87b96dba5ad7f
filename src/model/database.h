// ProbabilisticDatabase: rank-sorted x-tuple database, and
// DatabaseBuilder, its validating constructor.
//
// The database is immutable once DatabaseBuilder::Finish returns. A
// cleaning session never mutates it: each session records its pclean
// outcomes (Definition 5) in a copy-on-write DatabaseOverlay
// (model/database_overlay.h) over a shared base, and
// DatabaseOverlay::MaterializeCleaned builds the cleaned database when a
// session ends. Because the ranking function depends only on (is_null,
// score, id) -- never on probabilities -- collapsing an x-tuple leaves
// every surviving tuple's rank index unchanged, so an overlay over this
// database keeps its rank indices for its whole life.
//
// Model recap (Section III-A): a database D holds m x-tuples; each x-tuple
// is a set of mutually exclusive tuples whose existential probabilities sum
// to at most 1. When the sum s_l of x-tuple tau_l is below 1 we materialize
// the paper's conceptual "null" tuple with probability 1 - s_l. Null tuples
// are ranked below every real tuple and, among themselves, by ascending
// x-tuple id, so the ranking function assigns a unique rank to every tuple
// (the paper's standing uniqueness assumption). A possible world then draws
// exactly one alternative per x-tuple, which makes all quality algorithms
// (PW, PWR, TP) agree on one well-defined pw-result space.

#ifndef UCLEAN_MODEL_DATABASE_H_
#define UCLEAN_MODEL_DATABASE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/tuple.h"

namespace uclean {

/// An immutable probabilistic database with tuples pre-sorted in descending
/// rank order (the paper's standing assumption before any algorithm runs).
///
/// Tuples are addressed by *rank index*: tuple(0) is the highest-ranked
/// tuple, tuple(num_tuples()-1) the lowest. Rank indices include the
/// materialized null tuples, which occupy the tail of the order.
class ProbabilisticDatabase {
 public:
  ProbabilisticDatabase() = default;

  /// Total number of tuples, including materialized null tuples.
  size_t num_tuples() const { return tuples_.size(); }

  /// Number of user-supplied (non-null) tuples.
  size_t num_real_tuples() const { return num_real_; }

  /// Number of x-tuples (the paper's m).
  size_t num_xtuples() const { return members_.size(); }

  /// The tuple at the given rank index (0 = highest rank).
  const Tuple& tuple(size_t rank_index) const { return tuples_[rank_index]; }

  /// All tuples in descending rank order.
  const std::vector<Tuple>& tuples() const { return tuples_; }

  /// Rank indices of the alternatives of x-tuple `l`, best rank first.
  /// Includes the null alternative if one was materialized. Never empty.
  const std::vector<int32_t>& xtuple_members(XTupleId l) const {
    return members_[l];
  }

  /// Total existential mass of the real tuples of x-tuple `l` (the paper's
  /// s_l); 1 - mass is the probability of the null alternative.
  double xtuple_real_mass(XTupleId l) const { return real_mass_[l]; }

  /// Number of possible worlds, as a double because it overflows 64 bits
  /// for realistic databases (product over x-tuples of alternative counts).
  double NumPossibleWorlds() const;

  /// Rank index of the tuple with the given user id, or NotFound.
  Result<size_t> RankIndexOfTupleId(TupleId id) const;

  /// Human-readable table of the first `max_rows` tuples in rank order.
  std::string DebugString(size_t max_rows = 32) const;

  /// Always false: every slot of a database is live. The scan and TP
  /// templates read slots through this one interface for a database and
  /// for a DatabaseOverlay, whose cleaned-away siblings are dead.
  bool is_tombstone(size_t /*rank_index*/) const { return false; }

 private:
  friend class DatabaseBuilder;
  // Builds a session's cleaned database straight into this
  // representation (DatabaseOverlay::MaterializeCleaned).
  friend class DatabaseOverlay;
  // The snapshot store (store/snapshot.h) persists and reconstitutes the
  // exact private representation, so a reloaded database is bitwise the
  // saved one without re-sorting through the builder; its reader checks
  // the builder's invariants instead.
  friend class SnapshotAccess;

  /// The rank order Finish sorts into: real tuples by score descending,
  /// then id ascending; null tuples after every real tuple, by ascending
  /// x-tuple.
  static bool RanksAbove(const Tuple& a, const Tuple& b) {
    if (a.is_null != b.is_null) return b.is_null;
    if (a.is_null) return a.xtuple < b.xtuple;
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  }

  std::vector<Tuple> tuples_;                 // descending rank order
  std::vector<std::vector<int32_t>> members_; // per-x-tuple rank indices
  std::vector<double> real_mass_;             // per-x-tuple s_l
  size_t num_real_ = 0;
};

/// Accumulates tuples, validates the model invariants and produces an
/// immutable ProbabilisticDatabase.
///
/// Usage:
///
///     DatabaseBuilder b;
///     XTupleId s1 = b.AddXTuple("S1");
///     b.AddAlternative(s1, /*id=*/0, /*score=*/21.0, /*prob=*/0.6);
///     b.AddAlternative(s1, /*id=*/1, /*score=*/32.0, /*prob=*/0.4);
///     Result<ProbabilisticDatabase> db = std::move(b).Finish();
///
/// Finish() rejects: non-positive or >1 probabilities, per-x-tuple mass
/// above 1 (beyond rounding slack), duplicate tuple ids, and negative ids
/// (reserved for null tuples). An x-tuple with no alternatives is legal and
/// becomes a certain null (used to represent entities cleaned to "absent").
class DatabaseBuilder {
 public:
  DatabaseBuilder() = default;

  /// Registers a new x-tuple and returns its id. `label` is carried into
  /// the null tuple's label and reports.
  XTupleId AddXTuple(std::string label = "");

  /// Adds one alternative to an existing x-tuple.
  Status AddAlternative(XTupleId xtuple, TupleId id, double score, double prob,
                        std::string label = "");

  /// Number of x-tuples added so far.
  size_t num_xtuples() const { return xtuple_labels_.size(); }

  /// Validates and builds the database. Consumes the builder.
  Result<ProbabilisticDatabase> Finish() &&;

  /// Builds a new builder pre-loaded with the contents of `db` (real tuples
  /// only; null completion is re-derived by Finish).
  static DatabaseBuilder FromDatabase(const ProbabilisticDatabase& db);

  /// Drops every alternative of `xtuple` and replaces it with the single
  /// certain tuple `certain` (prob forced to 1), or with nothing if
  /// `certain` is nullptr (entity known absent -> certain null). Mirrors a
  /// successful pclean (Definition 5).
  Status ReplaceWithCertain(XTupleId xtuple, const Tuple* certain);

 private:
  /// Mass slack tolerated before an x-tuple is declared over-full, and
  /// below which a residual is not materialized as a null tuple.
  static constexpr double kMassEpsilon = 1e-9;

  /// The error Finish reports: walking x-tuples and their tuples in
  /// insertion order, the first tuple whose id was seen before, or the
  /// first x-tuple whose mass exceeds 1 + kMassEpsilon. OK if neither.
  Status FirstError() const;

  std::vector<std::string> xtuple_labels_;
  std::vector<std::vector<Tuple>> pending_;  // per-x-tuple alternatives
};

}  // namespace uclean

#endif  // UCLEAN_MODEL_DATABASE_H_
