// DatabaseOverlay: one session's copy-on-write view of a base
// ProbabilisticDatabase.
//
// Every cleaning session -- each SessionPool session and the sole
// session of a CleaningSession -- records its clean outcomes in an
// overlay instead of mutating the (immutable) base:
//
//  * dropped siblings become overlay tombstones (a lazily allocated state
//    byte per rank index);
//  * the resolved alternative's certainty is a patched Tuple (prob = 1)
//    shadowing the base tuple at its rank index (same state byte);
//  * the collapsed x-tuple's member list and real mass are shadowed the
//    same way.
//
// The overlay exposes the exact read interface the PSR scan core, the TP
// delta pass and the probe agent consume (num_tuples / tuple /
// is_tombstone / xtuple_members / xtuple_real_mass), so every templated
// consumer runs the SAME per-tuple arithmetic over an overlay as over a
// plain database -- which is what makes a session's replayed state
// bitwise identical to a from-scratch scan of its cleaned database. Rank
// indices never move (overlays never compact), so the engine's
// checkpoints stay valid for every session above its own first change.
// MaterializeCleaned drops the dead slots in one pass when a session
// ends.
//
// Overlays hold a pointer to the base; the owner (SessionPool,
// CleaningSession) must keep the base alive and unmutated for the
// overlay's lifetime.

#ifndef UCLEAN_MODEL_DATABASE_OVERLAY_H_
#define UCLEAN_MODEL_DATABASE_OVERLAY_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "model/database.h"
#include "model/tuple.h"

namespace uclean {

/// A read view of `base` plus one session's recorded clean outcomes.
class DatabaseOverlay {
 public:
  /// What a successful ApplyCleanOutcome changed; consumed by the
  /// session's state refresh (PsrEngine::ReplaySession / delta TP).
  struct CleanOutcomeDelta {
    /// First rank index whose tuple (existence or probability) changed;
    /// every tuple ranked strictly above is untouched, so rank-probability
    /// state is valid up to (excluding) this position. Equals num_tuples()
    /// when the outcome was already materialized (no-op).
    size_t first_changed_rank = 0;

    /// Rank index of the surviving certain tuple (the resolved alternative,
    /// or the x-tuple's null slot for an "entity absent" outcome).
    size_t resolved_rank = 0;

    /// True when the entity resolved to the null outcome.
    bool resolved_null = false;
  };

  /// An empty overlay over nothing; assign from a real one before use.
  DatabaseOverlay() = default;

  /// A pristine overlay over `base`, which must outlive the overlay and
  /// stay unmutated.
  explicit DatabaseOverlay(const ProbabilisticDatabase* base) : base_(base) {}

  const ProbabilisticDatabase& base() const { return *base_; }

  // ----- the read interface shared with ProbabilisticDatabase -----

  size_t num_tuples() const { return base_->num_tuples(); }
  size_t num_xtuples() const { return base_->num_xtuples(); }

  /// The tuple at `rank_index`: the session's resolved (certain) copy when
  /// one of its cleans patched this slot, the base tuple otherwise.
  const Tuple& tuple(size_t rank_index) const {
    if (!slots_.empty() && slots_[rank_index] == kPatched) {
      return patches_.find(rank_index)->second;
    }
    return base_->tuple(rank_index);
  }

  /// True when the slot is dead in this session's view (a sibling one of
  /// its cleans dropped).
  bool is_tombstone(size_t rank_index) const {
    return !slots_.empty() && slots_[rank_index] == kDead;
  }

  /// Number of dead slots in this session's view.
  size_t num_tombstones() const { return num_tombstones_; }

  const std::vector<int32_t>& xtuple_members(XTupleId l) const {
    const auto it = member_overrides_.find(l);
    return it == member_overrides_.end() ? base_->xtuple_members(l)
                                         : it->second;
  }

  double xtuple_real_mass(XTupleId l) const {
    const auto it = mass_overrides_.find(l);
    return it == mass_overrides_.end() ? base_->xtuple_real_mass(l)
                                       : it->second;
  }

  // ----- session-side mutation -----

  /// Records the collapse of `xtuple` to the certain outcome `resolved_id`
  /// (negative = entity absent), mirroring a successful pclean
  /// (Definition 5): the resolved alternative's probability becomes 1
  /// and every sibling is tombstoned, in this overlay only. A negative
  /// `resolved_id` requires a materialized null alternative. Collapsing
  /// an already-certain x-tuple to its survivor is a no-op (the delta's
  /// first_changed_rank is num_tuples()).
  ///
  /// Fails with FailedPrecondition on an overlay without a base, and with
  /// OutOfRange/NotFound when `xtuple` or `resolved_id` does not name a
  /// live alternative of the x-tuple in this view.
  Result<CleanOutcomeDelta> ApplyCleanOutcome(XTupleId xtuple,
                                              TupleId resolved_id);

  /// Number of recorded (non-no-op) outcomes.
  size_t num_outcomes() const { return outcomes_.size(); }

  /// The recorded outcomes in application order (resolved id, negative for
  /// the null outcome).
  const std::vector<std::pair<XTupleId, TupleId>>& outcomes() const {
    return outcomes_;
  }

  /// Shallowest rank this overlay diverges from the base at (the minimum
  /// first_changed_rank over every recorded outcome); num_tuples() while
  /// pristine. Base-scan state above this rank is valid for the overlay.
  size_t divergence_rank() const {
    return divergence_ < base_->num_tuples() ? divergence_
                                             : base_->num_tuples();
  }

  /// Materializes base + outcomes into a standalone database in one
  /// pass: dead slots are dropped, patched tuples replace their base
  /// slots, and rank indices are renumbered. The base is copied first, so
  /// the overlay and its base stay usable (SessionPool::CloseAndMerge).
  ProbabilisticDatabase MaterializeCleaned() const;

  /// Consuming form for the base's sole owner (CleaningSession::
  /// TakeDatabase): builds the result in `base`'s own storage instead of
  /// a copy. `base` must be this overlay's base, moved in; the overlay
  /// must not be read afterwards.
  ProbabilisticDatabase MaterializeCleaned(ProbabilisticDatabase&& base) const;

 private:
  /// The one-pass compaction behind both MaterializeCleaned forms: turns
  /// `db`, which holds the base's contents, into this view's cleaned
  /// database. Reads only `db` and the overlay's own side tables.
  ProbabilisticDatabase CompactInto(ProbabilisticDatabase db) const;

  const ProbabilisticDatabase* base_ = nullptr;
  // Per-slot state, lazily sized to num_tuples(): the base tuple, a slot
  // one of this session's cleans dropped, or a slot shadowed by its entry
  // in patches_.
  enum SlotState : uint8_t { kBase = 0, kDead = 1, kPatched = 2 };
  std::vector<uint8_t> slots_;
  std::unordered_map<size_t, Tuple> patches_;
  std::unordered_map<XTupleId, std::vector<int32_t>> member_overrides_;
  std::unordered_map<XTupleId, double> mass_overrides_;
  std::vector<std::pair<XTupleId, TupleId>> outcomes_;
  size_t num_tombstones_ = 0;
  size_t divergence_ = static_cast<size_t>(-1);
};

}  // namespace uclean

#endif  // UCLEAN_MODEL_DATABASE_OVERLAY_H_
