#include "model/database_overlay.h"

#include <utility>

#include "common/check.h"

namespace uclean {

Result<DatabaseOverlay::CleanOutcomeDelta> DatabaseOverlay::ApplyCleanOutcome(
    XTupleId xtuple, TupleId resolved_id) {
  if (base_ == nullptr) {
    return Status::FailedPrecondition("overlay has no base database");
  }
  if (xtuple < 0 || static_cast<size_t>(xtuple) >= base_->num_xtuples()) {
    return Status::OutOfRange("x-tuple id " + std::to_string(xtuple) +
                              " does not exist");
  }
  const bool resolved_null = resolved_id < 0;

  // Locate the surviving alternative among the x-tuple's live members, as
  // this overlay sees them (a previously collapsed x-tuple has a single
  // certain member, so re-cleaning is a no-op or a NotFound).
  const std::vector<int32_t>& members = xtuple_members(xtuple);
  int32_t resolved_rank = -1;
  for (int32_t idx : members) {
    const Tuple& t = tuple(static_cast<size_t>(idx));
    if (resolved_null ? t.is_null : (!t.is_null && t.id == resolved_id)) {
      resolved_rank = idx;
      break;
    }
  }
  if (resolved_rank < 0) {
    return Status::NotFound(
        resolved_null
            ? "x-tuple " + std::to_string(xtuple) +
                  " has no null alternative (its null outcome has "
                  "probability zero)"
            : "tuple id " + std::to_string(resolved_id) +
                  " is not a live alternative of x-tuple " +
                  std::to_string(xtuple));
  }

  CleanOutcomeDelta delta;
  delta.resolved_rank = static_cast<size_t>(resolved_rank);
  delta.resolved_null = resolved_null;

  const bool already_certain =
      members.size() == 1 &&
      tuple(static_cast<size_t>(resolved_rank)).prob == 1.0;
  if (already_certain) {
    delta.first_changed_rank = num_tuples();  // nothing changed
    return delta;
  }

  // Copy what we need out of `members` before touching the override maps
  // (the reference may alias a map entry).
  delta.first_changed_rank = static_cast<size_t>(members.front());
  const std::vector<int32_t> old_members = members;

  if (slots_.empty()) slots_.assign(num_tuples(), kBase);
  for (int32_t idx : old_members) {
    if (idx == resolved_rank) continue;
    slots_[idx] = kDead;
    ++num_tombstones_;
  }
  Tuple resolved = tuple(static_cast<size_t>(resolved_rank));
  resolved.prob = 1.0;
  patches_[static_cast<size_t>(resolved_rank)] = std::move(resolved);
  slots_[resolved_rank] = kPatched;
  member_overrides_[xtuple] = {resolved_rank};
  mass_overrides_[xtuple] = resolved_null ? 0.0 : 1.0;
  outcomes_.emplace_back(xtuple, resolved_null ? TupleId{-1} : resolved_id);
  if (delta.first_changed_rank < divergence_) {
    divergence_ = delta.first_changed_rank;
  }
  return delta;
}

ProbabilisticDatabase DatabaseOverlay::MaterializeCleaned() const {
  UCLEAN_CHECK(base_ != nullptr);
  return CompactInto(*base_);
}

ProbabilisticDatabase DatabaseOverlay::MaterializeCleaned(
    ProbabilisticDatabase&& base) const {
  UCLEAN_CHECK(&base == base_);
  return CompactInto(std::move(base));
}

ProbabilisticDatabase DatabaseOverlay::CompactInto(
    ProbabilisticDatabase db) const {
  // Survivors keep their relative order (a collapse never moves a rank),
  // so one forward sweep compacts in place: slot `next` is always at or
  // below the slot it is filled from.
  const size_t n = db.tuples_.size();
  std::vector<int32_t> old_to_new(n, -1);
  size_t next = 0;
  size_t num_real = 0;
  for (size_t i = 0; i < n; ++i) {
    if (is_tombstone(i)) continue;
    old_to_new[i] = static_cast<int32_t>(next);
    if (!slots_.empty() && slots_[i] == kPatched) {
      db.tuples_[next] = patches_.find(i)->second;
    } else if (next != i) {
      db.tuples_[next] = std::move(db.tuples_[i]);
    }
    if (!db.tuples_[next].is_null) ++num_real;
    ++next;
  }
  db.tuples_.resize(next);
  for (const auto& [xtuple, members] : member_overrides_) {
    db.members_[xtuple] = members;
  }
  for (const auto& [xtuple, mass] : mass_overrides_) {
    db.real_mass_[xtuple] = mass;
  }
  for (std::vector<int32_t>& members : db.members_) {
    for (int32_t& idx : members) {
      idx = old_to_new[idx];
      UCLEAN_DCHECK(idx >= 0);  // live members are never tombstoned
    }
  }
  db.num_real_ = num_real;
  return db;
}

}  // namespace uclean
