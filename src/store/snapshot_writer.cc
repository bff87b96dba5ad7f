// Writer half of the snapshot store: section payload encoders, the
// container builder, and WriteSnapshot. See store/snapshot.h for the
// format contract; the byte-level encodings here are mirrored by
// snapshot_reader.cc and must only ever change together with a section
// version bump.

#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "clean/agent.h"
#include "clean/fault.h"
#include "clean/session_pool.h"
#include "common/status.h"
#include "model/database.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "rank/psr_engine.h"
#include "store/binstream.h"
#include "store/crc32.h"
#include "store/snapshot.h"

namespace uclean {
namespace store {

const char* SectionName(uint32_t id) {
  switch (id) {
    case kSectionMeta:
      return "meta";
    case kSectionDatabase:
      return "database";
    case kSectionEngine:
      return "engine";
    case kSectionSessions:
      return "sessions";
    case kSectionCampaign:
      return "campaign";
    default:
      return "unknown";
  }
}

void AppendSectionEntry(BinWriter* w, const SectionEntry& entry) {
  w->PutU32(entry.id);
  w->PutU32(entry.version);
  w->PutU64(entry.offset);
  w->PutU64(entry.size);
  w->PutU32(entry.crc);
}

Status ParseSectionEntry(BinReader* r, SectionEntry* entry) {
  UCLEAN_RETURN_IF_ERROR(r->GetU32(&entry->id));
  UCLEAN_RETURN_IF_ERROR(r->GetU32(&entry->version));
  UCLEAN_RETURN_IF_ERROR(r->GetU64(&entry->offset));
  UCLEAN_RETURN_IF_ERROR(r->GetU64(&entry->size));
  UCLEAN_RETURN_IF_ERROR(r->GetU32(&entry->crc));
  return Status::OK();
}

void SnapshotFileBuilder::AddSection(uint32_t id, uint32_t version,
                                     std::string payload) {
  sections_.push_back({id, version, std::move(payload)});
}

std::string SnapshotFileBuilder::Finish() const {
  // Payloads sit back to back after the header; the table trails them so
  // the writer streams in one pass.
  uint64_t offset = kSnapshotHeaderSize;
  std::vector<SectionEntry> entries;
  entries.reserve(sections_.size());
  for (const PendingSection& section : sections_) {
    SectionEntry entry;
    entry.id = section.id;
    entry.version = section.version;
    entry.offset = offset;
    entry.size = section.payload.size();
    entry.crc = Crc32(section.payload.data(), section.payload.size());
    entries.push_back(entry);
    offset += entry.size;
  }
  const uint64_t table_offset = offset;

  BinWriter file;
  file.PutU8(static_cast<uint8_t>(kSnapshotMagic[0]));
  for (size_t i = 1; i < sizeof(kSnapshotMagic); ++i) {
    file.PutU8(static_cast<uint8_t>(kSnapshotMagic[i]));
  }
  file.PutU32(format_version_);
  file.PutU32(feature_flags_);
  file.PutU32(static_cast<uint32_t>(sections_.size()));
  file.PutU64(table_offset);
  file.PutU32(Crc32(file.bytes().data(), file.bytes().size()));

  std::string bytes = file.Take();
  for (const PendingSection& section : sections_) {
    bytes.append(section.payload);
  }

  BinWriter table;
  for (const SectionEntry& entry : entries) {
    AppendSectionEntry(&table, entry);
  }
  table.PutU32(Crc32(table.bytes().data(), table.bytes().size()));
  bytes.append(table.bytes());
  return bytes;
}

namespace {

void EncodePsrOutput(const PsrOutput& out, BinWriter* w) {
  w->PutVarint(out.k);
  w->PutF64Array(out.topk_prob);
  w->PutVarint(out.num_nonzero);
  w->PutVarint(out.scan_end);
  w->PutF64Array(out.best_rank_prob);
  w->PutVarint(out.best_rank_index.size());
  for (int32_t index : out.best_rank_index) w->PutZigzag(index);
  w->PutF64Array(out.rank_prob);
  w->PutBool(out.has_rank_probabilities);
}

void EncodeTpOutput(const TpOutput& tp, BinWriter* w) {
  w->PutF64(tp.quality);
  w->PutF64Array(tp.omega);
  w->PutVarint(tp.scan_end);
  w->PutF64Array(tp.xtuple_gain);
  w->PutF64Array(tp.xtuple_topk_mass);
}

void EncodeProbeRecord(const ProbeRecord& record, BinWriter* w) {
  w->PutZigzag(record.xtuple);
  w->PutZigzag(record.attempts);
  w->PutZigzag(record.spent);
  w->PutBool(record.success);
  w->PutZigzag(record.resolved_id);
  w->PutZigzag(record.failures);
  w->PutZigzag(record.retries);
  w->PutVarint(static_cast<uint64_t>(record.last_error));
}

void EncodeFaultStats(const FaultStats& stats, BinWriter* w) {
  w->PutZigzag(stats.transient);
  w->PutZigzag(stats.timeouts);
  w->PutZigzag(stats.source_down);
  w->PutZigzag(stats.retries);
  w->PutZigzag(stats.failed_probes);
  w->PutZigzag(stats.breaker_skips);
  w->PutZigzag(stats.deadline_skips);
  w->PutZigzag(stats.budget_unspent);
}

void EncodeInjectorState(const FaultInjectorState& state, BinWriter* w) {
  w->PutString(state.rng_state);
  w->PutZigzag(state.now_us);
  w->PutBool(state.ever_opened);
  w->PutVarint(state.breakers.size());
  for (const FaultInjectorState::BreakerEntry& breaker : state.breakers) {
    w->PutZigzag(breaker.source);
    w->PutU8(breaker.state);
    w->PutZigzag(breaker.consecutive_failures);
    w->PutZigzag(breaker.open_until_us);
  }
  w->PutVarint(state.down.size());
  for (const FaultInjectorState::DownEntry& entry : state.down) {
    w->PutZigzag(entry.source);
    w->PutBool(entry.down);
  }
}

}  // namespace

Status WriteSnapshot(const SessionPool& pool, const std::string& path,
                     const CampaignSnapshot* campaign) {
  std::string bytes;
  UCLEAN_RETURN_IF_ERROR(SnapshotAccess::Serialize(pool, campaign, &bytes));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    return Status::IOError("short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace store

// ---------------------------------------------------------------------------
// SnapshotAccess: writer half.
// ---------------------------------------------------------------------------

void SnapshotAccess::EncodeMeta(const SessionPool& pool,
                                const store::CampaignSnapshot* campaign,
                                store::BinWriter* w) {
  (void)campaign;
  w->PutString("uclean");
  // The RESOLVED kernel the pool's scans actually ran on (never "auto"):
  // the satellite provenance bench_* JSON and `snapshot inspect` report.
  w->PutString(pool.engine_.core_.kernel->name);
  w->PutVarint(pool.exec().num_threads);
  w->PutVarint(pool.base().num_xtuples());
  w->PutVarint(pool.base().num_tuples());
  w->PutVarint(pool.num_open());
  w->PutVarintArray(pool.ladder().ks);
}

void SnapshotAccess::EncodeDatabase(const ProbabilisticDatabase& db,
                                    store::BinWriter* w) {
  w->PutVarint(db.tuples_.size());
  for (const Tuple& t : db.tuples_) {
    w->PutZigzag(t.id);
    w->PutVarint(static_cast<uint64_t>(t.xtuple));
    w->PutF64(t.score);
    w->PutF64(t.prob);
    w->PutBool(t.is_null);
    w->PutString(t.label);
  }
  w->PutVarint(db.members_.size());
  for (size_t l = 0; l < db.members_.size(); ++l) {
    const std::vector<int32_t>& members = db.members_[l];
    w->PutVarint(members.size());
    for (int32_t rank : members) w->PutVarint(static_cast<uint64_t>(rank));
    w->PutF64(db.real_mass_[l]);
  }
  // Format v1's tombstone field: an empty bitmap and a zero count. A
  // database has no dead slots, but the bytes stay so v1 readers (and
  // files written when databases could carry tombstones) keep one layout.
  w->PutString(std::string_view());
  w->PutVarint(0);
  w->PutVarint(db.num_real_);
}

void SnapshotAccess::EncodeCheckpoint(const PsrEngine::Checkpoint& cp,
                                      store::BinWriter* w) {
  w->PutVarint(cp.pos);
  w->PutVarint(cp.live);
  w->PutF64Array(cp.c);
  w->PutVarint(cp.active);
  w->PutVarint(cp.saturated);
  w->PutVarint(cp.xs.size());
  for (const PsrEngine::Checkpoint::XEntry& x : cp.xs) {
    w->PutZigzag(x.xtuple);
    w->PutU8(static_cast<uint8_t>(x.state));
    w->PutF64(x.q);
  }
}

void SnapshotAccess::EncodeEngine(const PsrEngine& engine,
                                  store::BinWriter* w) {
  w->PutBool(engine.options_.early_termination);
  w->PutBool(engine.options_.store_rank_probabilities);
  w->PutVarintArray(engine.ladder_.ks);
  w->PutVarint(engine.outputs_.size());
  for (const PsrOutput& out : engine.outputs_) {
    store::EncodePsrOutput(out, w);
  }
  w->PutVarint(engine.checkpoints_.size());
  for (const PsrEngine::Checkpoint& cp : engine.checkpoints_) {
    EncodeCheckpoint(cp, w);
  }
  w->PutVarint(engine.checkpoint_interval_);
}

void SnapshotAccess::EncodeSessions(const SessionPool& pool,
                                    store::BinWriter* w) {
  w->PutVarint(pool.base_tps_.size());
  for (const TpOutput& tp : pool.base_tps_) {
    store::EncodeTpOutput(tp, w);
  }
  w->PutVarint(pool.sessions_.size());
  for (const SessionPool::Session& session : pool.sessions_) {
    w->PutBool(session.open);
    if (!session.open) continue;
    const auto& outcomes = session.overlay.outcomes();
    w->PutVarint(outcomes.size());
    for (const auto& [xtuple, resolved_id] : outcomes) {
      w->PutZigzag(xtuple);
      w->PutZigzag(resolved_id);
    }
    // Pristine sessions (no outcomes) carry no state: their fork of the
    // base scan is bit-reproducible from the engine on load, so storing
    // it would only bloat the file -- the dominant cost for big pools.
    const bool has_state = !outcomes.empty();
    w->PutBool(has_state);
    if (!has_state) continue;
    const PsrEngine::SessionState& scan = session.scan;
    w->PutVarint(scan.outputs_.size());
    for (const PsrOutput& out : scan.outputs_) {
      store::EncodePsrOutput(out, w);
    }
    w->PutVarint(scan.checkpoints_.size());
    for (const PsrEngine::Checkpoint& cp : scan.checkpoints_) {
      EncodeCheckpoint(cp, w);
    }
    w->PutVarint(scan.checkpoint_interval_);
    w->PutVarint(session.tps.size());
    for (const TpOutput& tp : session.tps) {
      store::EncodeTpOutput(tp, w);
    }
  }
  w->PutVarintArray(pool.free_slots_);
  w->PutVarint(pool.num_open_);
}

void SnapshotAccess::EncodeCampaign(const store::CampaignSnapshot& campaign,
                                    store::BinWriter* w) {
  w->PutZigzag(campaign.budget);
  w->PutVarint(campaign.sessions.size());
  for (const store::CampaignSessionSnapshot& session : campaign.sessions) {
    w->PutVarint(session.session_id);
    w->PutZigzag(session.spent);
    w->PutZigzag(session.leftover);
    w->PutVarint(session.successes);
    w->PutVarint(session.rounds);
    w->PutVarint(session.log.size());
    for (const ProbeRecord& record : session.log) {
      store::EncodeProbeRecord(record, w);
    }
    store::EncodeFaultStats(session.faults, w);
    w->PutString(session.rng_state);
    w->PutBool(session.has_injector);
    if (session.has_injector) {
      store::EncodeInjectorState(session.injector, w);
    }
  }
}

Status SnapshotAccess::Serialize(const SessionPool& pool,
                                 const store::CampaignSnapshot* campaign,
                                 std::string* bytes) {
  for (size_t id = 0; id < pool.sessions_.size(); ++id) {
    const SessionPool::Session& session = pool.sessions_[id];
    if (session.open && session.dirty()) {
      return Status::FailedPrecondition(
          "session " + std::to_string(id) +
          " is dirty; Refresh before WriteSnapshot (a snapshot must not "
          "freeze stale maintained state)");
    }
  }

  store::SnapshotFileBuilder builder;
  builder.set_feature_flags(campaign != nullptr ? store::kFeatureCampaign
                                                : 0);
  {
    store::BinWriter w;
    EncodeMeta(pool, campaign, &w);
    builder.AddSection(store::kSectionMeta, store::kSectionVersion, w.Take());
  }
  {
    store::BinWriter w;
    EncodeDatabase(pool.base(), &w);
    builder.AddSection(store::kSectionDatabase, store::kSectionVersion,
                       w.Take());
  }
  {
    store::BinWriter w;
    EncodeEngine(pool.engine_, &w);
    builder.AddSection(store::kSectionEngine, store::kSectionVersion,
                       w.Take());
  }
  {
    store::BinWriter w;
    EncodeSessions(pool, &w);
    builder.AddSection(store::kSectionSessions, store::kSectionVersion,
                       w.Take());
  }
  if (campaign != nullptr) {
    store::BinWriter w;
    EncodeCampaign(*campaign, &w);
    builder.AddSection(store::kSectionCampaign, store::kSectionVersion,
                       w.Take());
  }
  *bytes = builder.Finish();
  return Status::OK();
}

std::vector<size_t> SnapshotAccess::EngineCheckpointPositions(
    const SessionPool& pool) {
  std::vector<size_t> positions;
  positions.reserve(pool.engine_.checkpoints_.size());
  for (const PsrEngine::Checkpoint& cp : pool.engine_.checkpoints_) {
    positions.push_back(cp.pos);
  }
  return positions;
}

std::vector<size_t> SnapshotAccess::SessionCheckpointPositions(
    const SessionPool& pool, SessionPool::SessionId id) {
  return pool.Slot(id).scan.checkpoint_positions();
}

}  // namespace uclean
