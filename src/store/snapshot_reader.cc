// Reader half of the snapshot store: container verification
// (SnapshotFile::Parse), section payload decoders with full structural
// validation, ReadSnapshot/InspectSnapshot and the warm-start entry
// point SessionPool::OpenFromSnapshot. Every malformed byte -- bad
// magic, checksum mismatch, truncation, out-of-range value,
// inconsistent cross-section shape, a top-k vector that is not +0.0
// past its Lemma-2 stop -- surfaces as Status::DataLoss; the reader
// never guesses and never reconstructs a pool it cannot prove
// bitwise-faithful to the writer's.

#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "clean/agent.h"
#include "clean/fault.h"
#include "clean/session_pool.h"
#include "common/status.h"
#include "exec/thread_pool.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "quality/tp.h"
#include "rank/kernel.h"
#include "rank/psr.h"
#include "rank/psr_engine.h"
#include "store/binstream.h"
#include "store/crc32.h"
#include "store/snapshot.h"

namespace uclean {
namespace store {

namespace {

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) {
    return Status::IOError("cannot stat '" + path + "'");
  }
  in.seekg(0, std::ios::beg);
  std::string bytes(static_cast<size_t>(size), '\0');
  in.read(bytes.data(), size);
  if (!in) {
    return Status::IOError("short read from '" + path + "'");
  }
  return bytes;
}

}  // namespace

Result<SnapshotFile> SnapshotFile::Parse(std::string bytes) {
  SnapshotFile file;
  file.bytes_ = std::move(bytes);
  const std::string_view view(file.bytes_);
  if (view.size() < kSnapshotHeaderSize) {
    return Status::DataLoss("truncated snapshot: no complete header");
  }
  if (std::memcmp(view.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::DataLoss("not a uclean snapshot (bad magic)");
  }
  BinReader header(view.substr(sizeof(kSnapshotMagic),
                               kSnapshotHeaderSize - sizeof(kSnapshotMagic)));
  uint32_t section_count = 0;
  uint64_t table_offset = 0;
  uint32_t header_crc = 0;
  UCLEAN_RETURN_IF_ERROR(header.GetU32(&file.format_version_));
  UCLEAN_RETURN_IF_ERROR(header.GetU32(&file.feature_flags_));
  UCLEAN_RETURN_IF_ERROR(header.GetU32(&section_count));
  UCLEAN_RETURN_IF_ERROR(header.GetU64(&table_offset));
  UCLEAN_RETURN_IF_ERROR(header.GetU32(&header_crc));
  if (Crc32(view.data(), kSnapshotHeaderSize - 4) != header_crc) {
    return Status::DataLoss("snapshot header checksum mismatch");
  }
  if (file.format_version_ != kSnapshotFormatVersion) {
    return Status::DataLoss(
        "unsupported snapshot format version " +
        std::to_string(file.format_version_) + " (this reader implements " +
        std::to_string(kSnapshotFormatVersion) + ")");
  }

  if (table_offset < kSnapshotHeaderSize || table_offset > view.size()) {
    return Status::DataLoss("snapshot section-table offset out of bounds");
  }
  const uint64_t table_bytes =
      static_cast<uint64_t>(section_count) * kSectionEntrySize;
  if (view.size() - table_offset < table_bytes + 4) {
    return Status::DataLoss("truncated snapshot section table");
  }
  if (table_offset + table_bytes + 4 != view.size()) {
    return Status::DataLoss("trailing bytes after snapshot section table");
  }
  BinReader table(view.substr(table_offset, table_bytes + 4));
  file.sections_.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    SectionEntry entry;
    UCLEAN_RETURN_IF_ERROR(ParseSectionEntry(&table, &entry));
    file.sections_.push_back(entry);
  }
  uint32_t table_crc = 0;
  UCLEAN_RETURN_IF_ERROR(table.GetU32(&table_crc));
  UCLEAN_RETURN_IF_ERROR(table.ExpectEnd("snapshot section table"));
  if (Crc32(view.data() + table_offset, table_bytes) != table_crc) {
    return Status::DataLoss("snapshot section-table checksum mismatch");
  }

  // Integrity is not optional for unknown sections: skipping is a format
  // decision the POOL reader makes; the container still proves every
  // byte it carries.
  for (const SectionEntry& entry : file.sections_) {
    if (entry.offset < kSnapshotHeaderSize || entry.offset > table_offset ||
        entry.size > table_offset - entry.offset) {
      return Status::DataLoss("section '" +
                              std::string(SectionName(entry.id)) +
                              "' extends past its container");
    }
    const std::string_view payload = view.substr(entry.offset, entry.size);
    if (Crc32(payload.data(), payload.size()) != entry.crc) {
      return Status::DataLoss("section '" +
                              std::string(SectionName(entry.id)) +
                              "' checksum mismatch");
    }
  }
  return file;
}

const SectionEntry* SnapshotFile::Find(uint32_t id) const {
  for (const SectionEntry& entry : sections_) {
    if (entry.id == id) return &entry;
  }
  return nullptr;
}

namespace {

/// Lemma 2 on a decoded rung: a scan never writes at or past its stop
/// point, so every top-k entry there is +0.0 bits, and num_nonzero counts
/// the positive entries before it. The serving argmax, the engine's
/// recounts and ForkSession's prefix copy all stop at scan_end on that
/// promise; one pass over the array checks it.
Status CheckZeroTail(const PsrOutput& out) {
  size_t positive = 0;
  for (size_t i = 0; i < out.scan_end; ++i) {
    if (out.topk_prob[i] > 0.0) ++positive;
  }
  uint64_t tail_bits = 0;
  for (size_t i = out.scan_end; i < out.topk_prob.size(); ++i) {
    uint64_t bits = 0;
    std::memcpy(&bits, &out.topk_prob[i], sizeof(bits));
    tail_bits |= bits;
  }
  if (tail_bits != 0) {
    return Status::DataLoss("PSR top-k entry at or past scan_end is not +0.0");
  }
  if (positive != out.num_nonzero) {
    return Status::DataLoss(
        "PSR nonzero count does not match its top-k vector");
  }
  return Status::OK();
}

Status DecodePsrOutput(BinReader* r, size_t num_tuples, PsrOutput* out) {
  uint64_t k = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&k));
  if (k == 0) return Status::DataLoss("PSR output with k == 0");
  out->k = static_cast<size_t>(k);
  UCLEAN_RETURN_IF_ERROR(r->GetF64Array(&out->topk_prob));
  if (out->topk_prob.size() != num_tuples) {
    return Status::DataLoss("PSR top-k vector size mismatch");
  }
  uint64_t num_nonzero = 0;
  uint64_t scan_end = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&num_nonzero));
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&scan_end));
  if (num_nonzero > num_tuples || scan_end > num_tuples) {
    return Status::DataLoss("PSR scan bounds exceed the database");
  }
  out->num_nonzero = static_cast<size_t>(num_nonzero);
  out->scan_end = static_cast<size_t>(scan_end);
  UCLEAN_RETURN_IF_ERROR(CheckZeroTail(*out));
  UCLEAN_RETURN_IF_ERROR(r->GetF64Array(&out->best_rank_prob));
  uint64_t index_count = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&index_count));
  if (out->best_rank_prob.size() != out->k || index_count != out->k) {
    return Status::DataLoss("U-kRanks tracker size mismatch");
  }
  out->best_rank_index.resize(out->k);
  for (size_t h = 0; h < out->k; ++h) {
    int64_t index = 0;
    UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&index));
    if (index < -1 || index >= static_cast<int64_t>(num_tuples)) {
      return Status::DataLoss("U-kRanks index out of range");
    }
    out->best_rank_index[h] = static_cast<int32_t>(index);
  }
  UCLEAN_RETURN_IF_ERROR(r->GetF64Array(&out->rank_prob));
  UCLEAN_RETURN_IF_ERROR(r->GetBool(&out->has_rank_probabilities));
  const size_t expected_matrix =
      out->has_rank_probabilities ? num_tuples * out->k : 0;
  if (out->rank_prob.size() != expected_matrix) {
    return Status::DataLoss("rank-probability matrix size mismatch");
  }
  return Status::OK();
}

Status DecodeTpOutput(BinReader* r, size_t num_tuples, size_t num_xtuples,
                      TpOutput* tp) {
  UCLEAN_RETURN_IF_ERROR(r->GetF64(&tp->quality));
  UCLEAN_RETURN_IF_ERROR(r->GetF64Array(&tp->omega));
  uint64_t scan_end = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&scan_end));
  UCLEAN_RETURN_IF_ERROR(r->GetF64Array(&tp->xtuple_gain));
  UCLEAN_RETURN_IF_ERROR(r->GetF64Array(&tp->xtuple_topk_mass));
  if (tp->omega.size() != num_tuples || scan_end > num_tuples ||
      tp->xtuple_gain.size() != num_xtuples ||
      tp->xtuple_topk_mass.size() != num_xtuples) {
    return Status::DataLoss("TP state size mismatch");
  }
  tp->scan_end = static_cast<size_t>(scan_end);
  return Status::OK();
}

Status DecodeProbeRecord(BinReader* r, ProbeRecord* record) {
  int64_t xtuple = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&xtuple));
  if (xtuple < std::numeric_limits<XTupleId>::min() ||
      xtuple > std::numeric_limits<XTupleId>::max()) {
    return Status::DataLoss("probe record x-tuple id out of range");
  }
  record->xtuple = static_cast<XTupleId>(xtuple);
  UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&record->attempts));
  UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&record->spent));
  UCLEAN_RETURN_IF_ERROR(r->GetBool(&record->success));
  UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&record->resolved_id));
  UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&record->failures));
  UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&record->retries));
  uint64_t last_error = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&last_error));
  if (last_error > static_cast<uint64_t>(StatusCode::kDataLoss)) {
    return Status::DataLoss("probe record status code out of range");
  }
  record->last_error = static_cast<StatusCode>(last_error);
  return Status::OK();
}

Status DecodeFaultStats(BinReader* r, FaultStats* stats) {
  UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&stats->transient));
  UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&stats->timeouts));
  UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&stats->source_down));
  UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&stats->retries));
  UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&stats->failed_probes));
  UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&stats->breaker_skips));
  UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&stats->deadline_skips));
  UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&stats->budget_unspent));
  return Status::OK();
}

Status DecodeInjectorState(BinReader* r, FaultInjectorState* state) {
  UCLEAN_RETURN_IF_ERROR(r->GetString(&state->rng_state));
  UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&state->now_us));
  UCLEAN_RETURN_IF_ERROR(r->GetBool(&state->ever_opened));
  uint64_t breaker_count = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&breaker_count));
  if (breaker_count > r->remaining()) {
    return Status::DataLoss("truncated breaker table");
  }
  state->breakers.resize(breaker_count);
  for (uint64_t i = 0; i < breaker_count; ++i) {
    FaultInjectorState::BreakerEntry& breaker = state->breakers[i];
    int64_t source = 0;
    UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&source));
    breaker.source = static_cast<XTupleId>(source);
    UCLEAN_RETURN_IF_ERROR(r->GetU8(&breaker.state));
    if (breaker.state > 2) {
      return Status::DataLoss("breaker state byte out of range");
    }
    UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&breaker.consecutive_failures));
    UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&breaker.open_until_us));
  }
  uint64_t down_count = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&down_count));
  if (down_count > r->remaining()) {
    return Status::DataLoss("truncated down-source table");
  }
  state->down.resize(down_count);
  for (uint64_t i = 0; i < down_count; ++i) {
    int64_t source = 0;
    UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&source));
    state->down[i].source = static_cast<XTupleId>(source);
    UCLEAN_RETURN_IF_ERROR(r->GetBool(&state->down[i].down));
  }
  return Status::OK();
}

}  // namespace

Result<LoadedSnapshot> ReadSnapshot(const std::string& path,
                                    const SessionPool::Options& options) {
  Result<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  return SnapshotAccess::Deserialize(std::move(bytes).value(), options);
}

Result<SnapshotInfo> InspectSnapshot(const std::string& path) {
  Result<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  Result<SnapshotFile> file = SnapshotFile::Parse(std::move(bytes).value());
  if (!file.ok()) return file.status();

  SnapshotInfo info;
  info.format_version = file->format_version();
  info.feature_flags = file->feature_flags();
  info.file_size = file->file_size();
  for (const SectionEntry& entry : file->sections()) {
    SectionInfo section;
    section.id = entry.id;
    section.version = entry.version;
    section.offset = entry.offset;
    section.size = entry.size;
    section.crc = entry.crc;
    section.name = SectionName(entry.id);
    info.sections.push_back(std::move(section));
  }
  const SectionEntry* meta = file->Find(kSectionMeta);
  if (meta != nullptr && meta->version <= kSectionVersion) {
    UCLEAN_RETURN_IF_ERROR(
        SnapshotAccess::DecodeMeta(file->payload(*meta), &info.meta));
    info.has_meta = true;
  }
  return info;
}

}  // namespace store

// ---------------------------------------------------------------------------
// SnapshotAccess: reader half.
// ---------------------------------------------------------------------------

Status SnapshotAccess::DecodeMeta(std::string_view payload,
                                  store::SnapshotMeta* meta) {
  store::BinReader r(payload);
  UCLEAN_RETURN_IF_ERROR(r.GetString(&meta->tool));
  UCLEAN_RETURN_IF_ERROR(r.GetString(&meta->kernel));
  UCLEAN_RETURN_IF_ERROR(r.GetVarint(&meta->threads));
  UCLEAN_RETURN_IF_ERROR(r.GetVarint(&meta->num_xtuples));
  UCLEAN_RETURN_IF_ERROR(r.GetVarint(&meta->num_tuples));
  UCLEAN_RETURN_IF_ERROR(r.GetVarint(&meta->num_sessions));
  UCLEAN_RETURN_IF_ERROR(r.GetVarintArray(&meta->ladder));
  return r.ExpectEnd("meta section");
}

Status SnapshotAccess::DecodeDatabase(store::BinReader* r,
                                      ProbabilisticDatabase* db) {
  uint64_t num_tuples = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&num_tuples));
  if (num_tuples > r->remaining()) {
    return Status::DataLoss("truncated tuple table");
  }
  db->tuples_.resize(num_tuples);
  for (uint64_t i = 0; i < num_tuples; ++i) {
    Tuple& t = db->tuples_[i];
    UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&t.id));
    uint64_t xtuple = 0;
    UCLEAN_RETURN_IF_ERROR(r->GetVarint(&xtuple));
    if (xtuple > static_cast<uint64_t>(std::numeric_limits<XTupleId>::max())) {
      return Status::DataLoss("tuple x-tuple id out of range");
    }
    t.xtuple = static_cast<XTupleId>(xtuple);
    UCLEAN_RETURN_IF_ERROR(r->GetF64(&t.score));
    UCLEAN_RETURN_IF_ERROR(r->GetF64(&t.prob));
    UCLEAN_RETURN_IF_ERROR(r->GetBool(&t.is_null));
    UCLEAN_RETURN_IF_ERROR(r->GetString(&t.label));
  }

  uint64_t num_xtuples = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&num_xtuples));
  if (num_xtuples > r->remaining()) {
    return Status::DataLoss("truncated x-tuple table");
  }
  db->members_.resize(num_xtuples);
  db->real_mass_.resize(num_xtuples);
  for (uint64_t l = 0; l < num_xtuples; ++l) {
    uint64_t member_count = 0;
    UCLEAN_RETURN_IF_ERROR(r->GetVarint(&member_count));
    if (member_count > r->remaining()) {
      return Status::DataLoss("truncated x-tuple member list");
    }
    std::vector<int32_t>& members = db->members_[l];
    members.resize(member_count);
    for (uint64_t j = 0; j < member_count; ++j) {
      uint64_t rank = 0;
      UCLEAN_RETURN_IF_ERROR(r->GetVarint(&rank));
      if (rank >= num_tuples) {
        return Status::DataLoss("x-tuple member rank index out of range");
      }
      members[j] = static_cast<int32_t>(rank);
    }
    UCLEAN_RETURN_IF_ERROR(r->GetF64(&db->real_mass_[l]));
  }
  for (const Tuple& t : db->tuples_) {
    if (static_cast<uint64_t>(t.xtuple) >= num_xtuples) {
      return Status::DataLoss("tuple references a missing x-tuple");
    }
  }

  // Format v1's tombstone field. A database never holds dead slots, so
  // the only valid contents are an empty bitmap, or an all-zero one over
  // every tuple (an older writer allocated the bitmap on a clean that
  // dropped nothing), with a zero count either way.
  std::string tombstones;
  UCLEAN_RETURN_IF_ERROR(r->GetString(&tombstones));
  if (!tombstones.empty() && tombstones.size() != num_tuples) {
    return Status::DataLoss("tombstone bitmap size mismatch");
  }
  if (tombstones.find_first_not_of('\0') != std::string::npos) {
    return Status::DataLoss("database carries tombstoned slots");
  }
  uint64_t num_tombstones = 0;
  uint64_t num_real = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&num_tombstones));
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&num_real));
  if (num_tombstones != 0) {
    return Status::DataLoss("database tombstone count must be zero");
  }
  if (num_real > num_tuples) {
    return Status::DataLoss("database tuple counters exceed the table");
  }
  db->num_real_ = static_cast<size_t>(num_real);
  return Status::OK();
}

Status SnapshotAccess::DecodeCheckpoint(store::BinReader* r,
                                        size_t num_xtuples, size_t num_tuples,
                                        PsrEngine::Checkpoint* cp) {
  uint64_t pos = 0;
  uint64_t live = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&pos));
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&live));
  if (pos > num_tuples || live > pos) {
    return Status::DataLoss("checkpoint position out of range");
  }
  cp->pos = static_cast<size_t>(pos);
  cp->live = static_cast<size_t>(live);
  UCLEAN_RETURN_IF_ERROR(r->GetF64Array(&cp->c));
  uint64_t active = 0;
  uint64_t saturated = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&active));
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&saturated));
  if (active > num_xtuples || saturated > num_xtuples ||
      cp->c.size() != active + 1) {
    return Status::DataLoss("checkpoint count vector inconsistent");
  }
  cp->active = static_cast<size_t>(active);
  cp->saturated = static_cast<size_t>(saturated);
  uint64_t xs_count = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&xs_count));
  if (xs_count > num_xtuples) {
    return Status::DataLoss("checkpoint tracks more x-tuples than exist");
  }
  cp->xs.resize(xs_count);
  for (uint64_t i = 0; i < xs_count; ++i) {
    PsrEngine::Checkpoint::XEntry& x = cp->xs[i];
    int64_t xtuple = 0;
    UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&xtuple));
    if (xtuple < 0 || static_cast<uint64_t>(xtuple) >= num_xtuples) {
      return Status::DataLoss("checkpoint x-tuple id out of range");
    }
    x.xtuple = static_cast<XTupleId>(xtuple);
    uint8_t state = 0;
    UCLEAN_RETURN_IF_ERROR(r->GetU8(&state));
    // Only non-inactive x-tuples are checkpointed; 0 (inactive) in the
    // stream means the writer and this reader disagree about the format.
    if (state != static_cast<uint8_t>(psr_internal::XTupleState::kActive) &&
        state !=
            static_cast<uint8_t>(psr_internal::XTupleState::kSaturated)) {
      return Status::DataLoss("checkpoint x-tuple state out of range");
    }
    x.state = static_cast<psr_internal::XTupleState>(state);
    UCLEAN_RETURN_IF_ERROR(r->GetF64(&x.q));
  }
  return Status::OK();
}

Status SnapshotAccess::DecodeEngine(store::BinReader* r,
                                    const ExecOptions& exec,
                                    const ProbabilisticDatabase& db,
                                    PsrEngine* engine) {
  engine->exec_ = exec;
  UCLEAN_RETURN_IF_ERROR(r->GetBool(&engine->options_.early_termination));
  UCLEAN_RETURN_IF_ERROR(
      r->GetBool(&engine->options_.store_rank_probabilities));
  UCLEAN_RETURN_IF_ERROR(r->GetVarintArray(&engine->ladder_.ks));
  {
    Status ladder_ok = engine->ladder_.Validate();
    if (!ladder_ok.ok()) {
      return Status::DataLoss("snapshot ladder invalid: " +
                              ladder_ok.message());
    }
  }
  uint64_t num_rungs = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&num_rungs));
  if (num_rungs != engine->ladder_.size()) {
    return Status::DataLoss("engine output count does not match the ladder");
  }
  engine->outputs_.resize(num_rungs);
  for (uint64_t j = 0; j < num_rungs; ++j) {
    UCLEAN_RETURN_IF_ERROR(store::DecodePsrOutput(r, db.num_tuples(),
                                                  &engine->outputs_[j]));
    if (engine->outputs_[j].k != engine->ladder_[j]) {
      return Status::DataLoss("engine rung k does not match the ladder");
    }
  }

  // The logical state above is the file's; the EXECUTION of future
  // replays is the loader's. Mirrors PsrEngine::Create: resolve the
  // loader's kernel choice and initialize the scan scratch -- core_
  // content never survives across public entry points (every replay
  // restores a checkpoint first), so Init is the complete reconstruction.
  Result<const psr_internal::ScanKernel*> kernel =
      SelectScanKernel(exec.kernel);
  if (!kernel.ok()) return kernel.status();
  engine->core_.Init(db.num_xtuples(), *kernel);

  uint64_t num_checkpoints = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&num_checkpoints));
  if (num_checkpoints > r->remaining()) {
    return Status::DataLoss("truncated checkpoint list");
  }
  engine->checkpoints_.resize(num_checkpoints);
  size_t prev_pos = 0;
  for (uint64_t i = 0; i < num_checkpoints; ++i) {
    UCLEAN_RETURN_IF_ERROR(DecodeCheckpoint(r, db.num_xtuples(),
                                            db.num_tuples(),
                                            &engine->checkpoints_[i]));
    if (i > 0 && engine->checkpoints_[i].pos <= prev_pos) {
      return Status::DataLoss("checkpoint positions not ascending");
    }
    prev_pos = engine->checkpoints_[i].pos;
  }
  uint64_t interval = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&interval));
  if (interval == 0) {
    return Status::DataLoss("checkpoint interval must be positive");
  }
  engine->checkpoint_interval_ = static_cast<size_t>(interval);
  return Status::OK();
}

Status SnapshotAccess::DecodeSessions(store::BinReader* r,
                                      SessionPool* pool) {
  const size_t num_tuples = pool->base().num_tuples();
  const size_t num_xtuples = pool->base().num_xtuples();
  const size_t num_rungs = pool->engine_.num_rungs();

  uint64_t base_tp_count = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&base_tp_count));
  if (base_tp_count != num_rungs) {
    return Status::DataLoss("base TP ladder does not match the engine");
  }
  pool->base_tps_.resize(num_rungs);
  for (size_t j = 0; j < num_rungs; ++j) {
    UCLEAN_RETURN_IF_ERROR(store::DecodeTpOutput(r, num_tuples, num_xtuples,
                                                 &pool->base_tps_[j]));
  }

  uint64_t slot_count = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&slot_count));
  if (slot_count > r->remaining()) {
    return Status::DataLoss("truncated session slot table");
  }
  pool->sessions_.clear();
  pool->sessions_.reserve(slot_count);
  size_t open_count = 0;
  for (uint64_t id = 0; id < slot_count; ++id) {
    SessionPool::Session session;
    UCLEAN_RETURN_IF_ERROR(r->GetBool(&session.open));
    if (!session.open) {
      pool->sessions_.push_back(std::move(session));
      continue;
    }
    ++open_count;
    uint64_t outcome_count = 0;
    UCLEAN_RETURN_IF_ERROR(r->GetVarint(&outcome_count));
    if (outcome_count > r->remaining()) {
      return Status::DataLoss("truncated session outcome list");
    }
    // The overlay is rebuilt by replaying the recorded outcomes through
    // the same public mutation the live session used -- deterministic,
    // bitwise, and every derived index (tombstones, patches, divergence
    // rank) is re-derived instead of trusted from disk.
    session.overlay = DatabaseOverlay(pool->base_.get());
    for (uint64_t i = 0; i < outcome_count; ++i) {
      int64_t xtuple = 0;
      int64_t resolved_id = 0;
      UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&xtuple));
      UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&resolved_id));
      if (xtuple < 0 || static_cast<uint64_t>(xtuple) >= num_xtuples) {
        return Status::DataLoss("session outcome x-tuple out of range");
      }
      Result<DatabaseOverlay::CleanOutcomeDelta> delta =
          session.overlay.ApplyCleanOutcome(static_cast<XTupleId>(xtuple),
                                            resolved_id);
      if (!delta.ok()) {
        return Status::DataLoss("session outcome replay failed: " +
                                delta.status().message());
      }
    }
    bool has_state = false;
    UCLEAN_RETURN_IF_ERROR(r->GetBool(&has_state));
    if (has_state != (outcome_count > 0)) {
      return Status::DataLoss(
          "session state presence inconsistent with its outcomes");
    }
    if (has_state) {
      PsrEngine::SessionState& scan = session.scan;
      uint64_t output_count = 0;
      UCLEAN_RETURN_IF_ERROR(r->GetVarint(&output_count));
      if (output_count != num_rungs) {
        return Status::DataLoss("session output count mismatch");
      }
      scan.outputs_.resize(num_rungs);
      for (size_t j = 0; j < num_rungs; ++j) {
        UCLEAN_RETURN_IF_ERROR(
            store::DecodePsrOutput(r, num_tuples, &scan.outputs_[j]));
      }
      uint64_t cp_count = 0;
      UCLEAN_RETURN_IF_ERROR(r->GetVarint(&cp_count));
      if (cp_count > r->remaining()) {
        return Status::DataLoss("truncated session checkpoint list");
      }
      scan.checkpoints_.resize(cp_count);
      size_t prev_pos = 0;
      for (uint64_t i = 0; i < cp_count; ++i) {
        UCLEAN_RETURN_IF_ERROR(DecodeCheckpoint(r, num_xtuples, num_tuples,
                                                &scan.checkpoints_[i]));
        if (i > 0 && scan.checkpoints_[i].pos <= prev_pos) {
          return Status::DataLoss("session checkpoints not ascending");
        }
        prev_pos = scan.checkpoints_[i].pos;
      }
      uint64_t interval = 0;
      UCLEAN_RETURN_IF_ERROR(r->GetVarint(&interval));
      if (interval == 0) {
        return Status::DataLoss("session checkpoint interval must be "
                                "positive");
      }
      scan.checkpoint_interval_ = static_cast<size_t>(interval);
      scan.core_.Init(num_xtuples, pool->engine_.core_.kernel);
      uint64_t tp_count = 0;
      UCLEAN_RETURN_IF_ERROR(r->GetVarint(&tp_count));
      if (tp_count != num_rungs) {
        return Status::DataLoss("session TP ladder size mismatch");
      }
      session.tps.resize(num_rungs);
      for (size_t j = 0; j < num_rungs; ++j) {
        UCLEAN_RETURN_IF_ERROR(store::DecodeTpOutput(
            r, num_tuples, num_xtuples, &session.tps[j]));
      }
    } else {
      // Pristine session: its fork of the base scan is bit-reproducible
      // from the (already reconstructed) engine -- a memcpy, no scan.
      session.scan = pool->engine_.ForkSession();
      session.tps = pool->base_tps_;
    }
    pool->sessions_.push_back(std::move(session));
  }

  UCLEAN_RETURN_IF_ERROR(r->GetVarintArray(&pool->free_slots_));
  std::vector<bool> freed(pool->sessions_.size(), false);
  for (size_t slot : pool->free_slots_) {
    if (slot >= pool->sessions_.size() || pool->sessions_[slot].open ||
        freed[slot]) {
      return Status::DataLoss("free-slot list inconsistent");
    }
    freed[slot] = true;
  }
  uint64_t num_open = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&num_open));
  if (num_open != open_count ||
      pool->free_slots_.size() != pool->sessions_.size() - open_count) {
    return Status::DataLoss("session accounting inconsistent");
  }
  pool->num_open_ = open_count;
  return Status::OK();
}

Status SnapshotAccess::DecodeCampaign(store::BinReader* r,
                                      store::CampaignSnapshot* campaign) {
  UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&campaign->budget));
  uint64_t session_count = 0;
  UCLEAN_RETURN_IF_ERROR(r->GetVarint(&session_count));
  if (session_count > r->remaining()) {
    return Status::DataLoss("truncated campaign session list");
  }
  campaign->sessions.resize(session_count);
  for (uint64_t s = 0; s < session_count; ++s) {
    store::CampaignSessionSnapshot& session = campaign->sessions[s];
    UCLEAN_RETURN_IF_ERROR(r->GetVarint(&session.session_id));
    UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&session.spent));
    UCLEAN_RETURN_IF_ERROR(r->GetZigzag(&session.leftover));
    UCLEAN_RETURN_IF_ERROR(r->GetVarint(&session.successes));
    UCLEAN_RETURN_IF_ERROR(r->GetVarint(&session.rounds));
    uint64_t log_count = 0;
    UCLEAN_RETURN_IF_ERROR(r->GetVarint(&log_count));
    if (log_count > r->remaining()) {
      return Status::DataLoss("truncated campaign probe log");
    }
    session.log.resize(log_count);
    for (uint64_t i = 0; i < log_count; ++i) {
      UCLEAN_RETURN_IF_ERROR(store::DecodeProbeRecord(r, &session.log[i]));
    }
    UCLEAN_RETURN_IF_ERROR(store::DecodeFaultStats(r, &session.faults));
    UCLEAN_RETURN_IF_ERROR(r->GetString(&session.rng_state));
    UCLEAN_RETURN_IF_ERROR(r->GetBool(&session.has_injector));
    if (session.has_injector) {
      UCLEAN_RETURN_IF_ERROR(
          store::DecodeInjectorState(r, &session.injector));
    }
  }
  return Status::OK();
}

Result<store::LoadedSnapshot> SnapshotAccess::Deserialize(
    std::string bytes, const SessionPool::Options& options) {
  Result<store::SnapshotFile> file =
      store::SnapshotFile::Parse(std::move(bytes));
  if (!file.ok()) return file.status();

  const uint32_t unknown_flags =
      file->feature_flags() & ~store::kKnownFeatureFlags;
  if (unknown_flags != 0) {
    return Status::DataLoss(
        "snapshot uses feature flags this reader does not understand (0x" +
        std::to_string(unknown_flags) + ")");
  }
  for (uint32_t id : {store::kSectionMeta, store::kSectionDatabase,
                      store::kSectionEngine, store::kSectionSessions}) {
    const store::SectionEntry* entry = file->Find(id);
    if (entry == nullptr) {
      return Status::DataLoss("snapshot is missing its '" +
                              std::string(store::SectionName(id)) +
                              "' section");
    }
    if (entry->version > store::kSectionVersion) {
      return Status::DataLoss(
          "section '" + std::string(store::SectionName(id)) + "' version " +
          std::to_string(entry->version) +
          " is newer than this reader supports");
    }
  }

  store::SnapshotMeta meta;
  UCLEAN_RETURN_IF_ERROR(
      DecodeMeta(file->payload(*file->Find(store::kSectionMeta)), &meta));

  Result<ExecOptions> resolved = ResolveExec(options.exec);
  if (!resolved.ok()) return resolved.status();

  SessionPool pool;
  pool.options_ = options;
  pool.options_.exec = std::move(resolved).value();
  pool.base_ = std::make_unique<ProbabilisticDatabase>();
  {
    store::BinReader r(
        file->payload(*file->Find(store::kSectionDatabase)));
    UCLEAN_RETURN_IF_ERROR(DecodeDatabase(&r, pool.base_.get()));
    UCLEAN_RETURN_IF_ERROR(r.ExpectEnd("database section"));
  }
  if (meta.num_tuples != pool.base_->num_tuples() ||
      meta.num_xtuples != pool.base_->num_xtuples()) {
    return Status::DataLoss("meta section disagrees with the database");
  }
  {
    store::BinReader r(file->payload(*file->Find(store::kSectionEngine)));
    UCLEAN_RETURN_IF_ERROR(
        DecodeEngine(&r, pool.options_.exec, *pool.base_, &pool.engine_));
    UCLEAN_RETURN_IF_ERROR(r.ExpectEnd("engine section"));
  }
  if (meta.ladder != pool.engine_.ladder().ks) {
    return Status::DataLoss("meta section disagrees with the engine ladder");
  }
  {
    store::BinReader r(file->payload(*file->Find(store::kSectionSessions)));
    UCLEAN_RETURN_IF_ERROR(DecodeSessions(&r, &pool));
    UCLEAN_RETURN_IF_ERROR(r.ExpectEnd("sessions section"));
  }
  if (meta.num_sessions != pool.num_open_) {
    return Status::DataLoss("meta section disagrees with the session count");
  }

  store::LoadedSnapshot loaded(std::move(pool));
  loaded.meta = std::move(meta);
  if ((file->feature_flags() & store::kFeatureCampaign) != 0) {
    const store::SectionEntry* entry = file->Find(store::kSectionCampaign);
    if (entry == nullptr) {
      return Status::DataLoss(
          "campaign feature flag set but no campaign section present");
    }
    if (entry->version > store::kSectionVersion) {
      return Status::DataLoss("campaign section is newer than this reader");
    }
    store::BinReader r(file->payload(*entry));
    UCLEAN_RETURN_IF_ERROR(DecodeCampaign(&r, &loaded.campaign));
    UCLEAN_RETURN_IF_ERROR(r.ExpectEnd("campaign section"));
    for (const store::CampaignSessionSnapshot& session :
         loaded.campaign.sessions) {
      if (!loaded.pool.is_open(
              static_cast<SessionPool::SessionId>(session.session_id))) {
        return Status::DataLoss(
            "campaign references a session that is not open");
      }
    }
    loaded.has_campaign = true;
  }
  return loaded;
}

// The warm-start tier's front door, declared on SessionPool so callers
// need no store headers.
Result<SessionPool> SessionPool::OpenFromSnapshot(const std::string& path,
                                                  const Options& options) {
  Result<store::LoadedSnapshot> loaded = store::ReadSnapshot(path, options);
  if (!loaded.ok()) return loaded.status();
  return std::move(loaded->pool);
}

}  // namespace uclean
