// The snapshot store: the section container (SnapshotFileBuilder,
// SnapshotFile::Parse), the one codec of every section payload, and the
// entry points WriteSnapshot/ReadSnapshot/InspectSnapshot plus the warm
// start SessionPool::OpenFromSnapshot. See store/snapshot.h for the
// format contract.
//
// Each wire type's layout is ONE Transfer template, run over a BinWriter
// to write and over a BinReader to read (store/binstream.h), so the two
// directions cannot drift apart; a layout change still needs a section
// version bump. Checks live on the read side only: every malformed byte
// -- bad magic, checksum mismatch, truncation, out-of-range value,
// inconsistent cross-section shape, a rung prefix longer or shorter
// than its scan_end -- surfaces as Status::DataLoss, and the reader never
// reconstructs a pool it cannot prove bitwise-faithful to the writer's.
// Rungs are written as memory holds them, their live prefix
// [0, scan_end). The one layout the writer no longer writes, version 1
// of the engine and sessions sections, has a reader of its own
// (ReadPaddedRung, ReadPaddedTp): its rungs are n entries, and it checks
// that the tail past scan_end is +0.0, then drops it.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
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
#include "rank/sharded_scan.h"
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

uint32_t SectionVersion(uint32_t id) {
  return id == kSectionEngine || id == kSectionSessions ? kRungSectionVersion
                                                        : kSectionVersion;
}

// ---------------------------------------------------------------------------
// Container.
// ---------------------------------------------------------------------------

void SnapshotFileBuilder::AddSection(uint32_t id, uint32_t version,
                                     std::string payload) {
  sections_.push_back({id, version, std::move(payload)});
}

std::string SnapshotFileBuilder::Finish() const {
  // Payloads sit back to back after the header; the table trails them so
  // the writer streams in one pass.
  BinWriter table;
  uint64_t offset = kSnapshotHeaderSize;
  for (const PendingSection& section : sections_) {
    SectionEntry entry;
    entry.id = section.id;
    entry.version = section.version;
    entry.offset = offset;
    entry.size = section.payload.size();
    entry.crc = Crc32(section.payload.data(), section.payload.size());
    Transfer(table, entry);
    offset += entry.size;
  }
  table.U32(Crc32(table.bytes().data(), table.bytes().size()));

  BinWriter file;
  for (char c : kSnapshotMagic) file.U8(static_cast<uint8_t>(c));
  file.U32(format_version_);
  file.U32(feature_flags_);
  file.U32(static_cast<uint32_t>(sections_.size()));
  file.U64(offset);
  file.U32(Crc32(file.bytes().data(), file.bytes().size()));
  std::string bytes = file.Take();
  for (const PendingSection& section : sections_) {
    bytes.append(section.payload);
  }
  bytes.append(table.bytes());
  return bytes;
}

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
  header.U32(file.format_version_);
  header.U32(file.feature_flags_);
  header.U32(section_count);
  header.U64(table_offset);
  header.U32(header_crc);
  UCLEAN_RETURN_IF_ERROR(header.ExpectEnd("snapshot header"));
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
  file.sections_.resize(section_count);
  for (SectionEntry& entry : file.sections_) Transfer(table, entry);
  uint32_t table_crc = 0;
  table.U32(table_crc);
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

// ---------------------------------------------------------------------------
// Section codecs over public types.
// ---------------------------------------------------------------------------

namespace {

bool AllFinite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return std::isfinite(x); });
}

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

/// rows * k entries of a rank matrix, or SIZE_MAX when that overflows (no
/// file holds so many, so a count held to it fails).
size_t MatrixEntries(size_t rows, size_t k) {
  return rows != 0 && k > SIZE_MAX / rows ? SIZE_MAX : rows * k;
}

/// What every loaded PSR rung must hold, in either section version:
/// finite entries, and num_nonzero counting the positive top-k entries.
void CheckRung(BinReader& c, PsrOutput& out, size_t n) {
  out.num_tuples = n;
  c.Check(AllFinite(out.topk_prob), "PSR top-k entry is not finite");
  size_t positive = 0;
  for (double p : out.topk_prob) positive += p > 0.0;
  c.Check(positive == out.num_nonzero,
          "PSR nonzero count does not match its top-k vector");
  c.Check(AllFinite(out.rank_prob), "PSR rank probability is not finite");
}

/// What every loaded TP rung must hold, in either section version.
void CheckTp(BinReader& c, TpOutput& tp, size_t n) {
  tp.num_tuples = n;
  c.Check(std::isfinite(tp.quality), "TP quality is not finite");
  c.Check(AllFinite(tp.omega), "TP omega entry is not finite");
  c.Check(AllFinite(tp.xtuple_gain), "TP x-tuple gain is not finite");
  c.Check(AllFinite(tp.xtuple_topk_mass),
          "TP x-tuple top-k mass is not finite");
}

/// A PSR rung's per-rank argmaxes, laid out alike in both versions.
template <typename C>
void TransferArgmaxes(C& c, Io<C, PsrOutput>& out, size_t n) {
  c.F64Array(out.best_rank_prob, out.k, out.k);
  c.Size(out.best_rank_index, out.k, out.k);
  for (auto& index : out.best_rank_index) {
    c.Zigzag(index, -1, static_cast<int64_t>(n) - 1);
  }
}

/// A version-1 rung vector: every entry of `v` at or past `end` must be
/// +0.0 bits (the wire can carry any tail; a scan writes none), and
/// memory keeps only [0, end), its tail's memory released.
void DropZeroTail(BinReader& c, std::vector<double>* v, size_t end,
                  const char* what) {
  if (!c.ok()) return;
  uint64_t bits = 0;
  for (size_t i = std::min(end, v->size()); i < v->size(); ++i) {
    uint64_t b = 0;
    std::memcpy(&b, &(*v)[i], sizeof(b));
    bits |= b;
  }
  c.Check(bits == 0, what);
  v->resize(std::min(end, v->size()));
  v->shrink_to_fit();
}

/// A version-1 PSR rung over `n` tuples: k, n top-k entries, num_nonzero,
/// scan_end, the argmaxes, then n * k matrix entries (or none) before the
/// matrix flag. A scan never writes at or past its stop, so every entry
/// there is +0.0 bits; memory keeps the prefix before it.
void ReadPaddedRung(BinReader& c, PsrOutput& out, size_t n) {
  c.Varint(out.k, 1, SIZE_MAX);
  c.F64Array(out.topk_prob, n, n);
  c.Varint(out.num_nonzero, n);
  c.Varint(out.scan_end, n);
  DropZeroTail(c, &out.topk_prob, out.scan_end,
               "PSR top-k entry at or past scan_end is not +0.0");
  TransferArgmaxes(c, out, n);
  c.F64Array(out.rank_prob);
  c.Bool(out.has_rank_probabilities);
  c.Check(out.rank_prob.size() ==
              (out.has_rank_probabilities ? MatrixEntries(n, out.k) : 0),
          "rank-probability matrix size mismatch");
  DropZeroTail(c, &out.rank_prob, MatrixEntries(out.scan_end, out.k),
               "PSR rank probability at or past scan_end is not +0.0");
  CheckRung(c, out, n);
}

/// A version-1 TP rung: quality, n omega entries, scan_end, then the
/// per-x-tuple gains and masses; omega is +0.0 past scan_end, which is
/// its PSR rung's.
void ReadPaddedTp(BinReader& c, TpOutput& tp, const PsrOutput& rung, size_t n,
                  size_t nx) {
  c.F64(tp.quality);
  c.F64Array(tp.omega, n, n);
  c.Varint(tp.scan_end, n);
  c.F64Array(tp.xtuple_gain, nx, nx);
  c.F64Array(tp.xtuple_topk_mass, nx, nx);
  c.Check(tp.scan_end == rung.scan_end,
          "TP scan_end does not match its PSR rung");
  DropZeroTail(c, &tp.omega, tp.scan_end,
               "TP omega at or past scan_end is not +0.0");
  CheckTp(c, tp, n);
}

}  // namespace

template <typename C>
void Transfer(C& c, Io<C, SnapshotMeta>& meta) {
  c.String(meta.tool);
  c.String(meta.kernel);
  c.Varint(meta.threads);
  c.Varint(meta.num_xtuples);
  c.Varint(meta.num_tuples);
  c.Varint(meta.num_sessions);
  c.VarintArray(meta.ladder);
}

/// One PSR rung over `n` tuples in a section of `version`. Version 2
/// writes scan_end before the vectors it sizes, and the reader holds
/// each vector's count to it before allocating: topk_prob[0, scan_end),
/// and rank_prob[0, scan_end * k) behind the matrix flag.
template <typename C>
void Transfer(C& c, Io<C, PsrOutput>& out, size_t n, uint32_t version) {
  if constexpr (C::kReads) {
    if (version < kRungSectionVersion) return ReadPaddedRung(c, out, n);
  }
  c.Varint(out.k, 1, SIZE_MAX);
  c.Varint(out.scan_end);
  c.Check(out.scan_end <= n, "PSR scan_end is past the last tuple");
  c.F64ArrayOfSize(out.topk_prob, out.scan_end,
                   "PSR top-k prefix is not scan_end entries");
  c.Varint(out.num_nonzero, n);
  TransferArgmaxes(c, out, n);
  c.Bool(out.has_rank_probabilities);
  c.F64ArrayOfSize(
      out.rank_prob,
      out.has_rank_probabilities ? MatrixEntries(out.scan_end, out.k) : 0,
      "PSR rank-probability prefix is not scan_end * k entries");
  if constexpr (C::kReads) CheckRung(c, out, n);
}

/// One TP rung over `db`, paired with PSR rung `rung`, in a section of
/// `version`. Version 2 writes scan_end, which must be the PSR rung's,
/// before omega[0, scan_end).
template <typename C>
void Transfer(C& c, Io<C, TpOutput>& tp, const PsrOutput& rung,
              const ProbabilisticDatabase& db, uint32_t version) {
  const size_t n = db.num_tuples();
  const size_t nx = db.num_xtuples();
  if constexpr (C::kReads) {
    if (version < kRungSectionVersion) {
      return ReadPaddedTp(c, tp, rung, n, nx);
    }
  }
  c.F64(tp.quality);
  c.Varint(tp.scan_end);
  c.Check(tp.scan_end == rung.scan_end,
          "TP scan_end does not match its PSR rung");
  c.F64ArrayOfSize(tp.omega, tp.scan_end,
                   "TP omega prefix is not scan_end entries");
  c.F64Array(tp.xtuple_gain, nx, nx);
  c.F64Array(tp.xtuple_topk_mass, nx, nx);
  if constexpr (C::kReads) CheckTp(c, tp, n);
}

/// A TP ladder, one rung per PSR rung of `rungs` (the engine's for the
/// base ladder, a session's own for its ladder).
template <typename C>
void Transfer(C& c, Io<C, std::vector<TpOutput>>& tps,
              const std::vector<PsrOutput>& rungs,
              const ProbabilisticDatabase& db, uint32_t version) {
  c.Size(tps, rungs.size(), rungs.size());
  for (size_t j = 0; j < tps.size(); ++j) {
    Transfer(c, tps[j], rungs[j], db, version);
  }
}

template <typename C>
void Transfer(C& c, Io<C, ProbeRecord>& record) {
  c.Zigzag(record.xtuple);
  c.Zigzag(record.attempts);
  c.Zigzag(record.spent);
  c.Bool(record.success);
  c.Zigzag(record.resolved_id);
  c.Zigzag(record.failures);
  c.Zigzag(record.retries);
  c.Varint(record.last_error, static_cast<uint64_t>(StatusCode::kDataLoss));
}

template <typename C>
void Transfer(C& c, Io<C, FaultStats>& stats) {
  c.Zigzag(stats.transient);
  c.Zigzag(stats.timeouts);
  c.Zigzag(stats.source_down);
  c.Zigzag(stats.retries);
  c.Zigzag(stats.failed_probes);
  c.Zigzag(stats.breaker_skips);
  c.Zigzag(stats.deadline_skips);
  c.Zigzag(stats.budget_unspent);
}

template <typename C>
void Transfer(C& c, Io<C, FaultInjectorState>& state) {
  c.String(state.rng_state);
  c.Zigzag(state.now_us);
  c.Bool(state.ever_opened);
  c.Size(state.breakers);
  for (auto& breaker : state.breakers) {
    c.Zigzag(breaker.source);
    c.U8(breaker.state, 0, 2);  // BreakerState
    c.Zigzag(breaker.consecutive_failures);
    c.Zigzag(breaker.open_until_us);
  }
  c.Size(state.down);
  for (auto& entry : state.down) {
    c.Zigzag(entry.source);
    c.Bool(entry.down);
  }
}

template <typename C>
void Transfer(C& c, Io<C, CampaignSnapshot>& campaign) {
  c.Zigzag(campaign.budget);
  c.Size(campaign.sessions);
  for (auto& session : campaign.sessions) {
    c.Varint(session.session_id);
    c.Zigzag(session.spent);
    c.Zigzag(session.leftover);
    c.Varint(session.successes);
    c.Varint(session.rounds);
    c.Size(session.log);
    for (auto& record : session.log) Transfer(c, record);
    Transfer(c, session.faults);
    c.String(session.rng_state);
    c.Bool(session.has_injector);
    if (session.has_injector) Transfer(c, session.injector);
  }
}

Status WriteSnapshot(const SessionPool& pool, const std::string& path,
                     const CampaignSnapshot* campaign) {
  std::string bytes;
  UCLEAN_RETURN_IF_ERROR(SnapshotAccess::Serialize(pool, campaign, &bytes));
  // A save that fails midway must not tear the file already at `path`:
  // the bytes go to a temp file, which replaces it only whole.
  const std::string temp = path + ".tmp";
  std::ofstream out(temp, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open '" + temp + "' for writing");
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    std::remove(temp.c_str());
    return Status::IOError("short write to '" + temp + "'");
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return Status::IOError("cannot replace '" + path + "' with '" + temp +
                           "'");
  }
  return Status::OK();
}

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
    info.sections.push_back({entry.id, entry.version, entry.offset, entry.size,
                             entry.crc, SectionName(entry.id)});
  }
  const SectionEntry* meta = file->Find(kSectionMeta);
  if (meta != nullptr && meta->version <= SectionVersion(kSectionMeta)) {
    BinReader r(file->payload(*meta));
    Transfer(r, info.meta);
    UCLEAN_RETURN_IF_ERROR(r.ExpectEnd("meta section"));
    info.has_meta = true;
  }
  return info;
}

}  // namespace store

// ---------------------------------------------------------------------------
// Section codecs over private state (SnapshotAccess).
// ---------------------------------------------------------------------------

template <typename C>
void SnapshotAccess::Transfer(C& c, store::Io<C, ProbabilisticDatabase>& db) {
  // The reader holds the file to DatabaseBuilder::Finish's invariants, so
  // a crafted database cannot reach the scan: probabilities in (0, 1],
  // finite scores, the builder's rank order, masses in [0, 1], and member
  // lists and the real-tuple count that match the tuples. Each tuple's
  // x-tuple goes to a compact `owner` array as it is decoded, so the
  // member lists are checked against it without a second pass over the
  // tuples.
  c.Size(db.tuples_);
  const size_t n = db.tuples_.size();
  std::vector<int32_t> owner;
  size_t num_real = 0;
  if constexpr (C::kReads) owner.resize(n);
  for (size_t i = 0; i < n; ++i) {
    auto& t = db.tuples_[i];
    c.Zigzag(t.id);
    c.Varint(t.xtuple);
    c.F64(t.score);
    c.F64(t.prob);
    c.Bool(t.is_null);
    c.String(t.label);
    if constexpr (C::kReads) {
      c.Check(t.prob > 0.0 && t.prob <= 1.0,
              "tuple probability outside (0, 1]");
      c.Check(std::isfinite(t.score), "tuple score is not finite");
      c.Check(i == 0 || ProbabilisticDatabase::RanksAbove(db.tuples_[i - 1], t),
              "tuples are not in rank order");
      owner[i] = t.xtuple;
      num_real += !t.is_null;
    }
  }
  c.Size(db.members_);
  if constexpr (C::kReads) db.real_mass_.resize(db.members_.size());
  // A list holds its own x-tuple's ranks, ascending; with no rank listed
  // twice, n listed ranks name every tuple once.
  size_t listed = 0;
  for (size_t l = 0; l < db.members_.size(); ++l) {
    auto& members = db.members_[l];
    c.Size(members);
    for (size_t j = 0; j < members.size(); ++j) {
      c.Varint(members[j]);
      if constexpr (C::kReads) {
        const auto rank = static_cast<size_t>(members[j]);
        c.Check(rank < n && static_cast<size_t>(owner[rank]) == l &&
                    (j == 0 || members[j - 1] < members[j]),
                "x-tuple member lists disagree with the tuples");
      }
    }
    listed += members.size();
    c.F64(db.real_mass_[l]);
    c.Check(db.real_mass_[l] >= 0.0 && db.real_mass_[l] <= 1.0,
            "x-tuple real mass outside [0, 1]");
  }
  c.Check(listed == n, "x-tuple member lists disagree with the tuples");

  // Format v1's tombstone field: a bitmap and a count. A database has no
  // dead slots, so the writer leaves both empty; the reader also accepts
  // the all-zero bitmap over every tuple that an older writer left when
  // a clean allocated it but dropped nothing.
  std::string tombstones;
  uint64_t num_tombstones = 0;
  c.String(tombstones);
  c.Varint(num_tombstones, 0);
  if constexpr (C::kReads) {
    c.Check(tombstones.empty() ||
                (tombstones.size() == n &&
                 tombstones.find_first_not_of('\0') == std::string::npos),
            "database carries tombstoned slots");
  }
  c.Varint(db.num_real_, n);
  c.Check(db.num_real_ == num_real, "real-tuple count disagrees");
}

/// One mass walk from rank 0 over the view a checkpoint list is valid
/// for: the scan's own mass additions (rank/sharded_scan.h's
/// ForwardMasses), so at each checkpoint's position its state is, bitwise,
/// the x-tuple entries the wire carries for that checkpoint.
struct SnapshotAccess::CheckpointWalk {
  explicit CheckpointWalk(const DatabaseOverlay& v) : view(v) {
    core.Init(view.num_xtuples());
  }

  /// Walks on to `pos`; false, without moving, when `pos` lies behind.
  bool To(size_t pos) {
    if (pos < walked) return false;
    psr_internal::ForwardMasses(view, walked, pos, &core);
    for (; walked < pos; ++walked) live += !view.is_tombstone(walked);
    return true;
  }

  const DatabaseOverlay& view;
  psr_internal::ScanCore core;
  size_t walked = 0;
  size_t live = 0;  // live tuples in [0, walked)
  /// Reader: every checkpoint decoded so far is the walk's state at its
  /// position -- live rank, counts, and each entry's state and mass.
  bool same = true;
};

namespace {

constexpr char kWalkMismatch[] =
    "checkpoint masses differ from a walk of the database";

/// A list's element count, for a list that memory does not keep: the
/// Transfer visits each element as it is written or read.
struct ElementCount {
  size_t n = 0;
  size_t size() const { return n; }
  void resize(size_t count) { n = count; }
};

}  // namespace

template <typename C>
void SnapshotAccess::Transfer(C& c, store::Io<C, PsrEngine::Checkpoint>& cp,
                              size_t num_tuples, CheckpointWalk& walk) {
  using psr_internal::XTupleState;
  const size_t num_xtuples = walk.view.num_xtuples();
  c.Varint(cp.pos, num_tuples);
  c.Varint(cp.live, cp.pos);
  c.F64Array(cp.c);
  c.Varint(cp.active, num_xtuples);
  c.Varint(cp.saturated, num_xtuples);
  c.Check(cp.c.size() == cp.active + 1, "checkpoint count vector inconsistent");
  // Then every non-inactive x-tuple's id, state and mass, ascending. They
  // exist only on the wire: they are the walk's state at cp.pos, which
  // the writer emits and the reader checks entry by entry as it decodes.
  const psr_internal::ScanCore& at = walk.core;
  ElementCount entries;
  bool same = false;
  if constexpr (C::kReads) {
    same = c.ok() && walk.same && walk.To(cp.pos);
  } else {
    walk.To(cp.pos);
    UCLEAN_CHECK(at.active == cp.active && at.saturated == cp.saturated);
    entries.n = cp.active + cp.saturated;
  }
  c.Size(entries, 0, num_xtuples);
  bool ascending = true;
  size_t active = 0;
  size_t saturated = 0;
  const XTupleState* walk_state = at.state.data();
  const double* walk_q = at.q.data();
  // The writer steps l onto each touched x-tuple in turn. The reader's
  // starts in range and a failed read assigns nothing, so it indexes the
  // walk safely without testing the reader's status per entry.
  XTupleId l = C::kReads ? 0 : -1;
  for (size_t i = 0; i < entries.n; ++i) {
    const XTupleId last = l;
    XTupleState state = XTupleState::kInactive;
    double q = 0.0;
    if constexpr (!C::kReads) {
      do {
        ++l;
      } while (walk_state[l] == XTupleState::kInactive);
      state = walk_state[l];
      q = walk_q[l];
    }
    c.Zigzag(l, 0, static_cast<int64_t>(num_xtuples) - 1);
    // Only non-inactive x-tuples have an entry.
    c.U8(state, static_cast<uint8_t>(XTupleState::kActive),
         static_cast<uint8_t>(XTupleState::kSaturated));
    c.F64(q);
    if constexpr (C::kReads) {
      ascending = ascending && (i == 0 || l > last);
      active += state == XTupleState::kActive;
      saturated += state == XTupleState::kSaturated;
      same = same && state == walk_state[l] &&
             std::memcmp(&q, &walk_q[l], sizeof(double)) == 0;
    }
  }
  if constexpr (C::kReads) {
    c.Check(ascending, "checkpoint x-tuple entries not ascending");
    c.Check(active == cp.active && saturated == cp.saturated,
            "checkpoint active/saturated counts differ from its x-tuples");
    // A restored vector feeds every later position of a scan, which
    // clamps each exclusion at 0: a count is finite and never negative.
    // (Its sum may exceed 1 by the scan's rounding drift.)
    for (double count : cp.c) {
      c.Check(std::isfinite(count) && count >= 0.0,
              "checkpoint count vector entry is negative or not finite");
    }
    // Restores re-walk the masses (PsrEngine::RestoreInto), so a
    // checkpoint is sound only where it is the walk's state; the caller
    // reports a mismatch after its own checks.
    walk.same = same && cp.live == walk.live && cp.active == at.active &&
                cp.saturated == at.saturated &&
                entries.n == at.active + at.saturated;
  }
}

template <typename C>
bool SnapshotAccess::TransferScan(C& c,
                                  store::Io<C, PsrEngine::SessionState>& scan,
                                  const KLadder& ladder,
                                  const DatabaseOverlay& view,
                                  const psr_internal::ScanKernel* kernel,
                                  uint32_t version) {
  const size_t n = view.num_tuples();
  c.Size(scan.outputs_, ladder.size(), ladder.size());
  for (size_t j = 0; j < scan.outputs_.size(); ++j) {
    store::Transfer(c, scan.outputs_[j], n, version);
    c.Check(scan.outputs_[j].k == ladder[j],
            "rung k does not match the ladder");
  }
  c.Size(scan.checkpoints_);
  CheckpointWalk walk(view);
  for (size_t i = 0; i < scan.checkpoints_.size(); ++i) {
    auto& cp = scan.checkpoints_[i];
    Transfer(c, cp, n, walk);
    c.Check(i == 0 || cp.pos > scan.checkpoints_[i - 1].pos,
            "checkpoint positions not ascending");
  }
  c.Varint(scan.checkpoint_interval_, 1, SIZE_MAX);
  // The logical state above is the file's; the scratch that executes
  // future replays is the loader's. Every replay restores a checkpoint
  // first, which sizes and fills that scratch, so only its kernel is set
  // here.
  if constexpr (C::kReads) scan.core_.kernel = kernel;
  return walk.same;
}

template <typename C>
void SnapshotAccess::Transfer(C& c, store::Io<C, PsrEngine>& engine,
                              const ProbabilisticDatabase& db,
                              const psr_internal::ScanKernel* kernel,
                              uint32_t version) {
  c.Bool(engine.options_.early_termination);
  c.Bool(engine.options_.store_rank_probabilities);
  c.VarintArray(engine.ladder_.ks);
  if constexpr (C::kReads) {
    const Status valid = engine.ladder_.Validate();
    if (!valid.ok()) c.Fail("snapshot ladder invalid: " + valid.message());
  }
  const bool walked = TransferScan(c, engine.base_, engine.ladder_,
                                   DatabaseOverlay(&db), kernel, version);
  if constexpr (C::kReads) {
    // The base database has no dead slots, so every engine rank is live.
    // Session checkpoints run over an overlay and may lag.
    for (const auto& cp : engine.base_.checkpoints_) {
      c.Check(cp.live == cp.pos, "engine checkpoint live rank is not its pos");
    }
    c.Check(walked, kWalkMismatch);
  }
}

template <typename C>
void SnapshotAccess::Transfer(C& c, store::Io<C, SessionPool>& pool,
                              uint32_t version) {
  const ProbabilisticDatabase& db = *pool.base_;
  const PsrEngine& engine = pool.engine_;
  store::Transfer(c, pool.base_tps_, engine.outputs(), db, version);
  c.Size(pool.sessions_);
  size_t open_count = 0;
  for (auto& session : pool.sessions_) {
    c.Bool(session.open);
    if (!session.open) continue;
    ++open_count;
    // The overlay round-trips as its outcome list. The reader replays it
    // through the same public mutation the live session used, so every
    // derived index (tombstones, patches, divergence rank) is re-derived
    // instead of trusted from disk.
    std::vector<std::pair<XTupleId, TupleId>> outcomes;
    if constexpr (!C::kReads) outcomes = session.overlay.outcomes();
    c.Size(outcomes);
    for (auto& [xtuple, resolved_id] : outcomes) {
      c.Zigzag(xtuple, 0, static_cast<int64_t>(db.num_xtuples()) - 1);
      c.Zigzag(resolved_id);
    }
    if constexpr (C::kReads) {
      session.overlay = DatabaseOverlay(pool.base_.get());
      for (const auto& [xtuple, resolved_id] : outcomes) {
        if (!c.ok()) break;
        Result<DatabaseOverlay::CleanOutcomeDelta> delta =
            session.overlay.ApplyCleanOutcome(xtuple, resolved_id);
        if (!delta.ok()) {
          c.Fail("session outcome replay failed: " + delta.status().message());
        }
      }
    }
    // Pristine sessions (no outcomes) carry no state: their fork of the
    // base scan is bit-reproducible from the engine on load, so storing
    // it would only bloat the file -- the dominant cost for big pools.
    bool has_state = !outcomes.empty();
    c.Bool(has_state);
    c.Check(has_state == !outcomes.empty(),
            "session state presence inconsistent with its outcomes");
    if (has_state) {
      const bool walked =
          TransferScan(c, session.scan, engine.ladder_, session.overlay,
                       engine.base_.core_.kernel, version);
      c.Check(walked, kWalkMismatch);
      store::Transfer(c, session.tps, session.scan.outputs_, db, version);
    } else if constexpr (C::kReads) {
      pool.ForkBase(&session);
    }
  }
  c.VarintArray(pool.free_slots_);
  c.Varint(pool.num_open_);
  if constexpr (C::kReads) {
    std::vector<bool> freed(pool.sessions_.size(), false);
    for (size_t i = 0; c.ok() && i < pool.free_slots_.size(); ++i) {
      const size_t slot = pool.free_slots_[i];
      c.Check(slot < freed.size() && !pool.sessions_[slot].open && !freed[slot],
              "free-slot list inconsistent");
      if (c.ok()) freed[slot] = true;
    }
    c.Check(pool.num_open_ == open_count &&
                pool.free_slots_.size() == pool.sessions_.size() - open_count,
            "session accounting inconsistent");
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

  store::SnapshotMeta meta;
  meta.tool = "uclean";
  // The RESOLVED kernel the pool's scans actually ran on (never "auto"):
  // the provenance bench_* JSON and `snapshot inspect` report.
  meta.kernel = pool.engine_.base_.core_.kernel->name;
  meta.threads = pool.exec().num_threads;
  meta.num_xtuples = pool.base().num_xtuples();
  meta.num_tuples = pool.base().num_tuples();
  meta.num_sessions = pool.num_open();
  meta.ladder = pool.ladder().ks;
  store::SnapshotFileBuilder builder;
  builder.set_feature_flags(campaign != nullptr ? store::kFeatureCampaign
                                                : 0);
  store::BinWriter w;
  const auto add = [&](uint32_t id) {
    builder.AddSection(id, store::SectionVersion(id), w.Take());
  };
  store::Transfer(w, meta);
  add(store::kSectionMeta);
  Transfer(w, pool.base());
  add(store::kSectionDatabase);
  Transfer(w, pool.engine_, pool.base(), pool.engine_.base_.core_.kernel,
           store::kRungSectionVersion);
  add(store::kSectionEngine);
  Transfer(w, pool, store::kRungSectionVersion);
  add(store::kSectionSessions);
  if (campaign != nullptr) {
    store::Transfer(w, *campaign);
    add(store::kSectionCampaign);
  }
  *bytes = builder.Finish();
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
    if (entry->version > store::SectionVersion(id)) {
      return Status::DataLoss(
          "section '" + std::string(store::SectionName(id)) + "' version " +
          std::to_string(entry->version) +
          " is newer than this reader supports");
    }
  }
  const auto payload = [&file](uint32_t id) {
    return file->payload(*file->Find(id));
  };
  const auto version = [&file](uint32_t id) {
    return file->Find(id)->version;
  };

  store::SnapshotMeta meta;
  store::BinReader meta_reader(payload(store::kSectionMeta));
  store::Transfer(meta_reader, meta);
  UCLEAN_RETURN_IF_ERROR(meta_reader.ExpectEnd("meta section"));

  // The logical state is the file's; the EXECUTION of future scans is
  // the loader's, resolved as PsrEngine::Create resolves it.
  Result<ExecOptions> resolved = ResolveExec(options.exec);
  if (!resolved.ok()) return resolved.status();
  Result<const psr_internal::ScanKernel*> kernel =
      SelectScanKernel(resolved->kernel);
  if (!kernel.ok()) return kernel.status();

  SessionPool pool;
  pool.options_ = options;
  pool.options_.exec = std::move(resolved).value();
  pool.base_ = std::make_unique<ProbabilisticDatabase>();
  pool.engine_.exec_ = pool.options_.exec;
  store::BinReader db_reader(payload(store::kSectionDatabase));
  Transfer(db_reader, *pool.base_);
  UCLEAN_RETURN_IF_ERROR(db_reader.ExpectEnd("database section"));
  if (meta.num_tuples != pool.base_->num_tuples() ||
      meta.num_xtuples != pool.base_->num_xtuples()) {
    return Status::DataLoss("meta section disagrees with the database");
  }
  store::BinReader engine_reader(payload(store::kSectionEngine));
  Transfer(engine_reader, pool.engine_, *pool.base_, *kernel,
           version(store::kSectionEngine));
  UCLEAN_RETURN_IF_ERROR(engine_reader.ExpectEnd("engine section"));
  if (meta.ladder != pool.engine_.ladder().ks) {
    return Status::DataLoss("meta section disagrees with the engine ladder");
  }
  store::BinReader sessions_reader(payload(store::kSectionSessions));
  Transfer(sessions_reader, pool, version(store::kSectionSessions));
  UCLEAN_RETURN_IF_ERROR(sessions_reader.ExpectEnd("sessions section"));
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
    if (entry->version > store::SectionVersion(store::kSectionCampaign)) {
      return Status::DataLoss("campaign section is newer than this reader");
    }
    store::BinReader campaign_reader(file->payload(*entry));
    store::Transfer(campaign_reader, loaded.campaign);
    UCLEAN_RETURN_IF_ERROR(campaign_reader.ExpectEnd("campaign section"));
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

std::vector<size_t> SnapshotAccess::EngineCheckpointPositions(
    const SessionPool& pool) {
  return pool.engine_.base_.checkpoint_positions();
}

std::vector<size_t> SnapshotAccess::SessionCheckpointPositions(
    const SessionPool& pool, SessionPool::SessionId id) {
  return pool.Slot(id).scan.checkpoint_positions();
}

size_t SnapshotAccess::SessionCheckpointDoubles(const SessionPool& pool,
                                                SessionPool::SessionId id) {
  size_t doubles = 0;
  for (const PsrEngine::Checkpoint& cp : pool.Slot(id).scan.checkpoints_) {
    doubles += cp.c.capacity();
  }
  return doubles;
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
