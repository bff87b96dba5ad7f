// Snapshot store: versioned, checksummed binary persistence for a whole
// serving pool -- the warm-start tier.
//
// A SessionPool's startup cost is one full O(m * n) PSR scan plus a TP
// pass (SessionPool::Create). This store serializes everything that scan
// produced -- the base database, the engine's checkpointed scan state,
// the base TP ladder and every open session's private state -- so
// SessionPool::OpenFromSnapshot reconstructs a serving pool with ZERO
// scans and bitwise-identical behavior: same PSR outputs, same checkpoint
// positions, same per-session qualities, and (through the campaign
// section's Rng/FaultInjector states) the same randomness streams for a
// resumed cleaning campaign.
//
// FILE LAYOUT (all integers little-endian; store/binstream.h primitives):
//
//   offset 0   +----------------------------------------------+
//              | magic "UCLNSNAP"                     8 bytes |
//              | format_version                    u32        |
//              | feature_flags                     u32        |
//              | section_count                     u32        |
//              | table_offset                      u64        |
//              | header_crc (over the 28 bytes above)  u32    |
//   offset 32  +----------------------------------------------+
//              | section payloads, back to back               |
//              |   (order matches the section table)          |
//              +----------------------------------------------+
// table_offset | section table: section_count entries of      |
//              |   { id u32, version u32, offset u64,         |
//              |     size u64, crc u32 }            28 bytes  |
//              | table_crc (over all entry bytes)  u32        |
//              +----------------------------------------------+
//
// VERSIONING AND COMPATIBILITY RULES:
//  * format_version guards the CONTAINER (header/table shape). A reader
//    rejects any version it does not implement with Status::DataLoss --
//    never guesses.
//  * Each section carries its own version; a reader rejects section
//    versions above the one it implements (DataLoss), so sections evolve
//    independently of the container. Meta, database and campaign are at
//    version 1; engine and sessions, the sections that hold rungs, are at
//    version 2 and still load at version 1.
//  * UNKNOWN SECTION IDS ARE SKIPPED (their CRC is still verified): a
//    newer writer may append sections an older reader ignores.
//  * UNKNOWN FEATURE FLAGS ARE FATAL (DataLoss): a flag marks a semantic
//    the reader must understand to interpret the sections it does know.
//    Known flags: kFeatureCampaign (a campaign section is present).
//  * Every corruption -- bit flip (section, table or header CRC
//    mismatch), truncation at any boundary, malformed payload -- is
//    Status::DataLoss, which the CLI maps to its own exit code.
//
// RUNGS ON THE WIRE. By Lemma 2 a rung is +0.0 at and past its scan's
// stop, and memory holds only its live prefix [0, scan_end). Version 2
// writes exactly that: a PSR rung is k, scan_end, topk_prob[0, scan_end),
// num_nonzero, the per-rank argmaxes, the matrix flag and, when set,
// rank_prob[0, scan_end * k); a TP rung is quality, scan_end (its PSR
// rung's), omega[0, scan_end) and the per-x-tuple gains and masses. Each
// prefix carries its count, which the reader holds to scan_end before it
// allocates. Version 1 held n entries per vector (n * k for a matrix),
// zero-padded; its reader checks that tail is +0.0 bits and drops it.
//
// CHECKPOINTS ON THE WIRE. A checkpoint is pos, live, its count vector,
// its active and saturated counts, then one entry (id, state, q) per
// x-tuple the scan has touched, ascending. Memory holds no such entries
// (PsrEngine::RestoreInto re-walks the masses), so they exist only on
// the wire: the writer emits them from one mass walk over the list's
// view -- the base for the engine's list, the session's overlay for a
// session's -- and the reader checks each one against its own walk as
// it decodes, bitwise, and keeps none.
//
// WHAT IS CAPTURED: the base ProbabilisticDatabase (tuples, members,
// masses; format v1's tombstone field is always written empty), the
// PsrEngine's logical state (ladder, PSR options, outputs, checkpoint
// list, cadence), the base TP ladder, each session slot (overlay
// outcomes + SessionState + TP state; pristine sessions are re-forked on
// load instead of stored), the free list, and optionally a
// CampaignSnapshot (budgets, progress, probe logs, Rng + FaultInjector
// states). WHAT IS NOT: runtime execution
// knobs -- thread count, shared pool, kernel choice are the LOADER's
// (SessionPool::Options::exec), because the machine opening a snapshot
// need not be the machine that wrote it; the writer's resolved kernel
// and thread count are recorded in the meta section for provenance only.
//
// Writers require every open session to be refreshed (not dirty):
// a dirty session's maintained state is stale by contract, and
// persisting it would freeze the staleness. WriteSnapshot fails with
// FailedPrecondition instead.

#ifndef UCLEAN_STORE_SNAPSHOT_H_
#define UCLEAN_STORE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "clean/agent.h"
#include "clean/fault.h"
#include "clean/session_pool.h"
#include "common/status.h"
#include "store/binstream.h"

namespace uclean {
namespace store {

// ---------------------------------------------------------------------------
// Container layer: header, section table, whole-file assembly/verification.
// ---------------------------------------------------------------------------

inline constexpr char kSnapshotMagic[8] = {'U', 'C', 'L', 'N',
                                           'S', 'N', 'A', 'P'};
inline constexpr uint32_t kSnapshotFormatVersion = 1;
inline constexpr size_t kSnapshotHeaderSize = 32;
inline constexpr size_t kSectionEntrySize = 28;

/// Feature flags (header): semantics a reader MUST understand. Unknown
/// bits are fatal, unlike unknown sections.
inline constexpr uint32_t kFeatureCampaign = 0x1;
inline constexpr uint32_t kKnownFeatureFlags = kFeatureCampaign;

/// Section ids. Meta, database, engine and sessions are required in
/// every pool snapshot; campaign is optional (kFeatureCampaign).
inline constexpr uint32_t kSectionMeta = 1;
inline constexpr uint32_t kSectionDatabase = 2;
inline constexpr uint32_t kSectionEngine = 3;
inline constexpr uint32_t kSectionSessions = 4;
inline constexpr uint32_t kSectionCampaign = 5;

/// The version the writer gives a section and the newest the reader
/// implements (see VERSIONING above): engine and sessions are at
/// kRungSectionVersion, the other sections at kSectionVersion.
inline constexpr uint32_t kSectionVersion = 1;
inline constexpr uint32_t kRungSectionVersion = 2;

/// kRungSectionVersion for engine and sessions, else kSectionVersion.
uint32_t SectionVersion(uint32_t id);

/// "meta" / "database" / ... / "unknown" for display (inspect CLI).
const char* SectionName(uint32_t id);

/// One section-table entry: where a section's payload lives and its CRC.
/// Offsets/sizes are u64 by design -- snapshots of large pools can pass
/// 4 GiB, and the table arithmetic must not wrap (store_test exercises
/// >4 GiB offsets on synthetic tables).
struct SectionEntry {
  uint32_t id = 0;
  uint32_t version = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t crc = 0;
};

/// The 28-byte wire form of `entry` on either codec side (fixed-width,
/// little-endian -- the table must be seekable, so no varints here).
template <typename Codec>
void Transfer(Codec& c, Io<Codec, SectionEntry>& entry) {
  c.U32(entry.id);
  c.U32(entry.version);
  c.U64(entry.offset);
  c.U64(entry.size);
  c.U32(entry.crc);
}

/// Assembles a snapshot container from raw section payloads. The
/// production writer uses it for real sections; tests use it to craft
/// files with unknown sections, future versions or arbitrary payloads.
class SnapshotFileBuilder {
 public:
  void set_format_version(uint32_t version) { format_version_ = version; }
  void set_feature_flags(uint32_t flags) { feature_flags_ = flags; }

  /// Appends a section; payload order in the file follows call order.
  void AddSection(uint32_t id, uint32_t version, std::string payload);

  /// The complete file image (header + payloads + table, all CRCs
  /// computed).
  std::string Finish() const;

 private:
  struct PendingSection {
    uint32_t id = 0;
    uint32_t version = 0;
    std::string payload;
  };

  uint32_t format_version_ = kSnapshotFormatVersion;
  uint32_t feature_flags_ = 0;
  std::vector<PendingSection> sections_;
};

/// A parsed-and-verified snapshot container: Parse checks the magic,
/// format version, header CRC, table CRC and EVERY section's CRC and
/// bounds (including unknown sections -- skipping is a format decision,
/// integrity is not). Section payloads are views into the owned file
/// image.
class SnapshotFile {
 public:
  static Result<SnapshotFile> Parse(std::string bytes);

  uint32_t format_version() const { return format_version_; }
  uint32_t feature_flags() const { return feature_flags_; }
  size_t file_size() const { return bytes_.size(); }

  /// Entries in file order (unknown ids included).
  const std::vector<SectionEntry>& sections() const { return sections_; }

  /// The first entry with the given id, or null.
  const SectionEntry* Find(uint32_t id) const;

  /// The payload bytes of `entry` (must be one of sections()).
  std::string_view payload(const SectionEntry& entry) const {
    return std::string_view(bytes_).substr(entry.offset, entry.size);
  }

 private:
  SnapshotFile() = default;

  std::string bytes_;
  uint32_t format_version_ = 0;
  uint32_t feature_flags_ = 0;
  std::vector<SectionEntry> sections_;
};

// ---------------------------------------------------------------------------
// Pool snapshot layer: what WriteSnapshot/ReadSnapshot move in and out.
// ---------------------------------------------------------------------------

/// Provenance + shape summary (the meta section): what wrote the file
/// and what is inside, without deserializing the heavy sections.
/// `kernel`/`threads` record the writer's RESOLVED execution mode (the
/// concrete kernel its scans ran on, never "auto") -- provenance for
/// benchmark JSON and inspect output; the loader picks its own.
struct SnapshotMeta {
  std::string tool;
  std::string kernel;
  uint64_t threads = 1;
  uint64_t num_xtuples = 0;
  uint64_t num_tuples = 0;
  uint64_t num_sessions = 0;
  std::vector<size_t> ladder;
};

/// One session's mid-campaign progress: everything the adaptive loop
/// accumulated for it plus the draw-state (Rng, optional FaultInjector)
/// a resumed run continues from. `session_id` is the pool SessionId the
/// state belongs to.
struct CampaignSessionSnapshot {
  uint64_t session_id = 0;
  int64_t spent = 0;
  int64_t leftover = 0;
  uint64_t successes = 0;
  uint64_t rounds = 0;
  std::vector<ProbeRecord> log;
  FaultStats faults;
  std::string rng_state;  ///< Rng::SaveState of the session's probe stream
  bool has_injector = false;
  FaultInjectorState injector;  ///< meaningful iff has_injector
};

/// A paused adaptive campaign over the pool's sessions (the optional
/// campaign section; kFeatureCampaign). Resume by restoring each
/// session's Rng/injector, then RunPipelinedCleaning with
/// PipelineOptions::spent_so_far -- for deterministic planners the
/// finished campaign is bitwise the uninterrupted one.
struct CampaignSnapshot {
  int64_t budget = 0;
  std::vector<CampaignSessionSnapshot> sessions;
};

/// Serializes `pool` (and optionally a campaign) to `path`. Fails with
/// FailedPrecondition when any open session is dirty, IOError when the
/// file cannot be written. The bytes go to `<path>.tmp`, renamed over
/// `path` only once written and flushed, so a failed save leaves any
/// earlier file at `path` as it was and no temp file behind.
Status WriteSnapshot(const SessionPool& pool, const std::string& path,
                     const CampaignSnapshot* campaign = nullptr);

/// What ReadSnapshot hands back: the reconstructed pool plus the
/// sidecar data the pool itself does not hold.
struct LoadedSnapshot {
  explicit LoadedSnapshot(SessionPool p) : pool(std::move(p)) {}

  SessionPool pool;
  SnapshotMeta meta;
  bool has_campaign = false;
  CampaignSnapshot campaign;
};

/// Reads and fully reconstructs a snapshot. `options` supplies the
/// loader's runtime knobs (execution mode, future-session checkpoint
/// cadence); all logical state comes from the file. DataLoss on any
/// corruption/version problem, IOError when the file cannot be read.
Result<LoadedSnapshot> ReadSnapshot(const std::string& path,
                                    const SessionPool::Options& options = {});

/// One row of `snapshot inspect`: a section-table entry plus its
/// display name.
struct SectionInfo {
  uint32_t id = 0;
  uint32_t version = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t crc = 0;
  std::string name;
};

/// Container-level report of a snapshot file (every CRC verified, no
/// pool reconstruction). `meta` is filled when a meta section is present
/// and decodes.
struct SnapshotInfo {
  uint32_t format_version = 0;
  uint32_t feature_flags = 0;
  uint64_t file_size = 0;
  std::vector<SectionInfo> sections;
  bool has_meta = false;
  SnapshotMeta meta;
};

/// Verifies the container (header, table, all section CRCs) and returns
/// the section table; DataLoss on any integrity/version failure.
Result<SnapshotInfo> InspectSnapshot(const std::string& path);

}  // namespace store

// ---------------------------------------------------------------------------
// SnapshotAccess: the one befriended doorway into the private state the
// snapshot moves (ProbabilisticDatabase, PsrEngine + SessionState,
// SessionPool). Everything here is static; the class exists so the
// granting headers need exactly one friend line each.
// ---------------------------------------------------------------------------

class SnapshotAccess {
 public:
  /// Serializes the pool (+ optional campaign) into a complete snapshot
  /// file image. The in-memory half of WriteSnapshot; tests use it to
  /// corrupt images byte-by-byte without touching the filesystem.
  static Status Serialize(const SessionPool& pool,
                          const store::CampaignSnapshot* campaign,
                          std::string* bytes);

  /// Reconstructs a pool (+ sidecar meta/campaign) from a file image.
  /// The in-memory half of ReadSnapshot.
  static Result<store::LoadedSnapshot> Deserialize(
      std::string bytes, const SessionPool::Options& options);

  // ----- introspection the pool's public surface does not expose,
  //       for the bitwise round-trip asserts in tests and bench -----

  /// The shared engine's checkpoint ranks, ascending.
  static std::vector<size_t> EngineCheckpointPositions(
      const SessionPool& pool);

  /// Session `id`'s private post-divergence checkpoint ranks, ascending.
  static std::vector<size_t> SessionCheckpointPositions(
      const SessionPool& pool, SessionPool::SessionId id);

  /// The doubles session `id`'s private checkpoint list has allocated:
  /// its count vectors' capacities, since a checkpoint keeps no
  /// per-x-tuple state.
  static size_t SessionCheckpointDoubles(const SessionPool& pool,
                                         SessionPool::SessionId id);

 private:
  // The section codec (store/snapshot.cc): one Transfer per private-state
  // type, run over a store::BinWriter to write and a store::BinReader to
  // read (see store/binstream.h). Friendship covers naming the granting
  // classes' private nested types in these declarations.
  template <typename C>
  static void Transfer(C& c, store::Io<C, ProbabilisticDatabase>& db);
  /// One mass walk from rank 0 over the view a checkpoint list is valid
  /// for: a checkpoint's x-tuple entries are its state at the
  /// checkpoint's position.
  struct CheckpointWalk;
  /// A checkpoint: its count vector and counts from memory, its x-tuple
  /// entries from `walk`, advanced to its position.
  template <typename C>
  static void Transfer(C& c, store::Io<C, PsrEngine::Checkpoint>& cp,
                       size_t num_tuples, CheckpointWalk& walk);
  /// The scan state an engine's base and every session hold alike --
  /// per-rung outputs, checkpoints, cadence -- over `view`, the base or
  /// the session's (replayed) overlay, in a section of `version`; the
  /// reader sets its scratch's kernel to `kernel`. Returns false when the
  /// reader found a checkpoint that one mass walk of `view` does not
  /// reproduce -- live rank, active and saturated counts, each x-tuple's
  /// state and q, bitwise -- which the caller reports after its own
  /// checks: scans restore checkpoints by that walk
  /// (PsrEngine::RestoreInto).
  template <typename C>
  static bool TransferScan(C& c, store::Io<C, PsrEngine::SessionState>& scan,
                           const KLadder& ladder, const DatabaseOverlay& view,
                           const psr_internal::ScanKernel* kernel,
                           uint32_t version);
  template <typename C>
  static void Transfer(C& c, store::Io<C, PsrEngine>& engine,
                       const ProbabilisticDatabase& db,
                       const psr_internal::ScanKernel* kernel,
                       uint32_t version);
  /// The sessions section: base TP ladder, slot table, free list.
  template <typename C>
  static void Transfer(C& c, store::Io<C, SessionPool>& pool,
                       uint32_t version);
};

}  // namespace uclean

#endif  // UCLEAN_STORE_SNAPSHOT_H_
