// Serving front-end: admission, batching and execution of top-k /
// quality / clean requests over one warm SessionPool.
//
// Every connected client owns one pooled cleaning session (its private
// copy-on-write view of the shared base) plus one seeded Rng for its
// probes. Requests execute in ADMISSION ROUNDS: the I/O loop
// (serve/server.h) hands ExecuteRound at most one request per client, in
// arrival order, and gets one reply per request back. Client state is
// pairwise disjoint (a clean touches only its own overlay; a query reads
// only its own view), so any interleaving of rounds produces results
// bitwise equal to running each client's stream alone through the
// one-shot APIs -- the determinism keystone tests/serve_test.cc holds
// across thread counts and batching modes.
//
// One serving rule. A top-k / quality request whose k is on the pool
// ladder replays the client's maintained rung: no scan. Any other k on a
// pristine view (no clean outcomes yet) joins the round's ONE shared
// scan, up to max_batch requests: their ks form an on-the-fly KLadder, a
// lone request is a one-rung ladder and same-k requests share a rung. A
// rung of a merged scan is bitwise the output of a dedicated single-k
// scan (the count-vector recurrence is k-independent and untruncated,
// emission latches per rung, the Lemma-2 stop fires per rung), so
// batching never changes an answer, only its latency. A request on a
// dirty view scans its own overlay alone.
//
// Scan width. The view's own rung at or above a scan's top k bounds its
// depth (scan_end ascends with k). A scan the rank layer says cannot
// shard at that depth (psr_internal::ScanDepthCanShard) runs at width 1;
// every other scan runs at the pool's exec, and the sharded driver
// decides whether to split. Each reply's PlanRecord says what ran.
//
// Threading: SERIALIZED CALLER, like the pool it drives. One I/O loop
// thread calls Connect/Disconnect/Execute*; hardware parallelism is
// applied THROUGH the pool's ExecOptions (sharded scans, fanned
// refreshes), never by calling the front-end concurrently.

#ifndef UCLEAN_SERVE_FRONTEND_H_
#define UCLEAN_SERVE_FRONTEND_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "clean/problem.h"
#include "clean/session_pool.h"
#include "common/rng.h"
#include "common/status.h"
#include "rank/psr.h"
#include "serve/protocol.h"

namespace uclean {
namespace serve {

struct FrontendOptions {
  /// Let a round's pristine-view requests off the pool ladder share one
  /// scan. Off = each scans alone (the bench's per-request baseline).
  /// Answers are identical either way.
  bool batching = true;

  /// Upper bound on requests sharing one merged scan.
  size_t max_batch = 64;

  /// Base seed of the per-client probe Rngs (ClientSeed below).
  uint64_t seed = 2026;
};

class Frontend {
 public:
  /// A client is its pooled session: the id is its SessionPool id.
  using ClientId = SessionPool::SessionId;

  /// Takes ownership of a warm pool (Create or OpenFromSnapshot).
  /// `profile` supplies probe costs/sc-probabilities for clean requests;
  /// without one every clean yields a kFailedPrecondition reply.
  static Result<Frontend> Create(SessionPool pool,
                                 std::optional<CleaningProfile> profile,
                                 const FrontendOptions& options);

  /// Per-client probe-stream seed: connection order fully determines
  /// every client's randomness (shared with the serial test oracle).
  static uint64_t ClientSeed(uint64_t seed, size_t client_index);

  /// Admits a client: opens a pooled session and seeds its Rng with
  /// ClientSeed(options.seed, <number of connects so far>).
  ClientId Connect();

  /// Closes a client's session. Fails on an id Connect did not hand out
  /// or that is already closed (a snapshot's own sessions included).
  Status Disconnect(ClientId client);

  using Round = std::vector<std::pair<ClientId, Request>>;

  /// Executes one admission round: at most one request per client (the
  /// caller's per-connection queues guarantee per-client order), replies
  /// in `round` order. Never fails as a whole -- per-request problems
  /// come back as error replies.
  std::vector<Reply> ExecuteRound(const Round& round);

  /// Single-request convenience (a round of one).
  Reply Execute(ClientId client, const Request& request);

  /// Fingerprint of the client's Rng state (Fnv1a64 over the engine's
  /// portable encoding): equal fingerprints = identical future streams.
  /// Requires an open id (hard check).
  uint64_t RngFingerprint(ClientId client) const;

  const SessionPool& pool() const { return pool_; }

 private:
  Frontend(SessionPool pool, std::optional<CleaningProfile> profile,
           FrontendOptions options)
      : pool_(std::move(pool)),
        profile_(std::move(profile)),
        options_(options) {}

  /// The client's probe Rng; hard check that Connect handed `client` out.
  Rng& ClientRng(ClientId client) const;

  /// No clean outcome has landed in the client's overlay: its view is
  /// the shared base.
  bool Pristine(ClientId client) const {
    return pool_.overlay(client).num_outcomes() == 0;
  }

  /// Runs ONE scan serving the queries round[i] for i in `members`, all
  /// over the view of round[members.front()]'s client, and fills their
  /// replies.
  void ExecuteScan(const Round& round, const std::vector<size_t>& members,
                   std::vector<Reply>* replies) const;

  Reply ExecuteClean(ClientId client, const Request& request);
  Reply ExecuteStats() const;

  void FillTopk(const PsrOutput& psr, Reply* reply) const;

  SessionPool pool_;
  std::optional<CleaningProfile> profile_;
  FrontendOptions options_;
  /// Probe Rng per pool session id, non-null exactly for the sessions
  /// Connect opened and Disconnect has not closed.
  std::vector<std::unique_ptr<Rng>> rngs_;
  size_t num_connects_ = 0;  ///< total ever, drives ClientSeed
};

}  // namespace serve
}  // namespace uclean

#endif  // UCLEAN_SERVE_FRONTEND_H_
