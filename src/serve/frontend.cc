#include "serve/frontend.h"

#include <string>
#include <utility>

#include "clean/agent.h"
#include "common/check.h"
#include "quality/tp.h"

namespace uclean {
namespace serve {
namespace {

/// Golden-ratio stride keeps per-client seeds far apart for any base.
constexpr uint64_t kSeedStride = 0x9E3779B97F4A7C15ULL;

}  // namespace

Result<Frontend> Frontend::Create(SessionPool pool,
                                  std::optional<CleaningProfile> profile,
                                  const FrontendOptions& options) {
  if (options.max_batch < 1) {
    return Status::InvalidArgument("max_batch must be >= 1");
  }
  if (profile.has_value()) {
    UCLEAN_RETURN_IF_ERROR(profile->Validate(pool.base().num_xtuples()));
  }
  return Frontend(std::move(pool), std::move(profile), options);
}

uint64_t Frontend::ClientSeed(uint64_t seed, size_t client_index) {
  return seed ^ (kSeedStride * (static_cast<uint64_t>(client_index) + 1));
}

Frontend::ClientId Frontend::Connect() {
  const ClientId client = pool_.OpenSession();
  if (client >= rngs_.size()) rngs_.resize(client + 1);
  rngs_[client] =
      std::make_unique<Rng>(ClientSeed(options_.seed, num_connects_++));
  return client;
}

Status Frontend::Disconnect(ClientId client) {
  if (client >= rngs_.size() || rngs_[client] == nullptr) {
    return Status::InvalidArgument("no open client " + std::to_string(client));
  }
  UCLEAN_RETURN_IF_ERROR(pool_.Close(client));
  rngs_[client].reset();
  return Status::OK();
}

Rng& Frontend::ClientRng(ClientId client) const {
  UCLEAN_CHECK(client < rngs_.size() && rngs_[client] != nullptr);
  return *rngs_[client];
}

uint64_t Frontend::RngFingerprint(ClientId client) const {
  const std::string state = ClientRng(client).SaveState();
  return Fnv1a64(state.data(), state.size());
}

void Frontend::FillTopk(const PsrOutput& psr, Reply* reply) const {
  reply->num_nonzero = psr.num_nonzero;
  reply->scan_end = psr.scan_end;
  reply->fingerprint = HashDoubles(psr.topk_prob);
  reply->top_index = -1;
  reply->top_id = -1;
  reply->top_prob = 0.0;
  for (size_t i = 0; i < psr.topk_prob.size(); ++i) {
    if (psr.topk_prob[i] > reply->top_prob) {
      reply->top_prob = psr.topk_prob[i];
      reply->top_index = static_cast<int32_t>(i);
    }
  }
  if (reply->top_index >= 0) {
    reply->top_id = pool_.base().tuple(static_cast<size_t>(reply->top_index)).id;
  }
}

void Frontend::ExecuteScan(const Round& round,
                           const std::vector<size_t>& members,
                           std::vector<Reply>* replies) const {
  const ClientId client = round[members.front()].first;
  std::vector<size_t> ks;
  ks.reserve(members.size());
  for (size_t i : members) ks.push_back(round[i].second.k);
  const Result<KLadder> ladder = KLadder::Of(std::move(ks));
  UCLEAN_CHECK(ladder.ok());  // ks are validated, non-empty
  Result<ScanResult> scan = pool_.ScanLadder(client, *ladder);
  if (!scan.ok()) {
    for (size_t i : members) (*replies)[i].status = scan.status();
    return;
  }
  PlanRecord record;
  record.batch_size = members.size();
  record.threads = scan->threads;
  if (members.size() > 1) {
    record.executed = PlanKind::kLadderShared;
  } else if (record.threads > 1) {
    record.executed = PlanKind::kSharded;
  }
  // Top-k replies read their rungs first; the rungs quality requests
  // asked for then go, in ladder order, to one shared TP pass.
  std::vector<size_t> tp_slot(ladder->size(), KLadder::npos);
  for (size_t i : members) {
    const Request& query = round[i].second;
    Reply* reply = &(*replies)[i];
    reply->plan = record;
    const size_t rung = ladder->IndexOf(query.k);
    if (query.verb == Verb::kTopk) {
      FillTopk(scan->output(rung), reply);
    } else {
      tp_slot[rung] = 0;  // numbered below
    }
  }
  std::vector<PsrOutput> psrs;
  for (size_t rung = 0; rung < tp_slot.size(); ++rung) {
    if (tp_slot[rung] == KLadder::npos) continue;
    tp_slot[rung] = psrs.size();
    psrs.push_back(std::move(scan->outputs[rung]));
  }
  if (psrs.empty()) return;
  const Result<std::vector<TpOutput>> tps =
      Pristine(client) ? ComputeTpQualityLadder(pool_.base(), psrs)
                       : ComputeTpQualityLadder(pool_.overlay(client), psrs);
  for (size_t i : members) {
    const Request& query = round[i].second;
    if (query.verb == Verb::kTopk) continue;
    Reply* reply = &(*replies)[i];
    if (!tps.ok()) {
      reply->status = tps.status();
      continue;
    }
    reply->quality = (*tps)[tp_slot[ladder->IndexOf(query.k)]].quality;
  }
}

Reply Frontend::ExecuteClean(ClientId client, const Request& request) {
  Reply reply;
  reply.verb = Verb::kClean;
  reply.xtuple = request.xtuple;
  if (!profile_.has_value()) {
    reply.status = Status::FailedPrecondition(
        "clean: no cleaning profile loaded (serve --profile)");
    return reply;
  }
  const size_t num_xtuples = pool_.base().num_xtuples();
  if (static_cast<size_t>(request.xtuple) >= num_xtuples) {
    reply.status = Status::InvalidArgument(
        "clean: x-tuple " + std::to_string(request.xtuple) +
        " out of range (database has " + std::to_string(num_xtuples) + ")");
    return reply;
  }
  std::vector<int64_t> probes(num_xtuples, 0);
  probes[static_cast<size_t>(request.xtuple)] = 1;
  Result<ProbeDraws> draws = DrawProbes(pool_.overlay(client), *profile_,
                                        probes, &ClientRng(client));
  if (!draws.ok()) {
    reply.status = draws.status();
    return reply;
  }
  if (!draws->outcomes.empty()) {
    Status commit = CommitProbeDraws(&pool_, client, *draws);
    if (!commit.ok()) {
      reply.status = commit;
      return reply;
    }
    Status refresh = pool_.Refresh(client);
    if (!refresh.ok()) {
      reply.status = refresh;
      return reply;
    }
  }
  if (!draws->report.log.empty()) {
    const ProbeRecord& record = draws->report.log.front();
    reply.success = record.success;
    reply.resolved_id = record.resolved_id;
    reply.spent = record.spent;
  }
  reply.quality = pool_.quality(client, pool_.num_rungs() - 1);
  reply.rng_fingerprint = RngFingerprint(client);
  return reply;
}

Reply Frontend::ExecuteStats() const {
  Reply reply;
  reply.verb = Verb::kStats;
  reply.num_tuples = pool_.base().num_tuples();
  reply.open_sessions = pool_.num_open();
  reply.ladder = pool_.ladder().ToString();
  return reply;
}

Reply Frontend::Execute(ClientId client, const Request& request) {
  return ExecuteRound({{client, request}}).front();
}

std::vector<Reply> Frontend::ExecuteRound(const Round& round) {
  std::vector<Reply> replies(round.size());
  // The round's one shared scan: pristine views' requests off the ladder.
  std::vector<size_t> batch;
  for (size_t i = 0; i < round.size(); ++i) {
    const auto& [client, request] = round[i];
    (void)ClientRng(client);  // hard check: ids are owned capabilities
    Reply& reply = replies[i];
    if (request.verb == Verb::kStats) {
      reply = ExecuteStats();
      continue;
    }
    if (request.verb == Verb::kClean) {
      // Touches only this client's overlay; no other request of the
      // round reads it.
      reply = ExecuteClean(client, request);
      continue;
    }
    reply.verb = request.verb;
    reply.k = request.k;
    const size_t rung = pool_.ladder().IndexOf(request.k);
    if (rung != KLadder::npos) {
      reply.plan.executed = PlanKind::kReplay;
      if (request.verb == Verb::kTopk) {
        FillTopk(pool_.psr(client, rung), &reply);
      } else {
        reply.quality = pool_.quality(client, rung);
      }
    } else if (options_.batching && batch.size() < options_.max_batch &&
               Pristine(client)) {
      batch.push_back(i);
    } else {
      ExecuteScan(round, {i}, &replies);
    }
  }
  if (!batch.empty()) ExecuteScan(round, batch, &replies);
  return replies;
}

}  // namespace serve
}  // namespace uclean
