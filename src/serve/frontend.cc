#include "serve/frontend.h"

#include <algorithm>
#include <string>

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

Frontend::Frontend(SessionPool pool, std::optional<CleaningProfile> profile,
                   FrontendOptions options)
    : pool_(std::move(pool)),
      profile_(std::move(profile)),
      options_(options) {
  std::vector<const PsrOutput*> outputs;
  outputs.reserve(pool_.num_rungs());
  for (size_t j = 0; j < pool_.num_rungs(); ++j) {
    outputs.push_back(&pool_.base_psr(j));
  }
  depth_probe_ = ScanDepthProbe::FromOutputs(pool_.ladder(), outputs,
                                             pool_.base().num_tuples());
}

uint64_t Frontend::ClientSeed(uint64_t seed, size_t client_index) {
  return seed ^ (kSeedStride * (static_cast<uint64_t>(client_index) + 1));
}

Frontend::ClientId Frontend::Connect() {
  ClientId id = clients_.size();
  for (size_t i = 0; i < clients_.size(); ++i) {
    if (!clients_[i].open) {
      id = i;
      break;
    }
  }
  if (id == clients_.size()) clients_.emplace_back();
  Client& client = clients_[id];
  client.open = true;
  client.session = pool_.OpenSession();
  client.rng =
      std::make_unique<Rng>(ClientSeed(options_.seed, num_connects_++));
  client.dirty_view = false;
  ++num_open_;
  return id;
}

Status Frontend::Disconnect(ClientId client) {
  if (client >= clients_.size() || !clients_[client].open) {
    return Status::InvalidArgument("no open client " + std::to_string(client));
  }
  UCLEAN_RETURN_IF_ERROR(pool_.Close(clients_[client].session));
  clients_[client].open = false;
  clients_[client].rng.reset();
  --num_open_;
  return Status::OK();
}

const Frontend::Client& Frontend::Slot(ClientId client) const {
  UCLEAN_CHECK(client < clients_.size() && clients_[client].open);
  return clients_[client];
}

uint64_t Frontend::RngFingerprint(ClientId client) const {
  const std::string state = Slot(client).rng->SaveState();
  return Fnv1a64(state.data(), state.size());
}

CostInputs Frontend::InputsFor(size_t k, size_t rung_count) const {
  CostInputs inputs;
  inputs.num_tuples = pool_.base().num_tuples();
  inputs.scan_depth = depth_probe_.EstimateDepth(k);
  inputs.rung_count = rung_count;
  inputs.pool_occupancy = pool_.num_open();
  inputs.num_threads = pool_.exec().num_threads;
  inputs.replay_available = pool_.ladder().IndexOf(k) != KLadder::npos;
  return inputs;
}

Result<PlanRecord> Frontend::DecidePlan(const Request& request,
                                        size_t rung_count) {
  const CostInputs inputs = InputsFor(request.k, rung_count);
  PlanRecord record;
  std::optional<PlanKind> forced =
      request.plan.has_value() ? request.plan : options_.forced_plan;
  if (forced.has_value()) {
    record.forced = true;
    record.chosen = *forced;
    // Forced strategies must be mechanically executable; an impossible
    // pin is a structured error, not a silent fallback.
    if (*forced == PlanKind::kReplay && !inputs.replay_available) {
      return Status::FailedPrecondition(
          "plan=replay: k=" + std::to_string(request.k) +
          " is not on the warm ladder " + pool_.ladder().ToString());
    }
    if (*forced == PlanKind::kSharded && inputs.num_threads <= 1) {
      return Status::FailedPrecondition(
          "plan=shard: the pool is running single-threaded");
    }
  } else {
    record.chosen = options_.cost.Choose(inputs);
  }
  record.executed = record.chosen;
  record.estimate_ns = options_.cost.Estimate(record.chosen, inputs);
  return record;
}

void Frontend::FillTopk(const PsrOutput& psr, Reply* reply) const {
  reply->num_nonzero = psr.num_nonzero;
  reply->scan_end = psr.scan_end;
  reply->fingerprint = HashDoubles(psr.topk_prob);
  reply->top_index = -1;
  reply->top_id = -1;
  reply->top_prob = 0.0;
  // Every entry at or past scan_end is +0.0 (Lemma 2) and never beats
  // the strict compare, so the argmax stops there.
  for (size_t i = 0; i < psr.scan_end; ++i) {
    if (psr.topk_prob[i] > reply->top_prob) {
      reply->top_prob = psr.topk_prob[i];
      reply->top_index = static_cast<int32_t>(i);
    }
  }
  if (reply->top_index >= 0) {
    reply->top_id = pool_.base().tuple(static_cast<size_t>(reply->top_index)).id;
  }
}

void Frontend::ExecuteReplay(const Client& client, const Request& request,
                             PlanRecord record, Reply* reply) {
  const size_t rung = pool_.ladder().IndexOf(request.k);
  UCLEAN_CHECK(rung != KLadder::npos);
  record.threads = 1;
  reply->plan = record;
  if (request.verb == Verb::kTopk) {
    FillTopk(pool_.psr(client.session, rung), reply);
  } else {
    reply->quality = pool_.quality(client.session, rung);
  }
}

void Frontend::ExecuteSingle(const Client& client, const Request& request,
                             PlanRecord record, Reply* reply) {
  Result<ScanRequest> scan_request = ScanRequest::ForK(request.k);
  if (!scan_request.ok()) {
    reply->status = scan_request.status();
    return;
  }
  if (record.executed == PlanKind::kSharded ||
      record.executed == PlanKind::kLadderShared) {
    scan_request->exec = pool_.exec();
  } else {
    scan_request->exec.num_threads = 1;
    scan_request->exec.kernel = pool_.exec().kernel;
  }
  record.threads = scan_request->exec.num_threads;
  if (client.dirty_view) {
    scan_request->overlay = &pool_.overlay(client.session);
  }
  Result<ScanResult> scan = ComputePsrLadder(pool_.base(), *scan_request);
  if (!scan.ok()) {
    reply->status = scan.status();
    return;
  }
  reply->plan = record;
  if (request.verb == Verb::kTopk) {
    FillTopk(scan->output(), reply);
    return;
  }
  Result<TpOutput> tp =
      client.dirty_view
          ? ComputeTpQuality(pool_.overlay(client.session), scan->output())
          : ComputeTpQuality(pool_.base(), scan->output());
  if (!tp.ok()) {
    reply->status = tp.status();
    return;
  }
  reply->quality = tp->quality;
}

Reply Frontend::ExecuteClean(ClientId client_id, const Request& request) {
  Reply reply;
  reply.verb = Verb::kClean;
  reply.xtuple = request.xtuple;
  const Client& client = Slot(client_id);
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
  Result<ProbeDraws> draws = DrawProbes(pool_.overlay(client.session),
                                        *profile_, probes, client.rng.get());
  if (!draws.ok()) {
    reply.status = draws.status();
    return reply;
  }
  if (!draws->outcomes.empty()) {
    Status commit = CommitProbeDraws(&pool_, client.session, *draws);
    if (!commit.ok()) {
      reply.status = commit;
      return reply;
    }
    Status refresh = pool_.Refresh(client.session);
    if (!refresh.ok()) {
      reply.status = refresh;
      return reply;
    }
    clients_[client_id].dirty_view = true;
  }
  if (!draws->report.log.empty()) {
    const ProbeRecord& record = draws->report.log.front();
    reply.success = record.success;
    reply.resolved_id = record.resolved_id;
    reply.spent = record.spent;
  }
  reply.quality = pool_.quality(client.session, pool_.num_rungs() - 1);
  reply.rng_fingerprint = RngFingerprint(client_id);
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

std::vector<Reply> Frontend::ExecuteRound(
    const std::vector<std::pair<ClientId, Request>>& round) {
  std::vector<Reply> replies(round.size());
  std::vector<size_t> queries;
  queries.reserve(round.size());

  // Pass 1: immediate verbs (cleans mutate only the issuing client's
  // session, so executing them before the round's queries cannot change
  // any OTHER request's view; per-client order is the caller's queue).
  for (size_t i = 0; i < round.size(); ++i) {
    const auto& [client_id, request] = round[i];
    (void)Slot(client_id);  // hard check: ids are owned capabilities
    switch (request.verb) {
      case Verb::kStats:
        replies[i] = ExecuteStats();
        break;
      case Verb::kClean:
        replies[i] = ExecuteClean(client_id, request);
        break;
      case Verb::kTopk:
      case Verb::kQuality:
        replies[i].verb = request.verb;
        replies[i].k = request.k;
        queries.push_back(i);
        break;
    }
  }

  // Pass 2: batch candidacy. Compatible = same database view (pristine
  // session = the shared base) and not pinned away from ladder sharing.
  std::vector<char> candidate(round.size(), 0);
  std::vector<size_t> candidate_ks;
  if (options_.batching) {
    size_t admitted = 0;
    for (size_t i : queries) {
      const auto& [client_id, request] = round[i];
      if (admitted >= options_.max_batch) break;
      if (Slot(client_id).dirty_view) continue;
      std::optional<PlanKind> forced =
          request.plan.has_value() ? request.plan : options_.forced_plan;
      if (forced.has_value() && *forced != PlanKind::kLadderShared) continue;
      candidate[i] = 1;
      candidate_ks.push_back(request.k);
      ++admitted;
    }
  }
  std::sort(candidate_ks.begin(), candidate_ks.end());
  candidate_ks.erase(std::unique(candidate_ks.begin(), candidate_ks.end()),
                     candidate_ks.end());
  const size_t rung_count = std::max<size_t>(candidate_ks.size(), 1);

  // Pass 3: plan each query; ladder-chosen candidates pool into the
  // merged scan, everything else executes now.
  std::vector<size_t> batch;
  std::vector<PlanRecord> batch_records;
  for (size_t i : queries) {
    const auto& [client_id, request] = round[i];
    Result<PlanRecord> record =
        DecidePlan(request, candidate[i] != 0 ? rung_count : 1);
    if (!record.ok()) {
      replies[i].status = record.status();
      continue;
    }
    if (record->chosen == PlanKind::kLadderShared && candidate[i] != 0) {
      batch.push_back(i);
      batch_records.push_back(*record);
      continue;
    }
    const Client& client = Slot(client_id);
    if (record->chosen == PlanKind::kReplay) {
      ExecuteReplay(client, request, *record, &replies[i]);
    } else {
      ExecuteSingle(client, request, *record, &replies[i]);
    }
  }

  // Pass 4: the merged scan. A batch of one degrades to a per-request
  // scan (recorded: chosen=ladder, executed=seq/shard) -- the model
  // promised sharing the round did not deliver.
  if (batch.size() == 1) {
    const size_t i = batch.front();
    const auto& [client_id, request] = round[i];
    PlanRecord record = batch_records.front();
    const CostInputs inputs = InputsFor(request.k, 1);
    record.executed =
        options_.cost.Estimate(PlanKind::kSharded, inputs) <
                options_.cost.Estimate(PlanKind::kSequential, inputs)
            ? PlanKind::kSharded
            : PlanKind::kSequential;
    ExecuteSingle(Slot(client_id), request, record, &replies[i]);
  } else if (batch.size() > 1) {
    std::vector<size_t> ks;
    ks.reserve(batch.size());
    for (size_t i : batch) ks.push_back(round[i].second.k);
    Result<ScanRequest> scan_request = ScanRequest::ForLadder(std::move(ks));
    UCLEAN_CHECK(scan_request.ok());  // ks are validated, non-empty
    scan_request->exec = pool_.exec();
    Result<ScanResult> scan = ComputePsrLadder(pool_.base(), *scan_request);
    for (size_t b = 0; b < batch.size(); ++b) {
      const size_t i = batch[b];
      const auto& [client_id, request] = round[i];
      Reply* reply = &replies[i];
      if (!scan.ok()) {
        reply->status = scan.status();
        continue;
      }
      PlanRecord record = batch_records[b];
      record.executed = PlanKind::kLadderShared;
      record.batch_size = batch.size();
      record.threads = pool_.exec().num_threads;
      reply->plan = record;
      const size_t rung = scan_request->ladder.IndexOf(request.k);
      UCLEAN_CHECK(rung != KLadder::npos);
      const PsrOutput& psr = scan->output(rung);
      if (request.verb == Verb::kTopk) {
        FillTopk(psr, reply);
      } else {
        Result<TpOutput> tp = ComputeTpQuality(pool_.base(), psr);
        if (!tp.ok()) {
          reply->status = tp.status();
          continue;
        }
        reply->quality = tp->quality;
      }
    }
  }
  return replies;
}

}  // namespace serve
}  // namespace uclean
