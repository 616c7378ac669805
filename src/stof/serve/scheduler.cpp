#include "stof/serve/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "stof/telemetry/telemetry.hpp"

namespace stof::serve {

StepPlan Scheduler::plan_step(SessionTable& table, KvPool& pool) {
  if (config_.mode == SchedulerMode::kSerial) {
    return plan_serial(table, pool);
  }
  return config_.chunk_tokens > 0 ? plan_chunked(table, pool)
                                  : plan_continuous(table, pool);
}

std::vector<SessionId> Scheduler::decoders_lru(const SessionTable& table) {
  std::vector<SessionId> decoding = table.ids_in_phase(SessionPhase::kDecoding);
  std::stable_sort(decoding.begin(), decoding.end(),
                   [&](SessionId a, SessionId b) {
                     return table.at(a).last_touch_step <
                            table.at(b).last_touch_step;
                   });
  return decoding;
}

std::vector<SessionId> Scheduler::decode_batch(
    std::vector<SessionId> decoders) const {
  decoders.resize(std::min<std::size_t>(
      decoders.size(), static_cast<std::size_t>(config_.max_decode_batch)));
  return decoders;
}

std::int64_t Scheduler::decode_blocks_needed(
    const KvPool& pool, const std::vector<SessionId>& selected) const {
  // Fresh tail pages plus a possible CoW copy of a shared partial tail.
  std::int64_t n = 0;
  for (const auto id : selected) {
    n += pool.append_reserve_blocks(id, decode_appends_);
  }
  return n;
}

SessionId Scheduler::pick_victim(const SessionTable& table,
                                 const std::vector<SessionId>& candidates) {
  STOF_EXPECTS(!candidates.empty(), "no preemption candidate");
  SessionId best = candidates.front();
  for (const auto id : candidates) {
    const auto& s = table.at(id);
    const auto& b = table.at(best);
    if (s.request.priority != b.request.priority) {
      if (s.request.priority < b.request.priority) best = id;
      continue;
    }
    if (s.last_touch_step < b.last_touch_step ||
        (s.last_touch_step == b.last_touch_step && id > best)) {
      best = id;
    }
  }
  return best;
}

void Scheduler::evict(SessionTable& table, KvPool& pool, StepPlan& plan,
                      SessionId victim) {
  Session& s = table.at(victim);
  telemetry::count("serve.kv.evictions");
  // Cost model: only private (refcount == 1) pages actually return to the
  // free list — shared prefix pages stay resident for their other owners,
  // so crediting blocks() would over-value evicting a prefix-sharing
  // session.
  telemetry::count("serve.kv.evicted_blocks", pool.private_blocks(victim));
  telemetry::count("serve.sched.preemptions_by_priority.p" +
                   std::to_string(s.request.priority));
  pool.release(victim);
  s.phase = SessionPhase::kQueued;
  s.cached_tokens = 0;
  s.adopted_tokens = 0;
  ++s.preemptions;
  waiting_.push_front(victim);
  plan.evicted.push_back(victim);
  std::erase(chunking_, victim);
  // A victim may already hold a chunk grant in this step's plan (priority
  // preemption runs after ongoing chunks were assigned); withdraw it.
  std::erase_if(plan.chunks,
                [&](const PrefillChunk& c) { return c.id == victim; });
}

std::int64_t Scheduler::adopt_cap(const Session& s) const {
  // A re-admitted session's digest already covers [0, prompt_digested):
  // adopting past that mark would skip folding positions the digest still
  // owes, so the cap is the digested count; a fresh session may adopt its
  // whole template (its digest chain then starts from the template's
  // recorded value).
  return s.prompt_digested_tokens > 0 ? s.prompt_digested_tokens
                                      : s.request.template_len;
}

PrefixMatch Scheduler::admission_match(const KvPool& pool,
                                       const Session& s) const {
  if (!config_.prefix_sharing || s.request.template_len <= 0) return {};
  return pool.match_prefix(s.request, adopt_cap(s));
}

void Scheduler::admit_with_prefix(Session& s, KvPool& pool) const {
  if (!config_.prefix_sharing || s.request.template_len <= 0) return;
  const PrefixMatch m =
      pool.adopt_prefix(s.request.id, s.request, adopt_cap(s));
  if (m.tokens == 0) return;
  s.cached_tokens = m.tokens;
  s.adopted_tokens = m.tokens;
  if (s.prompt_digested_tokens == 0) {
    // Fresh session: outputs for the adopted positions are the template's
    // (byte-identical across owners) and never fold for this session.
    s.prompt_digested_tokens = m.tokens;
  }
}

std::vector<SessionId> Scheduler::admission_order(
    const SessionTable& table) const {
  std::vector<SessionId> order(waiting_.begin(), waiting_.end());
  std::stable_sort(
      order.begin(), order.end(), [&](SessionId a, SessionId b) {
        const auto& ra = table.at(a).request;
        const auto& rb = table.at(b).request;
        if (ra.priority != rb.priority) return ra.priority > rb.priority;
        constexpr double kNone = std::numeric_limits<double>::infinity();
        const double da = ra.deadline_us > 0 ? ra.deadline_us : kNone;
        const double db = rb.deadline_us > 0 ? rb.deadline_us : kNone;
        return da < db;  // stable sort keeps queue order inside ties
      });
  return order;
}

StepPlan Scheduler::plan_continuous(SessionTable& table, KvPool& pool) {
  StepPlan plan;
  std::vector<SessionId> decoding = decoders_lru(table);
  std::vector<SessionId> selected = decode_batch(decoding);

  // KV pressure: reserve every allocation the selected decoders' appends
  // will make this step.  Tree-only pages count as obtainable (acquire
  // reclaims them LRU-first), so the comparison is against allocatable,
  // not free.  Preempt lowest-priority-idlest sessions until the pool can
  // back them all; a victim re-queues at the *front* (it keeps its FIFO
  // seniority) and re-prefills its full context on re-admission.
  while (pool.allocatable_blocks() < decode_blocks_needed(pool, selected) &&
         !decoding.empty()) {
    const SessionId victim = pick_victim(table, decoding);
    evict(table, pool, plan, victim);
    std::erase(decoding, victim);
    std::erase(selected, victim);
  }
  std::sort(selected.begin(), selected.end());

  // Admission: strict FIFO from the wait queue, bounded by the per-step
  // prefill count/token budgets and by whole-context KV reservations on
  // top of the blocks the decode set will consume.  Head-of-line blocking
  // is intentional — skipping ahead would reorder first-token latencies.
  // A prefix match discounts both the reservation (the matched full pages
  // are already resident) and the token budget (only the suffix is
  // prefilled); matched pages that were tree-only stop being reclaimable
  // once adopted, so the availability estimate subtracts the whole match —
  // conservative, never over-admitting.
  std::int64_t reserved = decode_blocks_needed(pool, selected);
  std::int64_t admitted_tokens = 0;
  while (!waiting_.empty() &&
         static_cast<std::int64_t>(plan.prefills.size()) <
             config_.max_prefills_per_step) {
    const SessionId id = waiting_.front();
    Session& s = table.at(id);
    const PrefixMatch m = admission_match(pool, s);
    const std::int64_t need = pool.blocks_for(s.total_len()) - m.full_pages;
    const std::int64_t prefill_tokens = s.total_len() - m.tokens;
    const std::int64_t avail =
        pool.free_blocks() +
        std::max<std::int64_t>(0, pool.reclaimable_blocks() - m.pages());
    if (admitted_tokens + prefill_tokens > config_.prefill_token_budget) break;
    if (need > avail - reserved) break;
    waiting_.pop_front();
    admit_with_prefix(s, pool);
    plan.prefills.push_back(id);
    reserved += need;
    admitted_tokens += prefill_tokens;
  }
  plan.decodes = std::move(selected);
  return plan;
}

StepPlan Scheduler::plan_chunked(SessionTable& table, KvPool& pool) {
  StepPlan plan;

  // Sessions whose prefix completed moved to kDecoding; evicted ones went
  // back to kQueued.  Either way they leave the chunking line.
  std::erase_if(chunking_, [&](SessionId id) {
    return table.at(id).phase != SessionPhase::kPrefilling;
  });

  std::vector<SessionId> selected = decode_batch(decoders_lru(table));

  // Anyone holding KV blocks — decoders and mid-prefill sessions alike —
  // is a preemption candidate.
  const auto residents = [&] {
    std::vector<SessionId> r;
    for (const auto& [id, s] : table) {
      if ((s.phase == SessionPhase::kDecoding ||
           s.phase == SessionPhase::kPrefilling) &&
          pool.blocks(id) > 0) {
        r.push_back(id);
      }
    }
    return r;
  };

  std::int64_t budget = config_.chunk_tokens;
  std::int64_t reserved_chunks = 0;
  const std::int64_t block_tokens = pool.config().block_tokens;

  // Evicting a victim whose chunk was already granted this step withdraws
  // the chunk (evict() erases it from the plan); the withdrawn tokens go
  // back into the step budget and the withdrawn blocks back into the
  // reservation count, so later grants can use the headroom the victim
  // gave up.  Must read pool.usable_blocks(victim) before evict() releases
  // them (usable, matching what the grant charged: a shared partial tail
  // never counted as a block the chunk could reuse).
  const auto evict_refunded = [&](SessionId victim) {
    for (const auto& c : plan.chunks) {
      if (c.id == victim) {
        budget += c.tokens();
        reserved_chunks -= pool.blocks_for(c.end) - pool.usable_blocks(victim);
        break;
      }
    }
    evict(table, pool, plan, victim);
  };

  // KV pressure from the decode batch (against allocatable: tree-only
  // pages are reclaimed by allocation before anyone is preempted).
  while (pool.allocatable_blocks() < decode_blocks_needed(pool, selected)) {
    const auto cands = residents();
    if (cands.empty()) break;
    const SessionId victim = pick_victim(table, cands);
    evict_refunded(victim);
    std::erase(selected, victim);
  }

  // Grant one chunk of up to `budget` tokens, shrunk to the KV blocks
  // available this step; a starved chunk may preempt strictly-lower-
  // priority residents to free one.  Returns true if any tokens were
  // granted.
  const auto assign_chunk = [&](SessionId id) {
    Session& s = table.at(id);
    // A grant for an earlier (higher-priority) session may have preempted
    // this one — mid-prefill residents are victims — sending it back to
    // the wait queue with its KV released.  Granting anyway would hand
    // blocks to a kQueued session that is also in plan.evicted, leaking
    // KV outside residents()/preemption.  Skip anything not mid-prefill.
    if (s.phase != SessionPhase::kPrefilling) return false;
    const std::int64_t have = s.cached_tokens;
    const std::int64_t want = std::min(s.total_len() - have, budget);
    if (want <= 0) return false;
    const auto granted_now = [&] {
      const std::int64_t avail =
          pool.allocatable_blocks() - decode_blocks_needed(pool, selected) -
          reserved_chunks;
      // usable, not blocks: a shared partial tail is CoW'd by the first
      // append, so it does not save an allocation.
      const std::int64_t cap =
          (pool.usable_blocks(id) + avail) * block_tokens - have;
      return std::min(want, cap);
    };
    std::int64_t granted = granted_now();
    while (granted <= 0) {
      std::vector<SessionId> cands;
      for (const auto cand : residents()) {
        if (cand != id &&
            table.at(cand).request.priority < s.request.priority) {
          cands.push_back(cand);
        }
      }
      if (cands.empty()) break;
      const SessionId victim = pick_victim(table, cands);
      evict_refunded(victim);
      std::erase(selected, victim);
      granted = granted_now();
    }
    if (granted <= 0) return false;
    plan.chunks.push_back(PrefillChunk{id, have, have + granted});
    budget -= granted;
    reserved_chunks +=
        pool.blocks_for(have + granted) - pool.usable_blocks(id);
    return true;
  };

  // Ongoing prefills continue first, in admission order.
  for (const auto id : std::vector<SessionId>(chunking_.begin(),
                                              chunking_.end())) {
    if (budget <= 0) break;
    assign_chunk(id);
  }

  // Fairness top-up: each tenant with queued work earns quantum * weight
  // tokens per planning step, capped so an idle tenant cannot bank
  // unbounded credit.
  const bool fair = config_.fairness_quantum_tokens > 0;
  if (fair && !waiting_.empty()) {
    const std::int64_t pool_tokens = pool.total_blocks() * block_tokens;
    std::map<std::int32_t, bool> active;
    for (const auto id : waiting_) active[table.at(id).request.tenant] = true;
    for (const auto& [tenant, _] : active) {
      const std::int64_t w = tenant_weight(tenant);
      const std::int64_t cap =
          std::max(4 * config_.fairness_quantum_tokens * w, pool_tokens);
      deficit_[tenant] = std::min(
          deficit_[tenant] + config_.fairness_quantum_tokens * w, cap);
    }
  }

  // Admission: priority-then-deadline-then-FIFO order, bounded by the
  // in-flight prefill cap.  A tenant whose deficit cannot cover the
  // session's target length waits (others may pass — its credit grows
  // every step, so the wait is bounded); if the ordered head cannot get
  // its first chunk's KV, nobody overtakes it on KV grounds.
  const auto order = admission_order(table);
  for (const auto id : order) {
    if (budget <= 0) break;
    if (static_cast<std::int64_t>(chunking_.size()) >=
        config_.max_prefills_per_step) {
      break;
    }
    Session& s = table.at(id);
    if (fair && !s.deficit_charged &&
        deficit_[s.request.tenant] < s.request.target_len()) {
      telemetry::count("serve.sched.deficit_deferrals");
      continue;
    }
    const PrefixMatch m = admission_match(pool, s);
    const auto chunk_avail = [&] {
      // Adopting the match turns its tree-only pages non-reclaimable, so
      // subtract the whole match from the headroom estimate (conservative).
      return pool.allocatable_blocks() - m.pages() -
             decode_blocks_needed(pool, selected) - reserved_chunks;
    };
    const std::int64_t first_need =
        pool.blocks_for(std::min(m.tokens + budget, s.total_len())) -
        m.full_pages;
    // A blocked high-priority arrival may preempt strictly-lower-priority
    // residents for its first chunk's blocks.
    while (first_need > chunk_avail()) {
      std::vector<SessionId> cands;
      for (const auto cand : residents()) {
        if (table.at(cand).request.priority < s.request.priority) {
          cands.push_back(cand);
        }
      }
      if (cands.empty()) break;
      const SessionId victim = pick_victim(table, cands);
      evict_refunded(victim);
      std::erase(selected, victim);
    }
    if (first_need > chunk_avail()) break;
    std::erase(waiting_, id);
    s.phase = SessionPhase::kPrefilling;
    chunking_.push_back(id);
    admit_with_prefix(s, pool);
    if (fair && !s.deficit_charged) {
      deficit_[s.request.tenant] -= s.request.target_len();
      s.deficit_charged = true;
    }
    assign_chunk(id);
  }

  // Work conservation: the engine must never idle while work is queued.
  if (plan.prefills.empty() && plan.chunks.empty() && plan.decodes.empty() &&
      selected.empty()) {
    if (!chunking_.empty()) {
      // Every free block is held by other residents; force-evict
      // (ignoring priority) until the line's head can take one token.
      const SessionId head = chunking_.front();
      while (!assign_chunk(head)) {
        std::vector<SessionId> cands;
        for (const auto cand : residents()) {
          if (cand != head) cands.push_back(cand);
        }
        if (cands.empty()) break;
        evict_refunded(pick_victim(table, cands));
      }
    } else if (!waiting_.empty()) {
      // Everyone was deficit-gated: force-admit the ordered head anyway
      // (the charge still applies, so its tenant repays over time).
      for (const auto id : order) {
        if (table.at(id).phase != SessionPhase::kQueued) continue;
        Session& s = table.at(id);
        std::erase(waiting_, id);
        s.phase = SessionPhase::kPrefilling;
        chunking_.push_back(id);
        admit_with_prefix(s, pool);
        if (fair) {
          telemetry::count("serve.sched.forced_admissions");
          if (!s.deficit_charged) {
            deficit_[s.request.tenant] -= s.request.target_len();
            s.deficit_charged = true;
          }
        }
        assign_chunk(id);
        break;
      }
    }
  }

  if (fair) {
    for (const auto& [tenant, tokens] : deficit_) {
      telemetry::gauge("serve.sched.tenant_deficit.t" + std::to_string(tenant),
                       static_cast<double>(tokens));
    }
  }

  std::sort(selected.begin(), selected.end());
  plan.decodes = std::move(selected);
  return plan;
}

StepPlan Scheduler::plan_serial(SessionTable& table, KvPool& pool) {
  StepPlan plan;
  const auto decoding = table.ids_in_phase(SessionPhase::kDecoding);
  STOF_CHECK(decoding.size() <= 1, "serial mode runs one session at a time");
  if (!decoding.empty()) {
    // Serial never preempts: the pool is validated to hold one full
    // context, and only one session ever holds blocks.
    plan.decodes = decoding;
    return plan;
  }
  if (!waiting_.empty()) {
    const SessionId id = waiting_.front();
    Session& s = table.at(id);
    const PrefixMatch m = admission_match(pool, s);
    const std::int64_t avail =
        pool.free_blocks() +
        std::max<std::int64_t>(0, pool.reclaimable_blocks() - m.pages());
    STOF_CHECK(pool.blocks_for(s.total_len()) - m.full_pages <= avail,
               "pool too small for a single context");
    waiting_.pop_front();
    admit_with_prefix(s, pool);
    plan.prefills.push_back(id);
  }
  return plan;
}

}  // namespace stof::serve
