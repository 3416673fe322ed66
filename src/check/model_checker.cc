// Two search engines behind one entry point:
//
//  * check_full — the exact reference: serial BFS deduplicating on full
//    state-key bytes, every enabled action expanded at every state.  This
//    is the engine the reduction-soundness tests compare against, and
//    the one that runs worlds whose machines lack the snapshot codec.
//  * check_reduced — the scaled engine: symmetry-canonicalized 64-bit
//    keys in a visited set, pure-absorption partial-order reduction, a
//    frontier of exact snapshots, and per-depth parallel expansion over
//    exec::ThreadPool.
//    Each BFS depth is a barrier: one task per thread takes frontier
//    entries in order and expands them into per-entry result slots and
//    the task's own successor list and snapshot arena, decoding each
//    parent snapshot once into the task's one scratch World, building
//    each successor in it and undoing the step before the next
//    (undo_step), rather than cloning or decoding per successor.
//    Workers only read the visited set.  Then a serial in-order merge
//    claims the new states in (entry, candidate) order, enforces the
//    state cap, assigns tree nodes and picks the lowest-index violation,
//    so every thread count keeps the same member of each symmetry orbit
//    and reports the same counts and counterexample.
//
// The state semantics both engines share — World, step application,
// invariants, probes, canonicalization, the snapshot codec — live in
// check/world.h.
#include "check/model_checker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <set>
#include <span>
#include <unordered_set>
#include <utility>

#include "check/state_store.h"
#include "check/world.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "support/error.h"
#include "support/hash.h"

namespace drsm::check {
namespace {

using fsm::Message;
using fsm::OpKind;

using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct TreeNode {
  std::int64_t parent = -1;
  CheckStep step;
  std::size_t depth = 0;
};

std::vector<CheckStep> trace_to(const std::vector<TreeNode>& tree,
                                std::int64_t parent, const CheckStep* last) {
  std::vector<CheckStep> steps;
  if (last != nullptr) steps.push_back(*last);
  for (std::int64_t at = parent; at > 0; at = tree[at].parent)
    steps.push_back(tree[at].step);
  std::reverse(steps.begin(), steps.end());
  return steps;
}

/// Successor candidates at `w`: every issueable (client, op) pair and
/// every nonempty channel head, in a fixed deterministic order.
struct Candidate {
  CheckStep::Kind kind = CheckStep::Kind::kIssue;
  NodeId node = 0;
  NodeId src = 0;
  OpKind op = OpKind::kRead;
};

void enumerate_candidates(const World& w, std::vector<Candidate>& out) {
  out.clear();
  const std::size_t nodes = w.num_nodes();
  const std::size_t clients = nodes - 1;
  for (NodeId c = 0; c < clients; ++c) {
    if (w.pending[c] != 0 || w.disabled[c] != 0) continue;
    if (w.reads_left[c] > 0)
      out.push_back({CheckStep::Kind::kIssue, c, 0, OpKind::kRead});
    if (w.writes_left[c] > 0)
      out.push_back({CheckStep::Kind::kIssue, c, 0, OpKind::kWrite});
  }
  for (NodeId src = 0; src < nodes; ++src)
    for (NodeId dst = 0; dst < nodes; ++dst)
      if (!w.channels[src * nodes + dst].empty())
        out.push_back({CheckStep::Kind::kDeliver, dst, src, OpKind::kRead});
}

/// The exact serial reference engine (CheckConfig::Expansion::
/// kFullExpansion): the pre-reduction checker, kept verbatim in
/// behaviour — full-key dedup, no reductions, single thread, a cloned
/// World per successor.  It also checks the worlds the reduced engine
/// cannot hold (machines without the snapshot codec).
CheckResult check_full(const CheckConfig& cfg, World init) {
  const std::vector<NodeId> identity = identity_labeling(cfg.num_clients);
  CheckResult res;
  std::vector<TreeNode> tree;
  std::unordered_set<std::string> visited;
  std::deque<std::pair<World, std::size_t>> frontier;
  std::set<std::string> names;

  auto record_names = [&](const World& w) {
    for (const auto& machine : w.machines) names.insert(machine->state_name());
  };
  auto fail = [&](std::int64_t parent, const CheckStep* last,
                  const char* invariant, std::string detail) {
    res.violations.push_back({invariant, std::move(detail)});
    res.counterexample = trace_to(tree, parent, last);
  };
  auto probe_state = [&](const World& w, std::int64_t parent,
                         const CheckStep* last) {
    if (!cfg.probe_quiescent_reads) return true;
    if (!channels_empty(w) || any_pending(w)) return true;
    for (NodeId client = 0; client < cfg.num_clients; ++client) {
      ++res.probes;
      std::string detail;
      const char* inv = probe_read(w, client, cfg, detail);
      if (inv != nullptr) {
        fail(parent, last, inv, std::move(detail));
        return false;
      }
    }
    return true;
  };

  std::vector<std::uint8_t> key;
  encode_key(init, key, identity.data());
  visited.emplace(key.begin(), key.end());
  tree.push_back({});
  record_names(init);
  {
    std::string detail;
    const char* inv = check_state(init, cfg, detail);
    if (inv != nullptr)
      fail(0, nullptr, inv, std::move(detail));
    else
      probe_state(init, 0, nullptr);
  }
  if (res.violations.empty()) frontier.emplace_back(std::move(init), 0);

  std::vector<Candidate> candidates;
  while (!frontier.empty() && res.violations.empty()) {
    auto [w, index] = std::move(frontier.front());
    frontier.pop_front();
    const std::size_t depth = tree[index].depth;
    enumerate_candidates(w, candidates);

    for (const Candidate& cand : candidates) {
      World s = w.clone();
      StepOutcome out;
      CheckStep step;
      step.kind = cand.kind;
      step.node = cand.node;
      ++res.transitions;
      if (cand.kind == CheckStep::Kind::kIssue) {
        step.op = cand.op;
        apply_issue(s, cand.node, cand.op, cfg.channel_capacity, out,
                    step.msg);
      } else {
        step.src = cand.src;
        apply_deliver(s, cand.src, cand.node, cfg.channel_capacity, out,
                      step.msg);
      }
      if (out.truncated) {
        ++res.truncated;
        continue;
      }
      if (out.invariant != nullptr) {
        fail(static_cast<std::int64_t>(index), &step, out.invariant,
             std::move(out.detail));
        break;
      }
      {
        std::string detail;
        const char* inv = check_state(s, cfg, detail);
        if (inv != nullptr) {
          fail(static_cast<std::int64_t>(index), &step, inv,
               std::move(detail));
          break;
        }
      }
      encode_key(s, key, identity.data());
      if (!visited.emplace(key.begin(), key.end()).second) continue;
      record_names(s);
      if (!probe_state(s, static_cast<std::int64_t>(index), &step)) break;
      if (visited.size() >= cfg.max_states) {
        res.hit_state_cap = true;
        break;
      }
      tree.push_back({static_cast<std::int64_t>(index), step, depth + 1});
      res.max_depth = std::max(res.max_depth, depth + 1);
      frontier.emplace_back(std::move(s), tree.size() - 1);
    }
    if (res.hit_state_cap) break;
  }

  res.states = visited.size();
  res.visited_state_names.assign(names.begin(), names.end());
  return res;
}

/// One queued frontier state: its exact byte snapshot, which lives in the
/// arena of the task that found it (or, at depth 0, in the initial
/// snapshot), and its search-tree index.
struct Entry {
  std::span<const std::uint8_t> bytes;
  std::size_t tree = 0;
};

/// One successor a worker found new at its depth, pending the serial
/// merge that claims it: its canonical hash, whether that hash came from a
/// relabeling other than the state's own (a symmetry hit if the merge finds
/// it claimed), the read probes run on it, its step, and where its
/// snapshot sits in the task's arena for the depth.
struct SuccessorOut {
  std::uint64_t hash = 0;
  bool nontrivial = false;
  std::size_t probes = 0;
  CheckStep step;
  std::size_t offset = 0;
  std::size_t size = 0;
};

/// One expansion task's state, kept for the whole search: the World each
/// parent is decoded into and every successor built in, the parent's
/// Ledger as decoded (for undo_step), and the buffers for candidates, keys
/// and snapshots.  The rest holds one depth and is cleared at its start:
/// the hashes the task sent to the merge (`emitted`), the state_name()
/// literals of those states, each address once in the order first seen,
/// the successors themselves, and their snapshots one after another in
/// `arena[depth % 2]`: the next depth's frontier reads them there while
/// the task fills the other arena, so a new state costs no allocation of
/// its own.
struct Scratch {
  World world;
  Ledger parent_ledger;
  std::vector<Candidate> candidates;
  std::vector<std::uint8_t> bytes;
  StateStore emitted;
  std::vector<const char*> names;
  std::vector<SuccessorOut> succs;
  std::vector<std::uint8_t> arena[2];
};

/// Appends the state_name() literal `name` to `names` unless that address
/// is there already.
void add_name(std::vector<const char*>& names, const char* name) {
  if (std::find(names.begin(), names.end(), name) == names.end())
    names.push_back(name);
}

/// Decodes a frontier snapshot into `w`, in place once `w` is built.
void decode(const CheckConfig& cfg, std::span<const std::uint8_t> bytes,
            World& w) {
  const bool ok =
      deserialize_world(cfg, bytes.data(), bytes.data() + bytes.size(), w);
  DRSM_CHECK(ok, "check: snapshot round-trip failed mid-search");
}

/// Everything a worker learned expanding one frontier entry.  Workers
/// write only their own slot; the depth-barrier merge folds the slots in
/// entry order.  The entry's successors are succs[succ_begin, succ_end)
/// of the Scratch of task `task`, and the state names it saw first are
/// names[names_begin, names_end) there.
struct EntryResult {
  std::size_t task = 0;
  std::size_t succ_begin = 0;
  std::size_t succ_end = 0;
  std::size_t names_begin = 0;
  std::size_t names_end = 0;
  std::size_t transitions = 0;
  std::size_t truncated = 0;
  std::size_t por_pruned = 0;
  std::size_t symmetry_hits = 0;
  std::size_t relabelings = 0;
  std::size_t decodes = 0;
  std::size_t restores = 0;
  const char* invariant = nullptr;  // first violation, candidate order
  std::string detail;
  CheckStep bad_step;
};

/// The scaled engine: canonical-hash dedup, pure-absorption POR,
/// per-depth parallel expansion, a frontier of exact snapshots.
/// `init_bytes` is the snapshot of `init`, which check_protocol has seen
/// round-trip.
CheckResult check_reduced(const CheckConfig& cfg, const World& init,
                          const std::vector<std::uint8_t>& init_bytes) {
  const bool symmetry = cfg.symmetry_reduction && cfg.num_clients >= 2;
  const bool por = cfg.partial_order_reduction;
  const std::vector<NodeId> identity = identity_labeling(cfg.num_clients);

  // Hash of the dedup key: canonical over the permutation orbit when
  // symmetry applies, plain behaviour key otherwise.
  auto state_hash = [&](const World& w, std::vector<std::uint8_t>& scratch) {
    if (symmetry) return canonical_hash(w, scratch);
    encode_key(w, scratch, identity.data());
    CanonicalHash plain;
    plain.hash = hash_bytes(scratch.data(), scratch.size());
    return plain;
  };

  exec::ThreadPool pool(cfg.threads);

  CheckResult res;
  res.symmetry_applied = symmetry;
  res.por_applied = por;
  res.threads_used = pool.threads();

  StateStore visited;
  std::vector<TreeNode> tree;
  std::vector<const char*> names;  // of the states of folded entries
  auto fail = [&](std::int64_t parent, const CheckStep* last,
                  const char* invariant, std::string detail) {
    res.violations.push_back({invariant, std::move(detail)});
    res.counterexample = trace_to(tree, parent, last);
  };

  {
    std::vector<std::uint8_t> scratch;
    const CanonicalHash key = state_hash(init, scratch);
    res.relabelings += key.relabelings;
    visited.insert(key.hash);
  }
  tree.push_back({});
  for (const auto& machine : init.machines)
    add_name(names, machine->state_name());
  {
    std::string detail;
    const char* inv = check_state(init, cfg, detail);
    if (inv != nullptr) {
      fail(0, nullptr, inv, std::move(detail));
    } else if (cfg.probe_quiescent_reads && channels_empty(init) &&
               !any_pending(init)) {
      for (NodeId client = 0; client < cfg.num_clients; ++client) {
        ++res.probes;
        std::string probe_detail;
        const char* probe_inv = probe_read(init, client, cfg, probe_detail);
        if (probe_inv != nullptr) {
          fail(0, nullptr, probe_inv, std::move(probe_detail));
          break;
        }
      }
    }
  }

  std::vector<Entry> frontier;
  if (res.violations.empty()) frontier.push_back({init_bytes, 0});

  std::vector<Scratch> scratches(pool.threads());
  std::vector<EntryResult> results;

  std::size_t depth = 0;
  while (!frontier.empty() && res.violations.empty() &&
         !res.hit_state_cap) {
    const std::size_t width = frontier.size();
    results.assign(width, EntryResult{});

    // Expands one entry up to its first violation.  Workers only read
    // `visited`; a successor it holds, or that this task already sent to
    // the merge at this depth, is a duplicate, and the rest go to the
    // merge, which claims them.
    auto expand = [&](const Entry& entry, Scratch& scratch, EntryResult& r) {
      // Every successor is built in s from the parent, decoded once.
      // Between candidates s goes back to the parent by undoing the step
      // (undo_step), or by decoding again after a quiescent read probe,
      // which runs many steps.
      World& s = scratch.world;
      decode(cfg, entry.bytes, s);
      ++r.decodes;
      scratch.parent_ledger = static_cast<const Ledger&>(s);
      enum class Since { kDecode, kStep, kProbe } since = Since::kDecode;
      std::vector<Candidate>& candidates = scratch.candidates;
      enumerate_candidates(s, candidates);
      if (por && candidates.size() > 1) {
        for (const Candidate& cand : candidates) {
          if (cand.kind != CheckStep::Kind::kDeliver) continue;
          if (!pure_absorption(s, cand.src, cand.node, scratch.bytes))
            continue;
          r.por_pruned += candidates.size() - 1;
          const Candidate chosen = cand;
          candidates.assign(1, chosen);
          break;
        }
      }

      for (const Candidate& cand : candidates) {
        if (since == Since::kStep) {
          undo_step(s, entry.bytes.data(), scratch.parent_ledger);
          ++r.restores;
        } else if (since == Since::kProbe) {
          decode(cfg, entry.bytes, s);
          ++r.decodes;
        }
        since = Since::kStep;
        StepOutcome out;
        CheckStep step;
        step.kind = cand.kind;
        step.node = cand.node;
        ++r.transitions;
        if (cand.kind == CheckStep::Kind::kIssue) {
          step.op = cand.op;
          apply_issue(s, cand.node, cand.op, cfg.channel_capacity, out,
                      step.msg);
        } else {
          step.src = cand.src;
          apply_deliver(s, cand.src, cand.node, cfg.channel_capacity, out,
                        step.msg);
        }
        if (out.truncated) {
          ++r.truncated;
          continue;
        }
        if (out.invariant != nullptr) {
          r.invariant = out.invariant;
          r.detail = std::move(out.detail);
          r.bad_step = step;
          return;
        }
        {
          std::string detail;
          const char* inv = check_state(s, cfg, detail);
          if (inv != nullptr) {
            r.invariant = inv;
            r.detail = std::move(detail);
            r.bad_step = step;
            return;
          }
        }
        const CanonicalHash key = state_hash(s, scratch.bytes);
        r.relabelings += key.relabelings;
        if (visited.contains(key.hash) || !scratch.emitted.insert(key.hash)) {
          if (key.nontrivial) ++r.symmetry_hits;
          continue;
        }
        for (const auto& machine : s.machines)
          add_name(scratch.names, machine->state_name());
        SuccessorOut succ;
        succ.hash = key.hash;
        succ.nontrivial = key.nontrivial;
        succ.step = step;
        serialize_world(s, scratch.bytes);
        std::vector<std::uint8_t>& arena = scratch.arena[depth % 2];
        succ.offset = arena.size();
        succ.size = scratch.bytes.size();
        arena.insert(arena.end(), scratch.bytes.begin(), scratch.bytes.end());
        const char* probe_inv = nullptr;
        std::string probe_detail;
        if (cfg.probe_quiescent_reads && channels_empty(s) &&
            !any_pending(s)) {
          since = Since::kProbe;
          for (NodeId client = 0; client < cfg.num_clients; ++client) {
            ++succ.probes;
            // Each probe runs on s itself, rebuilt from the snapshot after
            // the first.
            if (client > 0) {
              decode(cfg, scratch.bytes, s);
              ++r.decodes;
            }
            probe_inv = probe_read_in_place(s, client, cfg, probe_detail);
            if (probe_inv != nullptr) break;
          }
        }
        // A state whose probe fails is still claimed, as it was reached.
        scratch.succs.push_back(succ);
        if (probe_inv != nullptr) {
          r.invariant = probe_inv;
          r.detail = std::move(probe_detail);
          r.bad_step = step;
          return;
        }
      }
    };
    // One task per pool thread, each with its own Scratch, takes runs of
    // kRun entries from a shared cursor in frontier order, with one
    // scratch World per task for the whole search.  Siblings and cousins
    // sit side by side in the frontier, so a run keeps most of a depth's
    // duplicates inside one task, whose emitted set drops them before
    // they are serialized and sent to the merge.
    constexpr std::size_t kRun = 256;
    std::atomic<std::size_t> cursor{0};
    const auto expand_start = Clock::now();
    pool.parallel_for(pool.threads(), [&](std::size_t task) {
      Scratch& scratch = scratches[task];
      scratch.emitted.clear();
      scratch.names.clear();
      scratch.succs.clear();
      scratch.arena[depth % 2].clear();
      for (;;) {
        const std::size_t begin =
            cursor.fetch_add(kRun, std::memory_order_relaxed);
        if (begin >= width) return;
        for (std::size_t i = begin; i < std::min(begin + kRun, width); ++i) {
          EntryResult& r = results[i];
          r.task = task;
          r.succ_begin = scratch.succs.size();
          r.names_begin = scratch.names.size();
          expand(frontier[i], scratch, r);
          r.succ_end = scratch.succs.size();
          r.names_end = scratch.names.size();
        }
      }
    });
    const auto merge_start = Clock::now();
    res.expand_seconds += seconds(expand_start, merge_start);

    // Serial in-order merge, the only place a state is claimed: fold each
    // entry's counts, claim its successors in (entry, candidate) order,
    // dropping any an earlier entry of another task claimed, and assign
    // tree nodes and the next frontier.  It stops after the first entry
    // with a violation and after the entry at which the visited set
    // reaches max_states, so every thread count folds the same entries.
    std::vector<Entry> next;
    for (std::size_t i = 0; i < width; ++i) {
      EntryResult& r = results[i];
      res.transitions += r.transitions;
      res.truncated += r.truncated;
      res.por_pruned += r.por_pruned;
      res.symmetry_hits += r.symmetry_hits;
      res.relabelings += r.relabelings;
      res.decodes += r.decodes;
      res.restores += r.restores;
      const Scratch& found = scratches[r.task];
      for (std::size_t k = r.names_begin; k < r.names_end; ++k)
        add_name(names, found.names[k]);
      for (std::size_t k = r.succ_begin; k < r.succ_end; ++k) {
        const SuccessorOut& succ = found.succs[k];
        // Past the cap a new state is dropped; a claimed one is still a
        // duplicate.
        if (res.hit_state_cap || !visited.insert(succ.hash)) {
          if (succ.nontrivial && visited.contains(succ.hash))
            ++res.symmetry_hits;
          continue;
        }
        res.probes += succ.probes;
        if (visited.size() >= cfg.max_states) res.hit_state_cap = true;
        if (r.invariant != nullptr) continue;  // the search ends here
        tree.push_back({static_cast<std::int64_t>(frontier[i].tree),
                        succ.step, depth + 1});
        res.max_depth = std::max(res.max_depth, depth + 1);
        next.push_back(
            {std::span(found.arena[depth % 2]).subspan(succ.offset, succ.size),
             tree.size() - 1});
      }
      if (r.invariant != nullptr) {
        fail(static_cast<std::int64_t>(frontier[i].tree), &r.bad_step,
             r.invariant, std::move(r.detail));
        break;
      }
      if (res.hit_state_cap) break;
    }
    frontier = std::move(next);
    ++depth;
    res.merge_seconds += seconds(merge_start, Clock::now());
  }

  res.states = visited.size();
  const std::set<std::string> sorted(names.begin(), names.end());
  res.visited_state_names.assign(sorted.begin(), sorted.end());
  return res;
}

void publish_metrics(const CheckConfig& cfg, const CheckResult& res) {
  if (cfg.metrics == nullptr) return;
  obs::MetricsRegistry& m = *cfg.metrics;
  m.counter("check.states").inc(res.states);
  m.counter("check.transitions").inc(res.transitions);
  m.counter("check.symmetry_hits").inc(res.symmetry_hits);
  m.counter("check.relabelings").inc(res.relabelings);
  m.counter("check.por_pruned").inc(res.por_pruned);
  m.counter("check.decodes").inc(res.decodes);
  m.counter("check.restores").inc(res.restores);
  m.gauge("check.states_per_sec").set(res.states_per_sec());
  m.gauge("check.wall_ms").set(res.wall_seconds * 1e3);
  m.gauge("check.expand_ms").set(res.expand_seconds * 1e3);
  m.gauge("check.merge_ms").set(res.merge_seconds * 1e3);
  m.gauge("check.max_depth").set(static_cast<double>(res.max_depth));
}

}  // namespace

CheckResult check_protocol(const CheckConfig& cfg) {
  DRSM_CHECK(cfg.num_clients >= 1, "check: need at least one client");
  DRSM_CHECK(cfg.num_clients <= 250, "check: too many clients");
  DRSM_CHECK(cfg.channel_capacity >= 1 && cfg.channel_capacity <= 255,
             "check: channel_capacity must be in [1, 255]");
  DRSM_CHECK(cfg.reads_per_client <= 255 && cfg.writes_per_client <= 255,
             "check: per-client budgets must fit a byte");

  const auto start = Clock::now();
  // The reduced engine stores its frontier as exact snapshots, and POR's
  // dry run restores machines through decode_state, so it runs only
  // worlds whose machines round-trip the codec: every protocol machine
  // and migration wrapper.  Machines without decode_state (hand-built
  // fragments, fsm::TableMachine) take the full expansion, which clones.
  World init = make_initial_world(cfg);
  std::vector<std::uint8_t> init_bytes;
  bool reduced = cfg.expansion == CheckConfig::Expansion::kReduced;
  if (reduced) {
    serialize_world(init, init_bytes);
    World probe;
    reduced = deserialize_world(cfg, init_bytes.data(),
                                init_bytes.data() + init_bytes.size(), probe);
  }
  CheckResult res = reduced ? check_reduced(cfg, init, init_bytes)
                            : check_full(cfg, std::move(init));
  res.wall_seconds = seconds(start, Clock::now());
  publish_metrics(cfg, res);
  return res;
}

void export_counterexample(const CheckResult& result, obs::EventSink& out) {
  if (result.ok()) return;
  for (std::size_t i = 0; i < result.counterexample.size(); ++i) {
    const CheckStep& step = result.counterexample[i];
    obs::TraceEvent event;
    event.time = static_cast<double>(i);
    event.kind = obs::EventKind::kCheckStep;
    event.node = step.node;
    event.peer = step.src;
    event.token = step.msg.token;
    event.op = step.op;
    event.detail =
        step.kind == CheckStep::Kind::kIssue ? "issue" : "deliver";
    out.on_event(event);
  }
  obs::TraceEvent event;
  event.time = static_cast<double>(result.counterexample.size());
  event.kind = obs::EventKind::kViolation;
  event.detail = result.violations.front().invariant;
  out.on_event(event);
}

std::string dump_counterexample(const CheckResult& result,
                                obs::FlightRecorder& recorder,
                                const std::string& path) {
  if (result.ok()) return {};
  export_counterexample(result, recorder);
  const Violation& v = result.violations.front();
  return recorder.dump(path, std::string(v.invariant) +
                                 (v.detail.empty() ? "" : ": " + v.detail));
}

}  // namespace drsm::check
