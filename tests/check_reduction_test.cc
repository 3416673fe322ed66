// Soundness of the model checker's reductions (src/check/world.h,
// src/check/model_checker.cc):
//
//  * reduction soundness — the default (symmetry + POR, canonical-hash
//    dedup) exploration reaches the same verdict and the same state-name
//    coverage as the exact kFullExpansion reference on every protocol,
//    while visiting no more (and usually far fewer) states;
//  * permutation equivariance — relabeling the clients of a reachable
//    state permutes its behaviour key exactly and never changes its
//    canonical hash, established by driving a random walk and a
//    π-relabeled twin walk in lockstep for every client permutation π;
//  * the canonical key's classes — on the same walks, two states share
//    canonical_hash exactly when they share the minimum over *all* client
//    permutations, the reference key kept here;
//  * snapshot codec — serialize_world/deserialize_world round-trips
//    every field the search can observe, and decoding into a reused
//    World (as the reduced engine does for every parent) gives the
//    same World as decoding into a fresh one;
//  * step undo — undo_step after any step, cut sends and home -> home
//    deliveries included, gives back the parent's exact snapshot and
//    behaviour key;
//  * StateStore — first-claim semantics hold, and growth keeps every key;
//  * parallel exploration — 1, 2 and 4 worker threads report the same
//    counts, state names, verdicts and counterexamples on every
//    configuration of the check_verify sweep, on the broken migration
//    handoffs, and on a search cut by the state cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/model_checker.h"
#include "check/state_store.h"
#include "check/world.h"
#include "dsm/migration.h"
#include "protocols/protocol.h"
#include "support/hash.h"
#include "support/rng.h"

namespace drsm {
namespace {

using check::CheckConfig;
using check::CheckResult;
using check::StateStore;
using check::StepOutcome;
using check::World;
using protocols::ProtocolKind;

// ---------------------------------------------------------------------------
// Reduced vs full expansion: same verdict, same coverage, fewer states.
// ---------------------------------------------------------------------------

class ReductionSoundnessTest
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ReductionSoundnessTest, ReducedMatchesFullExpansionVerdict) {
  CheckConfig reduced;
  reduced.protocol = GetParam();
  reduced.num_clients = 2;
  const CheckResult r = check::check_protocol(reduced);

  CheckConfig full = reduced;
  full.expansion = CheckConfig::Expansion::kFullExpansion;
  const CheckResult f = check::check_protocol(full);

  ASSERT_TRUE(f.ok()) << f.violations.front().detail;
  ASSERT_TRUE(r.ok()) << r.violations.front().detail;
  EXPECT_FALSE(f.hit_state_cap);
  EXPECT_FALSE(r.hit_state_cap);

  // The reductions must not invent or lose machine-state coverage: every
  // orbit representative carries the same state-name multiset, and pure
  // absorptions change no machine at all.
  EXPECT_EQ(r.visited_state_names, f.visited_state_names);

  // Reduction, not inflation.
  EXPECT_LE(r.states, f.states);
  EXPECT_LE(r.transitions, f.transitions);
  EXPECT_TRUE(r.symmetry_applied);
  EXPECT_TRUE(r.por_applied);
  EXPECT_FALSE(f.symmetry_applied);
  EXPECT_FALSE(f.por_applied);

  // With two interchangeable clients the orbit quotient must actually
  // bite: strictly fewer canonical states than raw states.
  EXPECT_LT(r.states, f.states);
  EXPECT_GT(r.symmetry_hits, 0u);
}

TEST_P(ReductionSoundnessTest, EachReductionAloneIsAlsoSound) {
  CheckConfig base;
  base.protocol = GetParam();
  base.num_clients = 2;

  CheckConfig sym_only = base;
  sym_only.partial_order_reduction = false;
  const CheckResult s = check::check_protocol(sym_only);
  ASSERT_TRUE(s.ok()) << s.violations.front().detail;
  EXPECT_TRUE(s.symmetry_applied);
  EXPECT_FALSE(s.por_applied);
  EXPECT_EQ(s.por_pruned, 0u);

  CheckConfig por_only = base;
  por_only.symmetry_reduction = false;
  const CheckResult p = check::check_protocol(por_only);
  ASSERT_TRUE(p.ok()) << p.violations.front().detail;
  EXPECT_FALSE(p.symmetry_applied);
  EXPECT_TRUE(p.por_applied);
  EXPECT_EQ(p.symmetry_hits, 0u);

  CheckConfig full = base;
  full.expansion = CheckConfig::Expansion::kFullExpansion;
  const CheckResult f = check::check_protocol(full);

  EXPECT_EQ(s.visited_state_names, f.visited_state_names);
  EXPECT_EQ(p.visited_state_names, f.visited_state_names);
  EXPECT_LE(s.states, f.states);
  // POR explores a subgraph: never more states than the full expansion
  // (skipped siblings recur behind the absorbed delivery, minus the
  // already-absorbed message).
  EXPECT_LE(p.states, f.states);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ReductionSoundnessTest,
                         ::testing::ValuesIn(protocols::kAllProtocols),
                         [](const auto& info) {
                           std::string name =
                               protocols::to_string(info.param);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// ---------------------------------------------------------------------------
// Permutation equivariance along random walks.
// ---------------------------------------------------------------------------

struct WalkAction {
  bool issue = false;
  NodeId node = 0;  // issue: client.  deliver: destination.
  NodeId src = 0;   // deliver: channel source
  fsm::OpKind op = fsm::OpKind::kRead;
};

/// Enabled actions at `w`, in a fixed order (mirrors the checker's
/// candidate enumeration).
std::vector<WalkAction> enabled_actions(const World& w) {
  std::vector<WalkAction> out;
  const std::size_t nodes = w.num_nodes();
  for (NodeId c = 0; c + 1 < nodes; ++c) {
    if (w.pending[c] != 0 || w.disabled[c] != 0) continue;
    if (w.reads_left[c] > 0)
      out.push_back({true, c, 0, fsm::OpKind::kRead});
    if (w.writes_left[c] > 0)
      out.push_back({true, c, 0, fsm::OpKind::kWrite});
  }
  for (NodeId src = 0; src < nodes; ++src)
    for (NodeId dst = 0; dst < nodes; ++dst)
      if (!w.channels[src * nodes + dst].empty())
        out.push_back({false, dst, src, fsm::OpKind::kRead});
  return out;
}

void apply_action(World& w, const WalkAction& a, std::size_t capacity) {
  StepOutcome out;
  fsm::Message msg;
  if (a.issue)
    check::apply_issue(w, a.node, a.op, capacity, out, msg);
  else
    check::apply_deliver(w, a.src, a.node, capacity, out, msg);
  ASSERT_EQ(out.invariant, nullptr) << out.invariant << ": " << out.detail;
}

NodeId mapped(NodeId id, const std::vector<NodeId>& pi) {
  return id < pi.size() ? pi[id] : id;
}

CheckConfig protocol_walk_config(ProtocolKind kind, std::size_t clients) {
  CheckConfig cfg;
  cfg.protocol = kind;
  cfg.num_clients = clients;
  cfg.reads_per_client = 2;
  cfg.writes_per_client = 2;
  return cfg;
}

CheckConfig migration_walk_config(ProtocolKind from, ProtocolKind to) {
  dsm::MigrationWorldOptions options;
  options.from = from;
  options.to = to;
  options.num_clients = 2;
  CheckConfig cfg = dsm::migration_check_config(options);
  cfg.reads_per_client = 2;
  cfg.writes_per_client = 2;
  return cfg;
}

std::string pair_name(ProtocolKind from, ProtocolKind to) {
  return std::string(protocols::to_string(from)) + " -> " +
         protocols::to_string(to);
}

/// Every client permutation, identity first, each mapping old client id
/// to new client id.
std::vector<std::vector<NodeId>> client_permutations(std::size_t clients) {
  std::vector<NodeId> perm(clients);
  for (std::size_t c = 0; c < clients; ++c) perm[c] = static_cast<NodeId>(c);
  std::vector<std::vector<NodeId>> all;
  do {
    all.push_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return all;
}

/// The reference canonical key: the minimum over *all* client
/// permutations of the relabeled behaviour key's hash.  canonical_hash
/// must split states into exactly the classes this does.
std::uint64_t all_permutation_key(const World& w,
                                  const std::vector<std::vector<NodeId>>& perms,
                                  std::vector<std::uint8_t>& scratch) {
  std::uint64_t best = 0;
  for (std::size_t i = 0; i < perms.size(); ++i) {
    check::encode_key(w, scratch, perms[i].data());
    const std::uint64_t h = hash_bytes(scratch.data(), scratch.size());
    if (i == 0 || h < best) best = h;
  }
  return best;
}

/// Random walks under `cfg` driven in lockstep with a twin walk whose
/// every client id is relabeled by pi, for every client permutation pi.
/// For each pi, walks start at the initial state, run until no action is
/// enabled, and repeat until they total at least `min_steps` steps;
/// `visit(a, b, pi)` sees the pair after every step.
template <typename Visit>
void twin_walks(const CheckConfig& cfg, int min_steps, Visit visit) {
  const auto perms = client_permutations(cfg.num_clients);
  for (std::size_t k = 0; k < perms.size(); ++k) {
    const std::vector<NodeId>& pi = perms[k];
    Rng rng(77 * (k + 1));
    for (int steps = 0; steps < min_steps;) {
      World a = check::make_initial_world(cfg);
      World b = check::make_initial_world(cfg);
      for (auto actions = enabled_actions(a); !actions.empty();
           actions = enabled_actions(a)) {
        const WalkAction act = actions[rng.uniform_index(actions.size())];
        apply_action(a, act, cfg.channel_capacity);
        WalkAction twin = act;
        twin.node = mapped(act.node, pi);
        twin.src = mapped(act.src, pi);
        apply_action(b, twin, cfg.channel_capacity);
        if (::testing::Test::HasFatalFailure()) return;
        visit(a, b, pi);
        if (::testing::Test::HasFatalFailure()) return;
        ++steps;
      }
    }
  }
}

/// Relabeling the clients of a reached state by pi permutes its behaviour
/// key exactly and leaves its canonical key unchanged.  Returns the number
/// of twin pairs checked.
std::size_t expect_twins_share_keys(const CheckConfig& cfg, int min_steps,
                                    const std::string& what) {
  std::vector<std::uint8_t> key_a, key_b, scratch;
  const std::vector<NodeId> identity =
      check::identity_labeling(cfg.num_clients);
  std::size_t checked = 0;
  twin_walks(cfg, min_steps, [&](const World& a, const World& b,
                                 const std::vector<NodeId>& pi) {
    // The twin's identity key is the original's key relabeled by pi...
    check::encode_key(a, key_a, pi.data());
    check::encode_key(b, key_b, identity.data());
    ASSERT_EQ(key_a, key_b) << what;
    // ...and both walks canonicalize to the same key at every step.
    ASSERT_EQ(check::canonical_hash(a, scratch).hash,
              check::canonical_hash(b, scratch).hash)
        << what;
    ++checked;
  });
  return checked;
}

/// Over every state the twin walks reach, two states share canonical_hash
/// exactly when they share the all-permutation minimum.  Returns the
/// number of classes the states fall into.
std::size_t expect_key_partitions_like_all_permutations(
    const CheckConfig& cfg, int min_steps, const std::string& what) {
  const auto perms = client_permutations(cfg.num_clients);
  std::unordered_map<std::uint64_t, std::uint64_t> reference_of;
  std::unordered_map<std::uint64_t, std::uint64_t> key_of;
  std::vector<std::uint8_t> scratch;
  auto record = [&](const World& w) {
    const std::uint64_t key = check::canonical_hash(w, scratch).hash;
    const std::uint64_t reference = all_permutation_key(w, perms, scratch);
    ASSERT_EQ(reference_of.emplace(key, reference).first->second, reference)
        << what << ": one key covers two all-permutation classes";
    ASSERT_EQ(key_of.emplace(reference, key).first->second, key)
        << what << ": one all-permutation class has two keys";
  };
  twin_walks(cfg, min_steps,
             [&](const World& a, const World& b, const std::vector<NodeId>&) {
               record(a);
               record(b);
             });
  return key_of.size();
}

class PermutationInvarianceTest
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(PermutationInvarianceTest, RelabeledTwinWalksShareCanonicalHashes) {
  const std::string name = protocols::to_string(GetParam());
  EXPECT_GT(expect_twins_share_keys(protocol_walk_config(GetParam(), 3), 300,
                                    name + " N=3"),
            0u);
  EXPECT_GT(expect_twins_share_keys(protocol_walk_config(GetParam(), 4), 120,
                                    name + " N=4"),
            0u);
}

TEST_P(PermutationInvarianceTest, CanonicalKeyPartitionsLikeEveryPermutation) {
  const std::string name = protocols::to_string(GetParam());
  EXPECT_GT(expect_key_partitions_like_all_permutations(
                protocol_walk_config(GetParam(), 3), 300, name + " N=3"),
            0u);
  EXPECT_GT(expect_key_partitions_like_all_permutations(
                protocol_walk_config(GetParam(), 4), 120, name + " N=4"),
            0u);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, PermutationInvarianceTest,
                         ::testing::ValuesIn(protocols::kAllProtocols),
                         [](const auto& info) {
                           std::string name =
                               protocols::to_string(info.param);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(MigrationPermutationInvarianceTest,
     RelabeledTwinWalksShareCanonicalHashesForEveryPairAtN2) {
  for (const ProtocolKind from : protocols::kAllProtocols)
    for (const ProtocolKind to : protocols::kAllProtocols)
      EXPECT_GT(expect_twins_share_keys(migration_walk_config(from, to), 300,
                                        pair_name(from, to)),
                0u);
}

TEST(MigrationPermutationInvarianceTest,
     CanonicalKeyPartitionsLikeEveryPermutationForEveryPairAtN2) {
  for (const ProtocolKind from : protocols::kAllProtocols)
    for (const ProtocolKind to : protocols::kAllProtocols)
      EXPECT_GT(expect_key_partitions_like_all_permutations(
                    migration_walk_config(from, to), 300,
                    pair_name(from, to)),
                0u);
}

// ---------------------------------------------------------------------------
// Exact snapshot codec.
// ---------------------------------------------------------------------------

class SnapshotCodecTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(SnapshotCodecTest, RoundTripsEveryObservableField) {
  CheckConfig cfg;
  cfg.protocol = GetParam();
  cfg.num_clients = 3;
  cfg.reads_per_client = 2;
  cfg.writes_per_client = 2;

  Rng rng(4242);
  World w = check::make_initial_world(cfg);
  const std::vector<NodeId> identity =
      check::identity_labeling(cfg.num_clients);
  std::vector<std::uint8_t> bytes, bytes2, key, key2;
  for (int step = 0; step < 80; ++step) {
    const auto actions = enabled_actions(w);
    if (actions.empty()) break;
    apply_action(w, actions[rng.uniform_index(actions.size())],
                 cfg.channel_capacity);

    check::serialize_world(w, bytes);
    World back;
    ASSERT_TRUE(check::deserialize_world(
        cfg, bytes.data(), bytes.data() + bytes.size(), back));

    // Bytes fix-point, behaviour key equal, and the path-local oracle
    // history intact.
    check::serialize_world(back, bytes2);
    EXPECT_EQ(bytes, bytes2);
    check::encode_key(w, key, identity.data());
    check::encode_key(back, key2, identity.data());
    EXPECT_EQ(key, key2);
    EXPECT_EQ(back.version_counter, w.version_counter);
    EXPECT_EQ(back.issue_counter, w.issue_counter);
    EXPECT_EQ(back.latest_version, w.latest_version);
    EXPECT_EQ(back.latest_value, w.latest_value);
    EXPECT_EQ(back.commit_log, w.commit_log);
    EXPECT_EQ(back.issued, w.issued);
    EXPECT_EQ(back.last_read_version, w.last_read_version);
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, SnapshotCodecTest,
                         ::testing::ValuesIn(protocols::kAllProtocols),
                         [](const auto& info) {
                           std::string name =
                               protocols::to_string(info.param);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

/// Snapshots of the states random walks reach under `cfg`: each walk
/// starts at the initial state and runs until no action is enabled, and
/// walks repeat until they total at least `min_steps` steps.
std::vector<std::vector<std::uint8_t>> walk_snapshots(const CheckConfig& cfg,
                                                      std::uint64_t seed,
                                                      int min_steps) {
  Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> snapshots;
  int steps = 0;
  while (steps < min_steps) {
    World w = check::make_initial_world(cfg);
    for (auto actions = enabled_actions(w); !actions.empty();
         actions = enabled_actions(w)) {
      apply_action(w, actions[rng.uniform_index(actions.size())],
                   cfg.channel_capacity);
      snapshots.emplace_back();
      check::serialize_world(w, snapshots.back());
      ++steps;
    }
  }
  return snapshots;
}

/// Decodes every snapshot into one reused World and into a fresh one; the
/// two must serialize to the same bytes and share the behaviour key.  A
/// decode_state that leaves a field of the previous state behind shows up
/// as a difference.
void expect_reused_decode_matches_fresh(const CheckConfig& cfg,
                                        const std::string& what) {
  World reused;
  const std::vector<NodeId> identity =
      check::identity_labeling(cfg.num_clients);
  std::vector<std::uint8_t> bytes_reused, bytes_fresh, key_reused, key_fresh;
  for (const auto& snap : walk_snapshots(cfg, 9001, 200)) {
    const std::uint8_t* end = snap.data() + snap.size();
    ASSERT_TRUE(check::deserialize_world(cfg, snap.data(), end, reused));
    World fresh;
    ASSERT_TRUE(check::deserialize_world(cfg, snap.data(), end, fresh));
    check::serialize_world(reused, bytes_reused);
    check::serialize_world(fresh, bytes_fresh);
    ASSERT_EQ(bytes_reused, bytes_fresh) << what;
    ASSERT_EQ(bytes_reused, snap) << what;
    check::encode_key(reused, key_reused, identity.data());
    check::encode_key(fresh, key_fresh, identity.data());
    ASSERT_EQ(key_reused, key_fresh) << what;
  }
}

TEST(ReusedDecodeTest, MatchesFreshDecodeForEveryProtocolAtN3) {
  for (const ProtocolKind kind : protocols::kAllProtocols)
    expect_reused_decode_matches_fresh(protocol_walk_config(kind, 3),
                                       protocols::to_string(kind));
}

TEST(ReusedDecodeTest, MatchesFreshDecodeForEveryMigrationPairAtN2) {
  for (const ProtocolKind from : protocols::kAllProtocols)
    for (const ProtocolKind to : protocols::kAllProtocols)
      expect_reused_decode_matches_fresh(migration_walk_config(from, to),
                                         pair_name(from, to));
}

/// What expect_undo_restores_parent exercised.
struct UndoCounts {
  std::size_t undone = 0;        // steps applied and undone
  std::size_t truncated = 0;     // of them, steps with a cut send
  std::size_t home_to_home = 0;  // of them, deliveries home -> home
};

/// Random walks under `cfg`.  Every state on a walk is handled as the
/// reduced engine handles a parent: decoded once from its snapshot, then
/// every enabled action is applied and taken back by undo_step in turn,
/// once at channel_capacity 1, where sends to a nonempty channel are cut,
/// and once at the configuration's capacity.  After each undo the World
/// must serialize to the parent's snapshot byte for byte and give its
/// behaviour key.  The walk then moves to a random successor at the
/// configuration's capacity with no cut send and no violation, as the
/// engine would.
UndoCounts expect_undo_restores_parent(const CheckConfig& cfg,
                                       std::uint64_t seed, int min_steps,
                                       const std::string& what) {
  const NodeId home = static_cast<NodeId>(cfg.num_clients);
  const std::vector<NodeId> identity =
      check::identity_labeling(cfg.num_clients);
  Rng rng(seed);
  UndoCounts counts;
  World w;
  check::Ledger ledger;
  std::vector<std::uint8_t> parent, parent_key, bytes, key;
  for (int steps = 0; steps < min_steps;) {
    w = check::make_initial_world(cfg);
    for (;;) {
      check::serialize_world(w, parent);
      EXPECT_TRUE(check::deserialize_world(
          cfg, parent.data(), parent.data() + parent.size(), w));
      ledger = static_cast<const check::Ledger&>(w);
      check::encode_key(w, parent_key, identity.data());
      std::vector<WalkAction> clean;
      for (const WalkAction& a : enabled_actions(w)) {
        for (const std::size_t capacity : {std::size_t{1},
                                           cfg.channel_capacity}) {
          StepOutcome out;
          fsm::Message msg;
          if (a.issue)
            check::apply_issue(w, a.node, a.op, capacity, out, msg);
          else
            check::apply_deliver(w, a.src, a.node, capacity, out, msg);
          check::undo_step(w, parent.data(), ledger);
          check::serialize_world(w, bytes);
          check::encode_key(w, key, identity.data());
          if (bytes != parent || key != parent_key) {
            ADD_FAILURE() << what << ": undoing "
                          << (a.issue ? "an issue at " : "a delivery to ")
                          << a.node << " at capacity " << capacity
                          << " did not restore the parent";
            return counts;
          }
          ++counts.undone;
          if (out.truncated) ++counts.truncated;
          if (!a.issue && a.src == home && a.node == home)
            ++counts.home_to_home;
          if (capacity == cfg.channel_capacity && !out.truncated &&
              out.invariant == nullptr)
            clean.push_back(a);
        }
      }
      if (clean.empty()) break;
      apply_action(w, clean[rng.uniform_index(clean.size())],
                   cfg.channel_capacity);
      if (::testing::Test::HasFatalFailure()) return counts;
      ++steps;
    }
  }
  return counts;
}

TEST(UndoStepTest, RestoresTheParentForEveryProtocolAtN2ToN4) {
  UndoCounts total;
  for (const ProtocolKind kind : protocols::kAllProtocols) {
    for (std::size_t clients = 2; clients <= 4; ++clients) {
      const UndoCounts c = expect_undo_restores_parent(
          protocol_walk_config(kind, clients), 31 * clients, 150,
          std::string(protocols::to_string(kind)) + " N=" +
              std::to_string(clients));
      total.undone += c.undone;
      total.truncated += c.truncated;
    }
  }
  EXPECT_GT(total.undone, 0u);
  EXPECT_GT(total.truncated, 0u);
}

TEST(UndoStepTest, RestoresTheParentForEveryMigrationPairAtN2) {
  UndoCounts total;
  for (const ProtocolKind from : protocols::kAllProtocols) {
    for (const ProtocolKind to : protocols::kAllProtocols) {
      const UndoCounts c = expect_undo_restores_parent(
          migration_walk_config(from, to), 53, 150, pair_name(from, to));
      total.undone += c.undone;
      total.truncated += c.truncated;
      total.home_to_home += c.home_to_home;
    }
  }
  EXPECT_GT(total.truncated, 0u);
  // The migration wrapper's fence sends home -> home, so deliveries on
  // that channel are undone too.
  EXPECT_GT(total.home_to_home, 0u);
}

// ---------------------------------------------------------------------------
// StateStore.
// ---------------------------------------------------------------------------

TEST(StateStoreTest, FirstClaimWinsExactlyOnce) {
  StateStore store(1000);
  Rng rng(7);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 500; ++i) keys.push_back(rng.next());
  for (std::uint64_t k : keys) EXPECT_TRUE(store.insert(k));
  for (std::uint64_t k : keys) {
    EXPECT_FALSE(store.insert(k));
    EXPECT_TRUE(store.contains(k));
  }
  EXPECT_EQ(store.size(), keys.size());
}

TEST(StateStoreTest, ZeroKeyIsClaimable) {
  StateStore store(16);
  EXPECT_FALSE(store.contains(0));
  EXPECT_TRUE(store.insert(0));
  EXPECT_FALSE(store.insert(0));
  EXPECT_TRUE(store.contains(0));
}

TEST(StateStoreTest, SkewedKeysStillSpread) {
  // Canonical keys are orbit minima: heavily biased toward small values.
  // The store must take and find them all, however they cluster.
  StateStore store(20000);
  for (std::uint64_t k = 1; k <= 20000; ++k)
    ASSERT_TRUE(store.insert(k)) << k;
  for (std::uint64_t k = 1; k <= 20000; ++k)
    ASSERT_TRUE(store.contains(k)) << k;
  EXPECT_FALSE(store.contains(20001));
}

TEST(StateStoreTest, GrowingKeepsEveryClaimedKey) {
  // The store grows itself as the checker's merge claims states; a grown
  // store must still report every previously claimed key as present (a
  // key lost in the rehash would let BFS revisit, and re-expand, a whole
  // subtree).
  StateStore store(16);
  Rng rng(11);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 40000; ++i) keys.push_back(rng.next());
  std::size_t grown = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t capacity = store.capacity();
    ASSERT_TRUE(store.insert(keys[i])) << i;
    if (store.capacity() != capacity) ++grown;
    if (i % 97 == 0) {
      ASSERT_FALSE(store.insert(keys[i / 2]));
    }
  }
  EXPECT_GT(grown, 5u);
  EXPECT_EQ(store.size(), keys.size());
  for (std::uint64_t k : keys) ASSERT_TRUE(store.contains(k)) << k;
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  for (std::uint64_t k : keys) ASSERT_FALSE(store.contains(k)) << k;
}

// ---------------------------------------------------------------------------
// Parallel exploration: the same search at every thread count.
// ---------------------------------------------------------------------------

/// What a search reports that must not depend on the thread count: the
/// seven counts, the verdict, the state names, the violation and every
/// counterexample step.  decodes and restores are left out: at more than
/// one thread they also count work on duplicates found by different
/// tasks.
std::string outcome(const CheckResult& r) {
  std::string out = "states " + std::to_string(r.states) +
                    ", transitions " + std::to_string(r.transitions) +
                    ", max_depth " + std::to_string(r.max_depth) +
                    ", probes " + std::to_string(r.probes) +
                    ", por_pruned " + std::to_string(r.por_pruned) +
                    ", symmetry_hits " + std::to_string(r.symmetry_hits) +
                    ", relabelings " + std::to_string(r.relabelings) +
                    (r.hit_state_cap ? ", capped" : "") +
                    (r.ok() ? ", ok" : ", violated") + "\nnames:";
  for (const std::string& name : r.visited_state_names) out += " " + name;
  for (const check::Violation& v : r.violations)
    out += "\n" + std::string(v.invariant) + ": " + v.detail;
  for (const check::CheckStep& step : r.counterexample) {
    out += step.kind == check::CheckStep::Kind::kIssue ? "\nissue " :
                                                          "\ndeliver ";
    out += std::to_string(step.node) + " from " + std::to_string(step.src) +
           " op " + std::to_string(static_cast<int>(step.op)) + " " +
           step.msg.debug_string() + " hops " +
           std::to_string(step.msg.hops) + " sender " +
           std::to_string(step.msg.sender);
  }
  return out;
}

/// Runs `cfg` three times at each of 1, 2 and 4 worker threads; every run
/// must report what the first one-thread run did, which is returned.
CheckResult expect_same_at_every_thread_count(CheckConfig cfg,
                                              const std::string& what) {
  cfg.threads = 1;
  const CheckResult first = check::check_protocol(cfg);
  const std::string want = outcome(first);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (int run = 0; run < 3; ++run) {
      if (threads == 1 && run == 0) continue;
      cfg.threads = threads;
      const CheckResult r = check::check_protocol(cfg);
      EXPECT_EQ(r.threads_used, threads) << what;
      EXPECT_EQ(outcome(r), want)
          << what << " at " << threads << " threads, run " << run;
    }
  }
  return first;
}

// The configurations below keep CheckConfig's default budgets, one read
// and one write per client, as the check_verify sweep does.

CheckConfig migration_config(ProtocolKind from, ProtocolKind to,
                             dsm::MigrationWorldOptions::Fault fault) {
  dsm::MigrationWorldOptions options;
  options.from = from;
  options.to = to;
  options.num_clients = 2;
  options.fault = fault;
  return dsm::migration_check_config(options);
}

TEST(ParallelCheckTest, ThreadCountDoesNotChangeResults) {
  for (const ProtocolKind kind : protocols::kAllProtocols) {
    CheckConfig cfg;
    cfg.protocol = kind;
    cfg.num_clients = 3;
    const CheckResult r = expect_same_at_every_thread_count(
        cfg, std::string(protocols::to_string(kind)) + " N=3");
    EXPECT_TRUE(r.ok()) << protocols::to_string(kind);
    EXPECT_FALSE(r.hit_state_cap) << protocols::to_string(kind);
  }
}

TEST(ParallelCheckTest, ThreadCountDoesNotChangeMigrationResults) {
  for (const ProtocolKind from : protocols::kAllProtocols)
    for (const ProtocolKind to : protocols::kAllProtocols) {
      const CheckResult r = expect_same_at_every_thread_count(
          migration_config(from, to, dsm::MigrationWorldOptions::Fault::kNone),
          pair_name(from, to));
      EXPECT_TRUE(r.ok()) << pair_name(from, to);
      EXPECT_FALSE(r.hit_state_cap) << pair_name(from, to);
    }
}

TEST(ParallelCheckTest, ThreadCountDoesNotChangeCounterexamples) {
  // The two broken handoffs over every pair: 66 of the 128 worlds
  // violate an invariant, each with its counterexample.
  std::size_t violated = 0;
  for (const auto fault : {dsm::MigrationWorldOptions::Fault::kSkipFence,
                           dsm::MigrationWorldOptions::Fault::kNoSeed})
    for (const ProtocolKind from : protocols::kAllProtocols)
      for (const ProtocolKind to : protocols::kAllProtocols) {
        const std::string what =
            pair_name(from, to) +
            (fault == dsm::MigrationWorldOptions::Fault::kNoSeed
                 ? " without seed"
                 : " without fence");
        if (!expect_same_at_every_thread_count(
                 migration_config(from, to, fault), what)
                 .ok())
          ++violated;
      }
  EXPECT_GT(violated, 0u);
}

TEST(ParallelCheckTest, StateCapIsExactAtEveryThreadCount) {
  CheckConfig cfg;
  cfg.protocol = ProtocolKind::kBerkeley;
  cfg.num_clients = 3;
  cfg.max_states = 1000;
  const CheckResult r = expect_same_at_every_thread_count(cfg, "berkeley N=3");
  EXPECT_EQ(r.states, 1000u);
  EXPECT_TRUE(r.hit_state_cap);
}

}  // namespace
}  // namespace drsm
