#include "violations/detector.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "common/value_pool.h"
#include "violations/eval_kernel.h"

namespace dbim {

namespace {

// The detector is a *driver* over the shared eval kernel
// (violations/eval_kernel.h): predicate plans, interned-row evaluation,
// blocking-key hashing and the k-ary enumeration all live there, shared
// with the incremental index. What remains here is the batch pipeline —
// pass structure, sharding, the ordered merges that make results
// bit-identical for every thread count, and the caps/deadline bookkeeping.

// Shared mutable state threaded through the detection passes.
// (BlockingKeys / ExtractBlockingKeys live in constraints/dc.h, shared with
// the incremental index's per-fact probes.)
struct DetectionState {
  ViolationSet result;
  std::unordered_set<FactId> self_inconsistent;
  const DetectorOptions* options;
  Deadline deadline{0.0};
  bool stop = false;

  void NoteLimits() {
    if (options->max_subsets > 0 &&
        result.num_minimal_subsets() >= options->max_subsets) {
      result.set_truncated(true);
      stop = true;
    }
    if (deadline.Expired()) {
      result.set_truncated(true);
      stop = true;
    }
  }
};

// Scheduling grain shared by every parallel phase (pass-1 scan, bucket
// build, probe, k-ary enumeration): the work-stealing scheduler never
// claims a sub-range smaller than this many rows, bounding per-claim
// scheduling overhead. Claims start much coarser and shrink toward the
// tail (see OrderedStealingFor), so skewed per-row costs cannot serialize
// a phase on one fat chunk.
constexpr size_t kMinProbeChunkRows = 64;

// Geometric decay applied to every constraint's activity score once per
// detection, so the score tracks recent fire history rather than all-time
// totals.
constexpr double kActivityDecay = 0.95;

// Parallel-path scaffolding shared by the sharded phases (pass-1 scan,
// bucket build, k-ary enumeration, binary probe): work-stealing workers
// run `shard(range, buffer)` over scheduler-chosen sub-ranges of [0, n) —
// `shard` returns true when it stopped at an expired cooperative deadline
// poll — and the range-private buffers are consumed in canonical
// ascending index order with `merge` (which returns false to stop
// consumption: a cap or deadline decision at a merge point). Because
// every shard emits per row in row order and all cross-range decisions
// live in `merge`, the merged stream is the sequential discovery order no
// matter where the scheduler cut the range boundaries — the concatenation
// rule OrderedStealingFor's determinism contract requires. A consumed
// range whose shard expired has its partial buffer merged first — a
// canonical prefix, since poll points are global-index-aligned — then
// `on_expired()` runs and consumption stops, cancelling unclaimed
// territory.
template <typename Buffer, typename ShardFn, typename MergeFn,
          typename ExpiredFn>
void ParallelPhase(size_t num_threads, size_t n, ShardFn&& shard,
                   MergeFn&& merge, ExpiredFn&& on_expired) {
  struct ShardResult {
    Buffer buffer;
    bool expired = false;
  };
  std::mutex mu;
  std::map<size_t, ShardResult> results;  // keyed by range.begin
  OrderedStealingFor(
      num_threads, n, kMinProbeChunkRows,
      [&](IndexRange range) {
        ShardResult r;
        r.expired = shard(range, r.buffer);
        std::lock_guard<std::mutex> lock(mu);
        results.emplace(range.begin, std::move(r));
      },
      [&](IndexRange range) {
        ShardResult r;
        {
          std::lock_guard<std::mutex> lock(mu);
          const auto it = results.find(range.begin);
          r = std::move(it->second);
          results.erase(it);  // range consumed; free the buffer eagerly
        }
        if (!merge(r.buffer)) return false;
        if (r.expired) {
          on_expired();
          return false;
        }
        return true;
      });
}

// One shard of the binary-constraint probe phase: probes rows
// [range.begin, range.end) of the variable-0 relation block and feeds
// every surviving candidate pair — body verified, self-inconsistent facts
// and reflexive matches filtered — to `emit(a, b)` (a < b or a == b
// cross-relation) in the sequential path's discovery order (probe row
// ascending, bucket/inner row order within). `emit` returning false stops
// the shard; worker shards never stop (they buffer into chunk-private
// vectors, and deduplication, the subset cap and the deadline — all
// global-order-dependent — are applied by the ordered merge, making
// results bit-identical for any thread count), while the sequential fast
// path merges inline and keeps the first-witness early exit that
// Satisfies' max_subsets = 1 probes rely on. Reads shared state (blocks,
// eval plan, buckets) strictly read-only.
struct ProbeShardInput {
  const DcEval* eval;
  const Database::RelationBlock* r0;
  const Database::RelationBlock* r1;
  const BlockingKeys* keys;
  const std::unordered_map<uint64_t, std::vector<uint32_t>>* buckets;
  const std::unordered_set<FactId>* self_inconsistent;
  bool blocked = false;
};

// Returns true when the shard stopped early because `deadline` expired at
// a cooperative poll point (blocked mode polls per probe row, nested-loop
// mode per (i, j) pair — both aligned to global indices, see
// kDeadlinePollInterval); false when the shard ran to completion or was
// stopped by `emit`.
template <typename Emit>
bool ProbeShard(const ProbeShardInput& in, IndexRange range,
                const Deadline& deadline, Emit&& emit) {
  const DenialConstraint& dc = in.eval->dc();
  const bool same_relation = dc.var_relation(0) == dc.var_relation(1);
  auto consider = [&](uint32_t i, uint32_t j) {
    // i indexes r0 (variable t), j indexes r1 (variable t'). Returns
    // false to stop the shard.
    const FactId a = in.r0->row_ids[i];
    const FactId b = in.r1->row_ids[j];
    if (a == b && same_relation) return true;
    if (in.self_inconsistent->count(a) > 0 ||
        in.self_inconsistent->count(b) > 0) {
      return true;
    }
    const RowRef assignment[2] = {RowRef{in.r0, i}, RowRef{in.r1, j}};
    if (!in.eval->BodyHolds(assignment)) return true;
    return emit(std::min(a, b), std::max(a, b));
  };
  if (in.blocked) {
    for (uint32_t i = static_cast<uint32_t>(range.begin);
         i < static_cast<uint32_t>(range.end); ++i) {
      if (PollDeadline(i, deadline)) return true;
      const RowRef probe{in.r0, i};
      const auto it = in.buckets->find(HashKeyClasses(probe, in.keys->var0));
      if (it == in.buckets->end()) continue;
      for (const uint32_t j : it->second) {
        if (!KeyClassesEqual(probe, in.keys->var0, RowRef{in.r1, j},
                             in.keys->var1)) {
          continue;  // hash collision
        }
        if (!consider(i, j)) return false;
      }
    }
  } else {
    // Nested-loop work is quadratic, so per-row polls could leave O(|r1|)
    // work between clock checks; poll on the global pair index instead.
    const uint64_t inner = in.r1->num_rows();
    for (uint32_t i = static_cast<uint32_t>(range.begin);
         i < static_cast<uint32_t>(range.end); ++i) {
      for (uint32_t j = 0; j < inner; ++j) {
        if (PollDeadline(i * inner + j, deadline)) return true;
        if (!consider(i, j)) return false;
      }
    }
  }
  return false;
}

}  // namespace

ViolationDetector::ViolationDetector(std::shared_ptr<const Schema> schema,
                                     std::vector<DenialConstraint> constraints,
                                     DetectorOptions options)
    : schema_(std::move(schema)),
      constraints_(std::move(constraints)),
      options_(options) {
  DBIM_CHECK(schema_ != nullptr);
  activity_.resize(constraints_.size());
}

DetectorConstraintStats ViolationDetector::constraint_stats(size_t c) const {
  DBIM_CHECK(c < activity_.size());
  std::lock_guard<std::mutex> lock(activity_mu_);
  return activity_[c];
}

ViolationSet ViolationDetector::Detect(const Database& db,
                                       const DetectorOptions& options) const {
  DetectionState state;
  state.options = &options;
  state.deadline = Deadline(options.deadline_seconds);

  const ValuePool& pool = db.pool();
  const size_t num_threads = options.num_threads == 0
                                 ? ThreadPool::HardwareThreads()
                                 : options.num_threads;

  // Pass 1: self-inconsistent facts. These are the singleton minimal
  // subsets, and they disqualify any larger subset containing them. The
  // scan over each constraint's relation block is sharded by row range;
  // chunk-private hit buffers merge (set inserts, order-insensitive) in
  // canonical ascending order, so the set content — and where a
  // cooperative deadline poll lands, if one fires — is the same for every
  // thread count.
  bool scan_expired = false;
  for (const DenialConstraint& dc : constraints_) {
    if (scan_expired) break;
    if (dc.TriviallyNotUnary()) continue;
    const RelationId rel0 = dc.var_relation(0);
    bool single_relation = true;
    for (const RelationId r : dc.var_relations()) {
      if (r != rel0) single_relation = false;
    }
    if (!single_relation) continue;
    const DcEval eval(dc, pool);
    const Database::RelationBlock& block = db.relation_block(rel0);
    // Returns true when the deadline expired at a poll point mid-scan.
    auto scan_rows = [&](IndexRange range, std::vector<FactId>& hits) {
      std::vector<RowRef> assignment;
      for (uint32_t i = static_cast<uint32_t>(range.begin);
           i < static_cast<uint32_t>(range.end); ++i) {
        if (PollDeadline(i, state.deadline)) return true;
        assignment.assign(dc.num_vars(), RowRef{&block, i});
        if (eval.BodyHolds(assignment.data())) {
          hits.push_back(block.row_ids[i]);
        }
      }
      return false;
    };
    if (num_threads <= 1 || block.num_rows() < 2 * kMinProbeChunkRows) {
      std::vector<FactId> hits;
      scan_expired = scan_rows(IndexRange{0, block.num_rows()}, hits);
      state.self_inconsistent.insert(hits.begin(), hits.end());
      continue;
    }
    ParallelPhase<std::vector<FactId>>(
        num_threads, block.num_rows(),
        [&](IndexRange range, std::vector<FactId>& hits) {
          return scan_rows(range, hits);
        },
        [&](std::vector<FactId>& hits) {
          state.self_inconsistent.insert(hits.begin(), hits.end());
          return true;
        },
        [&] { scan_expired = true; });
  }
  // Singleton subsets are emitted in id order so the result layout is a
  // pure function of (Sigma, D) — the anchor of the parallel-parity
  // guarantee below.
  std::vector<FactId> singletons(state.self_inconsistent.begin(),
                                 state.self_inconsistent.end());
  std::sort(singletons.begin(), singletons.end());
  for (const FactId id : singletons) {
    state.result.Add({id});
    state.NoteLimits();
    if (state.stop) return std::move(state.result);
  }
  if (scan_expired) {
    state.result.set_truncated(true);
    return std::move(state.result);
  }

  // Pass 2: binary constraints in ascending index order — blocked on their
  // cross-variable equality key, nested-loop when they have none; k-ary
  // constraints through the kernel's sharded enumeration.
  {
    std::lock_guard<std::mutex> lock(activity_mu_);
    for (DetectorConstraintStats& a : activity_) a.activity *= kActivityDecay;
  }

  std::vector<std::vector<FactId>> kary_candidates;
  // Probes one pass-2 constraint. `probes` counts candidates reaching the
  // merge point, `fires` subsets admitted into the result; k-ary candidates
  // count when merged (pre-minimality), matching the incremental index's
  // accounting.
  auto probe_constraint = [&](const DenialConstraint& dc, uint64_t& probes,
                              uint64_t& fires) {
    const DcEval eval(dc, pool);
    if (dc.num_vars() >= 3) {
      // The enumeration is sharded over outermost-variable row ranges;
      // inner variables stay exhaustive, so concatenating shard outputs in
      // ascending chunk order reproduces the sequential discovery order.
      // The deadline is polled once per merged candidate (as the
      // sequential path always did) plus cooperatively inside the kernel's
      // enumeration (every level, global-prefix-aligned).
      const Database::RelationBlock& outer =
          db.relation_block(dc.var_relation(0));
      auto merge_support = [&](std::vector<FactId> support) {
        ++probes;
        ++fires;
        kary_candidates.push_back(std::move(support));
        if (state.deadline.Expired()) {
          state.result.set_truncated(true);
          state.stop = true;
          return false;
        }
        return true;
      };
      if (num_threads <= 1 || outer.num_rows() < 2 * kMinProbeChunkRows) {
        if (EnumerateKAry(eval, db, IndexRange{0, outer.num_rows()},
                          state.deadline, merge_support)) {
          state.result.set_truncated(true);
          state.stop = true;
        }
        return;
      }
      ParallelPhase<std::vector<std::vector<FactId>>>(
          num_threads, outer.num_rows(),
          [&](IndexRange range, std::vector<std::vector<FactId>>& found) {
            return EnumerateKAry(eval, db, range, state.deadline,
                                 [&](std::vector<FactId> support) {
                                   found.push_back(std::move(support));
                                   return true;
                                 });
          },
          [&](std::vector<std::vector<FactId>>& found) {
            for (auto& support : found) {
              if (!merge_support(std::move(support))) return false;
            }
            return true;
          },
          [&] {
            state.result.set_truncated(true);
            state.stop = true;
          });
      return;
    }
    const Database::RelationBlock& r0 = db.relation_block(dc.var_relation(0));
    const Database::RelationBlock& r1 = db.relation_block(dc.var_relation(1));

    const BlockingKeys keys = ExtractBlockingKeys(dc);
    ProbeShardInput shard_input;
    shard_input.eval = &eval;
    shard_input.r0 = &r0;
    shard_input.r1 = &r1;
    shard_input.keys = &keys;
    shard_input.self_inconsistent = &state.self_inconsistent;
    shard_input.blocked = !keys.empty();

    // Hash var-1 side, probe with var-0 side. Bucket keys are FNV mixes
    // of interned class ids; bucket membership is verified with id
    // compares, so the whole probe path is free of Value hashing and
    // comparison. The build is sharded by j range into chunk-private maps;
    // merging them in canonical ascending chunk order concatenates each
    // bucket's row lists with ascending j — exactly the sequential build's
    // bucket layout, so the probe's discovery order is untouched. (Which
    // bucket a key lands in is key-determined, so per-chunk map iteration
    // order is irrelevant.)
    std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
    if (shard_input.blocked) {
      // The build polls the deadline cooperatively like every other phase
      // (global-index-aligned rows, so where it stops is the same for every
      // sharding); an expired build truncates the run before probing — its
      // partial bucket map is never consulted.
      using BucketMap = std::unordered_map<uint64_t, std::vector<uint32_t>>;
      // Returns true when the deadline expired at a poll point mid-build.
      auto build_rows = [&](IndexRange range, BucketMap& map) {
        for (uint32_t j = static_cast<uint32_t>(range.begin);
             j < static_cast<uint32_t>(range.end); ++j) {
          if (PollDeadline(j, state.deadline)) return true;
          map[HashKeyClasses(RowRef{&r1, j}, keys.var1)].push_back(j);
        }
        return false;
      };
      if (num_threads <= 1 || r1.num_rows() < 2 * kMinProbeChunkRows) {
        buckets.reserve(r1.num_rows());
        if (build_rows(IndexRange{0, r1.num_rows()}, buckets)) {
          state.result.set_truncated(true);
          state.stop = true;
        }
      } else {
        buckets.reserve(r1.num_rows());
        ParallelPhase<BucketMap>(
            num_threads, r1.num_rows(),
            [&](IndexRange range, BucketMap& map) {
              map.reserve(range.size());
              return build_rows(range, map);
            },
            [&](BucketMap& map) {
              for (auto& [key, rows] : map) {
                auto& dst = buckets[key];
                if (dst.empty()) {
                  dst = std::move(rows);
                } else {
                  dst.insert(dst.end(), rows.begin(), rows.end());
                }
              }
              return true;
            },
            [&] {
              state.result.set_truncated(true);
              state.stop = true;
            });
      }
      if (state.stop) return;  // the caller's loop breaks before the next DC
    }
    shard_input.buckets = &buckets;

    // Symmetric-pair dedup (FD-style bodies match both orders of a pair;
    // the per-constraint dedup keeps the (F, sigma) minimal-violation
    // count honest), the subset cap and the deadline all depend on global
    // candidate order, so they only ever advance on this thread, in
    // canonical discovery order.
    std::unordered_set<uint64_t> seen_pairs;
    auto merge_candidate = [&](FactId a, FactId b) {
      ++probes;
      const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
      if (!seen_pairs.insert(key).second) return true;
      ++fires;
      state.result.Add({a, b});
      state.NoteLimits();
      return !state.stop;
    };

    if (num_threads <= 1) {
      // Sequential fast path: candidates merge inline, pair by pair, so a
      // max_subsets stop (e.g. Satisfies' cap of 1) exits at the first
      // witness with no buffering — the pre-sharding behavior.
      if (ProbeShard(shard_input, IndexRange{0, r0.num_rows()},
                     state.deadline, merge_candidate)) {
        state.result.set_truncated(true);
        state.stop = true;
      }
      return;
    }

    // Parallel path: the probe phase is sharded by probe-row range.
    // Stealing workers fill range-private candidate buffers; the ordered
    // merge below consumes them on this thread in ascending index order.
    // Concatenating ranges in order reproduces the sequential discovery
    // order exactly, so the resulting ViolationSet is bit-identical for
    // every thread count; a merge-time stop cancels unclaimed territory
    // (claimed ranges finish and are discarded, a bounded overshoot). A
    // shard that stopped at a cooperative deadline poll keeps its partial
    // buffer — a canonical prefix, since poll points are
    // global-index-aligned — and the merge truncates there.
    ParallelPhase<std::vector<std::pair<FactId, FactId>>>(
        num_threads, r0.num_rows(),
        [&](IndexRange range, std::vector<std::pair<FactId, FactId>>& found) {
          return ProbeShard(shard_input, range, state.deadline,
                            [&](FactId a, FactId b) {
                              found.emplace_back(a, b);
                              return true;
                            });
        },
        [&](const std::vector<std::pair<FactId, FactId>>& found) {
          for (const auto& [a, b] : found) {
            if (!merge_candidate(a, b)) return false;
          }
          return true;
        },
        [&] {
          state.result.set_truncated(true);
          state.stop = true;
        });
  };
  for (size_t dci = 0; dci < constraints_.size(); ++dci) {
    if (state.stop) break;
    const DenialConstraint& dc = constraints_[dci];
    if (dc.num_vars() == 1) continue;  // covered by pass 1
    uint64_t probes = 0;
    uint64_t fires = 0;
    probe_constraint(dc, probes, fires);
    std::lock_guard<std::mutex> lock(activity_mu_);
    activity_[dci].num_probes += probes;
    activity_[dci].num_fires += fires;
    activity_[dci].activity += static_cast<double>(fires);
  }

  // Pass 3: minimality filter for k-ary candidate supports. A candidate
  // survives iff no singleton/pair of the result and no other (smaller)
  // candidate is a proper subset of it. Prior witnesses are indexed by
  // member fact, so each candidate scans only the witnesses sharing one of
  // its members — O(sum of its members' posting lists) — instead of the
  // whole result + accepted lists (the old O(c^2) scan). The candidate
  // order is canonical (size, then lexicographic), so the per-candidate
  // cooperative deadline poll lands at the same global candidate index on
  // every run; index 0 never polls, preserving "a truncated result carries
  // its first subset".
  if (!kary_candidates.empty() && !state.stop) {
    std::sort(kary_candidates.begin(), kary_candidates.end(),
              [](const auto& a, const auto& b) {
                if (a.size() != b.size()) return a.size() < b.size();
                return a < b;
              });
    auto contains = [](const std::vector<FactId>& big,
                       const std::vector<FactId>& small) {
      return std::includes(big.begin(), big.end(), small.begin(), small.end());
    };
    // Witness store: the singletons/pairs already in the result, then the
    // accepted candidates as they are admitted. postings maps a member fact
    // to its witness slots; visited stamps deduplicate slots shared by
    // several members of one candidate.
    std::vector<std::vector<FactId>> witnesses;
    std::unordered_map<FactId, std::vector<uint32_t>> postings;
    auto post = [&](const std::vector<FactId>& subset) {
      const uint32_t slot = static_cast<uint32_t>(witnesses.size());
      witnesses.push_back(subset);
      for (const FactId id : subset) postings[id].push_back(slot);
    };
    for (const auto& sub : state.result.minimal_subsets()) post(sub);
    std::vector<uint32_t> visited;
    uint32_t stamp = 0;
    for (size_t ci = 0; ci < kary_candidates.size(); ++ci) {
      if (PollDeadline(ci, state.deadline)) {
        state.result.set_truncated(true);
        state.stop = true;
        break;
      }
      const auto& cand = kary_candidates[ci];
      bool minimal = true;
      for (const FactId id : cand) {
        if (state.self_inconsistent.count(id) > 0) {
          minimal = cand.size() == 1;
          break;
        }
      }
      if (minimal) {
        ++stamp;
        visited.resize(witnesses.size(), 0);
        for (const FactId id : cand) {
          const auto it = postings.find(id);
          if (it == postings.end()) continue;
          for (const uint32_t slot : it->second) {
            if (visited[slot] == stamp) continue;
            visited[slot] = stamp;
            const auto& sub = witnesses[slot];
            if (sub.size() < cand.size() && contains(cand, sub)) {
              minimal = false;
              break;
            }
          }
          if (!minimal) break;
        }
      }
      if (!minimal) continue;
      post(cand);
      state.result.Add(cand);
      state.NoteLimits();
      if (state.stop) break;
    }
  }

  return std::move(state.result);
}

ViolationSet ViolationDetector::FindViolations(const Database& db) const {
  return Detect(db, options_);
}

bool ViolationDetector::Satisfies(const Database& db) const {
  // Early exit on the first witness; runs the shared detection pipeline
  // directly instead of copying the constraint set into a probe detector.
  DetectorOptions fast = options_;
  fast.max_subsets = 1;
  // Force the sequential inline-merge path: worker shards never stop
  // mid-chunk, so a threaded probe would compute and buffer every
  // in-flight chunk before the merge sees the first witness — pure waste
  // when one pair answers the question.
  fast.num_threads = 1;
  return Detect(db, fast).empty();
}

ViolationSet ViolationDetector::FindViolationsInvolving(const Database& db,
                                                        FactId id) const {
  DBIM_CHECK(db.Contains(id));
  ViolationSet all = FindViolations(db);
  ViolationSet out;
  out.set_truncated(all.truncated());
  for (const auto& subset : all.minimal_subsets()) {
    if (std::binary_search(subset.begin(), subset.end(), id)) {
      out.Add(subset);
    }
  }
  return out;
}

}  // namespace dbim
