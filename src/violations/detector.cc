#include "violations/detector.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/parallel.h"
#include "common/value_pool.h"
#include "violations/eval_kernel.h"
#include "violations/order_index.h"

namespace dbim {

namespace {

// The detector is a *driver* over the shared eval kernel
// (violations/eval_kernel.h): predicate plans, interned-row evaluation,
// blocking-key hashing and the k-ary enumeration all live there, shared
// with the incremental index. What remains here is the batch pipeline —
// pass structure, sharding, the ordered merges that make results
// bit-identical for every thread count. Detection always runs to
// completion; the one early exit is Satisfies' first witness.

// Shared mutable state threaded through the detection passes.
// (BlockingKeys / ExtractBlockingKeys live in constraints/dc.h, shared with
// the incremental index's per-fact probes.)
struct DetectionState {
  ViolationSet result;
  std::unordered_set<FactId> self_inconsistent;
  // A fact set violating several constraints is derived once per
  // constraint: one element of MI, but one minimal violation per
  // derivation. `seen` holds the canonical hashes of result's subsets.
  std::unordered_set<uint64_t> seen;
  // Satisfies' early exit: stop once the result holds one subset. Only the
  // sequential path (which Satisfies forces) checks `stop` mid-phase.
  bool first_witness_only = false;
  bool stop = false;

  void Admit(std::vector<FactId> subset) {
    if (seen.insert(SubsetKey(subset)).second) {
      result.Add(std::move(subset));
    } else {
      result.AddRederivation();
    }
    stop = first_witness_only;
  }
};

// Scheduling grain shared by every parallel phase (pass-1 scan, bucket
// build, probe, k-ary enumeration): the work-stealing scheduler never
// claims a sub-range smaller than this many rows, bounding per-claim
// scheduling overhead. Claims start much coarser and shrink toward the
// tail (see OrderedStealingFor), so skewed per-row costs cannot serialize
// a phase on one fat chunk.
constexpr size_t kMinProbeChunkRows = 64;

// Parallel-path scaffolding shared by the sharded phases (pass-1 scan,
// bucket build, k-ary enumeration, binary probe): work-stealing workers
// run `shard(range, buffer)` over scheduler-chosen sub-ranges of [0, n),
// and the range-private buffers are consumed in canonical ascending index
// order with `merge`. Because every shard emits per row in row order and
// all cross-range decisions live in `merge`, the merged stream is the
// sequential discovery order no matter where the scheduler cut the range
// boundaries — the concatenation rule OrderedStealingFor's determinism
// contract requires.
template <typename Buffer, typename ShardFn, typename MergeFn>
void ParallelPhase(size_t num_threads, size_t n, ShardFn&& shard,
                   MergeFn&& merge) {
  std::mutex mu;
  std::map<size_t, Buffer> results;  // keyed by range.begin
  OrderedStealingFor(
      num_threads, n, kMinProbeChunkRows,
      [&](IndexRange range) {
        Buffer buffer;
        shard(range, buffer);
        std::lock_guard<std::mutex> lock(mu);
        results.emplace(range.begin, std::move(buffer));
      },
      [&](IndexRange range) {
        Buffer buffer;
        {
          std::lock_guard<std::mutex> lock(mu);
          const auto it = results.find(range.begin);
          buffer = std::move(it->second);
          results.erase(it);  // range consumed; free the buffer eagerly
        }
        merge(buffer);
      });
}

// One shard of the binary-constraint probe phase: probes rows
// [range.begin, range.end) of the variable-0 relation block and feeds
// every surviving candidate pair — body verified, self-inconsistent facts
// and reflexive matches filtered — to `emit(a, b)` (a < b or a == b
// cross-relation) in the sequential path's discovery order (probe row
// ascending, bucket row order within). A self-inconsistent probe fact is
// skipped outright. Each other probe row looks up its blocking bucket (a
// keyless constraint has one bucket holding every partner row) and visits,
// ascending, the partners its order keys admit or, with no order key, the
// partners of another `!=` class — at a cost proportional to those
// partners, not to the bucket (see OrderIndex) — and every partner when
// the constraint has neither. `emit` returning
// false stops the shard; worker shards never stop (they buffer into
// chunk-private vectors, and deduplication — global-order-dependent — is
// applied by the ordered merge, making results bit-identical for any
// thread count), while the sequential fast path merges inline and keeps
// the first-witness early exit Satisfies relies on. Reads shared state
// (blocks, eval plan, ranks, buckets) strictly read-only.
struct ProbeShardInput {
  const DcEval* eval;
  const Database::RelationBlock* r0;
  const Database::RelationBlock* r1;
  const BlockingKeys* keys;
  const OrderRanks* ranks;
  const std::unordered_map<uint64_t, OrderIndex>* buckets;
  const std::unordered_set<FactId>* self_inconsistent;
};

template <typename Emit>
void ProbeShard(const ProbeShardInput& in, IndexRange range, Emit&& emit) {
  const DenialConstraint& dc = in.eval->dc();
  const bool same_relation = dc.var_relation(0) == dc.var_relation(1);
  std::vector<uint32_t> scratch;
  for (uint32_t i = static_cast<uint32_t>(range.begin);
       i < static_cast<uint32_t>(range.end); ++i) {
    const RowRef probe{in.r0, i};
    const auto it = in.buckets->find(HashKeyClasses(probe, in.keys->var0));
    if (it == in.buckets->end()) continue;
    const FactId a = in.r0->row_ids[i];
    if (in.self_inconsistent->count(a) > 0) continue;
    const bool go_on = it->second.ForEachPartner(
        *in.ranks, i, scratch, [&](uint32_t j) {
          // i indexes r0 (variable t), j indexes r1 (variable t').
          const RowRef partner{in.r1, j};
          if (!KeyClassesEqual(probe, in.keys->var0, partner,
                               in.keys->var1)) {
            return true;  // hash collision
          }
          const FactId b = in.r1->row_ids[j];
          if (a == b && same_relation) return true;
          if (in.self_inconsistent->count(b) > 0) return true;
          const RowRef assignment[2] = {probe, partner};
          if (!in.eval->BodyHolds(assignment)) return true;
          return emit(std::min(a, b), std::max(a, b));
        });
    if (!go_on) return;
  }
}

}  // namespace

ViolationDetector::ViolationDetector(std::shared_ptr<const Schema> schema,
                                     std::vector<DenialConstraint> constraints,
                                     DetectorOptions options)
    : schema_(std::move(schema)),
      constraints_(std::move(constraints)),
      options_(options) {
  DBIM_CHECK(schema_ != nullptr);
  stats_.resize(constraints_.size());
}

DetectorConstraintStats ViolationDetector::constraint_stats(size_t c) const {
  DBIM_CHECK(c < stats_.size());
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_[c];
}

ViolationSet ViolationDetector::Detect(const Database& db,
                                       bool first_witness_only) const {
  DetectionState state;
  state.first_witness_only = first_witness_only;

  const ValuePool& pool = db.pool();
  size_t num_threads = options_.num_threads == 0
                           ? ThreadPool::HardwareThreads()
                           : options_.num_threads;
  // Satisfies runs sequentially: worker shards never stop mid-chunk, so a
  // threaded probe would compute and buffer every in-flight chunk before
  // the merge sees the first witness.
  if (first_witness_only) num_threads = 1;

  // Pass 1: self-inconsistent facts. These are the singleton minimal
  // subsets, and they disqualify any larger subset containing them. The
  // scan over each constraint's relation block is sharded by row range;
  // chunk-private hit buffers merge (set inserts, order-insensitive), so
  // the set content is the same for every thread count.
  for (const DenialConstraint& dc : constraints_) {
    if (dc.TriviallyNotUnary()) continue;
    const RelationId rel0 = dc.var_relation(0);
    bool single_relation = true;
    for (const RelationId r : dc.var_relations()) {
      if (r != rel0) single_relation = false;
    }
    if (!single_relation) continue;
    const DcEval eval(dc, pool);
    const Database::RelationBlock& block = db.relation_block(rel0);
    auto scan_rows = [&](IndexRange range, std::vector<FactId>& hits) {
      std::vector<RowRef> assignment;
      for (uint32_t i = static_cast<uint32_t>(range.begin);
           i < static_cast<uint32_t>(range.end); ++i) {
        assignment.assign(dc.num_vars(), RowRef{&block, i});
        if (eval.BodyHolds(assignment.data())) {
          hits.push_back(block.row_ids[i]);
        }
      }
    };
    auto merge_hits = [&](std::vector<FactId>& hits) {
      state.self_inconsistent.insert(hits.begin(), hits.end());
    };
    if (num_threads <= 1 || block.num_rows() < 2 * kMinProbeChunkRows) {
      std::vector<FactId> hits;
      scan_rows(IndexRange{0, block.num_rows()}, hits);
      merge_hits(hits);
      continue;
    }
    ParallelPhase<std::vector<FactId>>(num_threads, block.num_rows(),
                                       scan_rows, merge_hits);
  }
  // Singleton subsets are emitted in id order so the result layout is a
  // pure function of (Sigma, D) — the anchor of the parallel-parity
  // guarantee below.
  std::vector<FactId> singletons(state.self_inconsistent.begin(),
                                 state.self_inconsistent.end());
  std::sort(singletons.begin(), singletons.end());
  for (const FactId id : singletons) {
    state.Admit({id});
    if (state.stop) return std::move(state.result);
  }

  // Pass 2: constraints in ascending index order. A binary constraint
  // blocks on its cross-variable equality key (a keyless one is a single
  // bucket), and each probe row visits only the bucket partners that its
  // leading cross-variable order predicates admit or, without one, that
  // its first cross-variable `!=` admits (all of them when it has
  // neither); k-ary constraints go through the kernel's sharded
  // enumeration.

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
      const Database::RelationBlock& outer =
          db.relation_block(dc.var_relation(0));
      auto merge_support = [&](std::vector<FactId> support) {
        ++probes;
        ++fires;
        kary_candidates.push_back(std::move(support));
      };
      if (num_threads <= 1 || outer.num_rows() < 2 * kMinProbeChunkRows) {
        EnumerateKAry(eval, db, IndexRange{0, outer.num_rows()},
                      merge_support);
        return;
      }
      ParallelPhase<std::vector<std::vector<FactId>>>(
          num_threads, outer.num_rows(),
          [&](IndexRange range, std::vector<std::vector<FactId>>& found) {
            EnumerateKAry(eval, db, range, [&](std::vector<FactId> support) {
              found.push_back(std::move(support));
            });
          },
          [&](std::vector<std::vector<FactId>>& found) {
            for (auto& support : found) merge_support(std::move(support));
          });
      return;
    }
    const Database::RelationBlock& r0 = db.relation_block(dc.var_relation(0));
    const Database::RelationBlock& r1 = db.relation_block(dc.var_relation(1));

    const BlockingKeys keys = ExtractBlockingKeys(dc);
    const OrderRanks ranks(dc, pool, r0, r1);

    // Hash var-1 side, probe with var-0 side; a keyless constraint hashes
    // every row alike, into one bucket. Bucket keys are FNV mixes of
    // interned class ids; bucket membership is verified with id compares,
    // so the whole probe path is free of Value hashing. The build is
    // sharded by j range into chunk-private maps; merging them in
    // canonical ascending chunk order concatenates each bucket's row lists
    // with ascending j — exactly the sequential build's bucket layout.
    // (Which bucket a key lands in is key-determined, so per-chunk map
    // iteration order is irrelevant.) Each bucket then builds its order
    // index over its rows.
    using BucketMap = std::unordered_map<uint64_t, OrderIndex>;
    BucketMap buckets;
    auto build_rows = [&](IndexRange range, BucketMap& map) {
      for (uint32_t j = static_cast<uint32_t>(range.begin);
           j < static_cast<uint32_t>(range.end); ++j) {
        map[HashKeyClasses(RowRef{&r1, j}, keys.var1)].rows().push_back(j);
      }
    };
    buckets.reserve(r1.num_rows());
    if (num_threads <= 1 || r1.num_rows() < 2 * kMinProbeChunkRows) {
      build_rows(IndexRange{0, r1.num_rows()}, buckets);
    } else {
      ParallelPhase<BucketMap>(
          num_threads, r1.num_rows(),
          [&](IndexRange range, BucketMap& map) {
            map.reserve(range.size());
            build_rows(range, map);
          },
          [&](BucketMap& map) {
            for (auto& [key, bucket] : map) {
              auto& dst = buckets[key].rows();
              if (dst.empty()) {
                dst = std::move(bucket.rows());
              } else {
                dst.insert(dst.end(), bucket.rows().begin(),
                           bucket.rows().end());
              }
            }
          });
    }
    for (auto& [key, bucket] : buckets) bucket.Build(ranks);

    ProbeShardInput shard_input;
    shard_input.eval = &eval;
    shard_input.r0 = &r0;
    shard_input.r1 = &r1;
    shard_input.keys = &keys;
    shard_input.ranks = &ranks;
    shard_input.buckets = &buckets;
    shard_input.self_inconsistent = &state.self_inconsistent;

    // Symmetric-pair dedup (FD-style bodies match both orders of a pair;
    // the per-constraint dedup keeps the (F, sigma) minimal-violation
    // count honest) depends on global candidate order, so it only ever
    // advances on this thread, in canonical discovery order.
    std::unordered_set<uint64_t> seen_pairs;
    auto merge_candidate = [&](FactId a, FactId b) {
      ++probes;
      const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
      if (!seen_pairs.insert(key).second) return;
      ++fires;
      state.Admit({a, b});
    };

    if (num_threads <= 1) {
      // Sequential fast path: candidates merge inline, pair by pair, so
      // Satisfies exits at the first witness with no buffering.
      ProbeShard(shard_input, IndexRange{0, r0.num_rows()},
                 [&](FactId a, FactId b) {
                   merge_candidate(a, b);
                   return !state.stop;
                 });
      return;
    }

    // Parallel path: the probe phase is sharded by probe-row range.
    // Stealing workers fill range-private candidate buffers; the ordered
    // merge below consumes them on this thread in ascending index order.
    // Concatenating ranges in order reproduces the sequential discovery
    // order exactly, so the resulting ViolationSet is bit-identical for
    // every thread count.
    ParallelPhase<std::vector<std::pair<FactId, FactId>>>(
        num_threads, r0.num_rows(),
        [&](IndexRange range, std::vector<std::pair<FactId, FactId>>& found) {
          ProbeShard(shard_input, range, [&](FactId a, FactId b) {
            found.emplace_back(a, b);
            return true;
          });
        },
        [&](const std::vector<std::pair<FactId, FactId>>& found) {
          for (const auto& [a, b] : found) merge_candidate(a, b);
        });
  };
  for (size_t dci = 0; dci < constraints_.size(); ++dci) {
    if (state.stop) break;
    const DenialConstraint& dc = constraints_[dci];
    if (dc.num_vars() == 1) continue;  // covered by pass 1
    uint64_t probes = 0;
    uint64_t fires = 0;
    probe_constraint(dc, probes, fires);
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_[dci].num_probes += probes;
    stats_[dci].num_fires += fires;
  }

  // Pass 3: minimality filter for k-ary candidate supports. A candidate
  // survives iff no singleton/pair of the result and no other (smaller)
  // candidate is a proper subset of it. Prior witnesses are indexed by
  // member fact, so each candidate scans only the witnesses sharing one of
  // its members — O(sum of its members' posting lists) — instead of the
  // whole result + accepted lists (the old O(c^2) scan). The candidate
  // order is canonical (size, then lexicographic), so admissions are the
  // same on every run.
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
    for (const auto& cand : kary_candidates) {
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
      state.Admit(cand);
      if (state.stop) break;
    }
  }

  return std::move(state.result);
}

ViolationSet ViolationDetector::FindViolations(const Database& db) const {
  return Detect(db, /*first_witness_only=*/false);
}

bool ViolationDetector::Satisfies(const Database& db) const {
  return Detect(db, /*first_witness_only=*/true).empty();
}

}  // namespace dbim
