#ifndef DBIM_COMMON_PARALLEL_H_
#define DBIM_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dbim {

/// A small reusable worker pool. Tasks are fire-and-forget closures;
/// callers coordinate completion themselves (see OrderedStealingFor, which
/// is the intended way to consume the pool). The process-wide pool behind
/// `Global()` is created lazily and grows on demand, so single-threaded
/// callers never pay for a thread spawn.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for any idle worker.
  void Submit(std::function<void()> task);

  /// Grows the pool to at least `num_workers` (capped at kMaxWorkers).
  void EnsureWorkers(size_t num_workers);

  size_t num_workers() const;

  /// The lazily created process-wide pool.
  static ThreadPool& Global();

  /// std::thread::hardware_concurrency with a floor of 1.
  static size_t HardwareThreads();

  /// Upper bound on pool size; requests beyond it are clamped. Generous so
  /// determinism tests can oversubscribe a small machine.
  static constexpr size_t kMaxWorkers = 64;

 private:
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool shutting_down_ = false;
};

/// A contiguous half-open index range [begin, end).
struct IndexRange {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
};

/// Work-stealing ordered parallel-for over the index range [0, n).
///
/// Workers (up to `num_threads - 1` pool threads plus the calling thread,
/// which helps while waiting) repeatedly *steal* sub-ranges from a shared
/// queue of unclaimed territory: each claim peels a prefix off the
/// remainder, sized adaptively — half the remaining work divided among
/// the workers, never below `grain` — so early claims are coarse (low
/// scheduling overhead) and the tail is fine-grained (no worker idles
/// while another grinds through a fat region). A skewed per-index cost distribution therefore
/// cannot serialize the run on the fattest static chunk: hungry workers
/// keep peeling sub-chunks off the territory that chunk would have owned
/// under a fixed split.
///
/// `compute(range)` runs concurrently over disjoint sub-ranges covering
/// [0, n) and must only write state owned by its range. `consume(range)`
/// runs on the calling thread in ascending index order (consecutive
/// ranges, lowest first), after that range's compute finished. Discrete
/// tasks (one measure, one database) use grain 1 and loop over the range.
///
/// Sub-range *boundaries* depend on scheduling, so determinism needs two
/// (caller-checked) rules: `compute`'s observable output for a range must
/// equal the concatenation of its outputs over any partition of that range
/// (true for the detector's probe, whose ranges emit per probe row in row
/// order, even when one range spans several constraints), and every
/// cross-range decision (e.g. dedup) must live in `consume`. Under those
/// rules the observable result is bit-identical for every `num_threads`,
/// including 1.
///
/// The calling thread helps compute unclaimed sub-ranges while waiting,
/// so a `compute` that itself calls OrderedStealingFor (nested fan-out
/// from a pool worker) cannot deadlock on a saturated pool: every consumer
/// can drive its own ranges to completion single-handedly.
///
/// With `num_threads <= 1` (or n <= grain) everything runs inline on the
/// calling thread as one compute + one consume of [0, n) — no pool, no
/// synchronization.
void OrderedStealingFor(size_t num_threads, size_t n, size_t grain,
                        const std::function<void(IndexRange)>& compute,
                        const std::function<void(IndexRange)>& consume);

}  // namespace dbim

#endif  // DBIM_COMMON_PARALLEL_H_
