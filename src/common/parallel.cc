#include "common/parallel.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "common/check.h"

namespace dbim {

ThreadPool::ThreadPool(size_t num_workers) {
  EnsureWorkers(num_workers);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DBIM_CHECK(!shutting_down_);
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::EnsureWorkers(size_t num_workers) {
  num_workers = std::min(num_workers, kMaxWorkers);
  std::lock_guard<std::mutex> lock(mutex_);
  while (workers_.size() < num_workers) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

size_t ThreadPool::num_workers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

ThreadPool& ThreadPool::Global() {
  // Never destroyed: worker threads must outlive every static whose
  // destructor might still submit work during process teardown.
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

size_t ThreadPool::HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {

// Shared coordination state of one OrderedStealingFor run. Heap-allocated
// and captured by shared_ptr in every submitted pool task, because on a
// saturated pool (e.g. nested fan-out occupying every worker) some tasks
// may only get to run long after the call returned: such stragglers must
// be able to lock the state, observe "nothing left to claim", and exit
// without touching the caller's stack. The copied `compute` function may
// hold caller-stack references, but it is only ever invoked for a
// successfully claimed range, and the caller does not return while any
// claimed range is still in flight.
//
// Claims always peel a *prefix* off the unclaimed territory [next, n), so
// claim order equals ascending index order: the consumer's cursor range is
// always the oldest claim, and `done` (keyed by range begin) fills in
// front-to-back. That is what keeps ordered consumption cheap — no
// reordering buffer, just "is the range starting at cursor finished yet".
struct StealState {
  std::mutex mutex;
  std::condition_variable changed;
  size_t n = 0;
  size_t grain = 1;
  size_t num_workers = 1;      // claim-sizing divisor (pool tasks + caller)
  size_t next = 0;             // begin of unclaimed territory; guarded
  size_t computing = 0;        // claimed ranges in flight; guarded
  bool cancel = false;         // guarded
  std::map<size_t, size_t> done;  // begin -> end, computed not consumed
  std::function<void(IndexRange)> compute;

  // Steals the next sub-range (a prefix of the unclaimed territory), or an
  // empty range when cancelled or exhausted. Guided sizing: half the
  // remainder split across the workers, floored at `grain`, so claims
  // shrink geometrically toward the tail. Claim and in-flight accounting
  // are one critical section, so the caller's drain ("computing == 0")
  // can never miss a claimed range.
  IndexRange Claim() {
    std::lock_guard<std::mutex> lock(mutex);
    if (cancel || next >= n) return IndexRange{n, n};
    const size_t remaining = n - next;
    const size_t len =
        std::min(remaining, std::max(grain, remaining / (2 * num_workers)));
    const IndexRange range{next, next + len};
    next = range.end;
    ++computing;
    return range;
  }

  void MarkDone(IndexRange range) {
    std::lock_guard<std::mutex> lock(mutex);
    done.emplace(range.begin, range.end);
    --computing;
    changed.notify_all();
  }

  void RunWorker() {
    for (;;) {
      const IndexRange range = Claim();
      if (range.size() == 0) return;
      compute(range);
      MarkDone(range);
    }
  }
};

}  // namespace

void OrderedStealingFor(size_t num_threads, size_t n, size_t grain,
                        const std::function<void(IndexRange)>& compute,
                        const std::function<bool(IndexRange)>& consume) {
  if (n == 0) return;
  grain = std::max<size_t>(grain, 1);
  if (num_threads <= 1 || n <= grain) {
    const IndexRange all{0, n};
    compute(all);
    consume(all);
    return;
  }

  auto state = std::make_shared<StealState>();
  state->n = n;
  state->grain = grain;
  state->compute = compute;

  ThreadPool& pool = ThreadPool::Global();
  pool.EnsureWorkers(num_threads);
  // The calling thread is a worker too; submit one task fewer than the
  // requested parallelism, and never more tasks than grain-sized slices.
  const size_t pool_tasks =
      std::min(num_threads - 1, std::max<size_t>(n / grain, 1) - 1);
  state->num_workers = pool_tasks + 1;
  for (size_t w = 0; w < pool_tasks; ++w) {
    pool.Submit([state] { state->RunWorker(); });
  }

  // Consume in ascending index order. Before blocking on the cursor
  // range, the consumer helps: it steals and computes unclaimed
  // sub-ranges through the same Claim() the workers use. This keeps the
  // otherwise-idle consumer productive and — more importantly —
  // guarantees progress when a pool worker's task is itself an ordered
  // for (nested fan-out, e.g. a parallel measure evaluation that triggers
  // parallel detection): even with every pool worker occupied, each
  // nested consumer drives its own ranges to completion instead of
  // waiting on a saturated queue, and the starved tasks exit as no-ops
  // whenever they eventually run.
  //
  // The wait below can only release with the cursor range computed: once
  // Claim() runs dry every index up to n has an owner (this thread or a
  // running worker), and owners always finish with MarkDone.
  size_t cursor = 0;
  bool cancelled = false;
  while (cursor < n && !cancelled) {
    IndexRange ready{0, 0};
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(state->mutex);
        const auto it = state->done.begin();
        if (it != state->done.end() && it->first == cursor) {
          ready = IndexRange{it->first, it->second};
          state->done.erase(it);
          break;
        }
      }
      const IndexRange helped = state->Claim();
      if (helped.size() == 0) {
        // All territory claimed; block until the cursor range lands.
        std::unique_lock<std::mutex> lock(state->mutex);
        state->changed.wait(lock, [&] {
          const auto it = state->done.begin();
          return it != state->done.end() && it->first == cursor;
        });
        continue;  // loop back to pop it
      }
      compute(helped);
      state->MarkDone(helped);
    }
    if (!consume(ready)) {
      std::lock_guard<std::mutex> lock(state->mutex);
      state->cancel = true;
      cancelled = true;
    }
    cursor = ready.end;
  }
  // Drain in-flight computes before returning: a worker mid-compute on a
  // cancelled-but-claimed range still references caller buffers. Tasks
  // that never started are NOT waited for — they hold only the shared
  // state and exit via Claim() when the pool gets to them.
  std::unique_lock<std::mutex> lock(state->mutex);
  state->changed.wait(lock, [&] { return state->computing == 0; });
}

void OrderedParallelFor(size_t num_threads, size_t num_chunks,
                        const std::function<void(size_t)>& compute,
                        const std::function<bool(size_t)>& consume) {
  if (num_chunks == 0) return;
  if (num_threads <= 1 || num_chunks == 1) {
    for (size_t c = 0; c < num_chunks; ++c) {
      compute(c);
      if (!consume(c)) break;
    }
    return;
  }
  // Discrete chunks ride the stealing core at grain 1: a claimed range is
  // a run of chunk indices, computed left to right; consumption unrolls
  // ranges back to per-chunk calls, preserving the original contract
  // (ascending order, cancel stops everything unstarted).
  OrderedStealingFor(
      num_threads, num_chunks, 1,
      [&](IndexRange range) {
        for (size_t c = range.begin; c < range.end; ++c) compute(c);
      },
      [&](IndexRange range) {
        for (size_t c = range.begin; c < range.end; ++c) {
          if (!consume(c)) return false;
        }
        return true;
      });
}

}  // namespace dbim
