#ifndef PERFBENCH_COUNTING_BACKEND_H_
#define PERFBENCH_COUNTING_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "storage/backend.h"

namespace perfbench {

/// StorageBackend decorator that counts the write-ahead-log appends, syncs
/// and bytes DurableSessionStore issues and, while timing is on, records
/// each append's latency — the storage layer's spans, taken from outside
/// the store. Everything else forwards unchanged.
///
/// The store serializes WAL calls (one group-commit leader at a time, with
/// leader hand-off under its commit mutex), so the counters need no lock of
/// their own; read them only after the writers have stopped.
class CountingBackend : public dbim::storage::StorageBackend {
 public:
  explicit CountingBackend(
      std::unique_ptr<dbim::storage::StorageBackend> inner)
      : inner_(std::move(inner)) {}

  /// Turns per-call latency recording on or off (counts are always kept).
  void set_timing(bool on) { timing_.store(on, std::memory_order_relaxed); }

  uint64_t appends() const { return appends_; }
  uint64_t syncs() const { return syncs_; }
  uint64_t bytes() const { return bytes_; }
  const std::vector<double>& append_us() const { return append_us_; }

  bool Open(std::string* error) override { return inner_->Open(error); }
  bool WriteSegment(const std::string& name, const std::string& bytes,
                    std::string* error) override {
    return inner_->WriteSegment(name, bytes, error);
  }
  std::unique_ptr<dbim::storage::SegmentView> ReadSegment(
      const std::string& name, std::string* error) override {
    return inner_->ReadSegment(name, error);
  }
  bool RemoveSegment(const std::string& name) override {
    return inner_->RemoveSegment(name);
  }
  std::vector<std::string> ListSegments() override {
    return inner_->ListSegments();
  }
  bool ReadManifest(std::string* bytes, bool* exists,
                    std::string* error) override {
    return inner_->ReadManifest(bytes, exists, error);
  }
  bool CommitManifest(const std::string& bytes, std::string* error) override {
    return inner_->CommitManifest(bytes, error);
  }
  bool WalOpen(const std::string& name, uint64_t truncate_to,
               std::string* error) override {
    return inner_->WalOpen(name, truncate_to, error);
  }
  uint64_t WalSize() const override { return inner_->WalSize(); }

  bool WalAppend(const void* data, size_t size, std::string* error) override {
    const bool timed = timing_.load(std::memory_order_relaxed);
    dbim::Timer timer;
    const bool ok = inner_->WalAppend(data, size, error);
    if (timed) append_us_.push_back(timer.Seconds() * 1e6);
    ++appends_;
    bytes_ += size;
    return ok;
  }

  bool WalSync(std::string* error) override {
    ++syncs_;
    return inner_->WalSync(error);
  }

 private:
  std::unique_ptr<dbim::storage::StorageBackend> inner_;
  std::atomic<bool> timing_{false};
  uint64_t appends_ = 0;
  uint64_t syncs_ = 0;
  uint64_t bytes_ = 0;
  std::vector<double> append_us_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_BACKEND_H_
