#ifndef DBIM_STREAMING_STREAM_SESSION_H_
#define DBIM_STREAMING_STREAM_SESSION_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "measures/session.h"
#include "relational/fact.h"

namespace dbim {

/// A sliding window over one MeasureSession handle: facts arrive with a
/// logical tick, expire when the window slides, and every slide is
/// translated into batched Apply insert/delete operations — so the
/// session's incremental violation index does all maintenance work and
/// measures update per slide in O(footprint of the changed facts), never
/// via full re-detection. Memory is bounded by the window: expired facts
/// leave the handle's database entirely.
///
/// Two window kinds (WindowSpec):
///  * count — Push evicts the oldest facts until at most `size` remain;
///    AdvanceTo only moves the clock.
///  * ticks — a fact pushed at tick t is live while t > current - size;
///    Push and AdvanceTo both evict expired facts. Ticks are logical
///    (caller-supplied, monotone); wall-clock and decayed windows are
///    roadmap follow-ups.
///
/// Equivalence invariant (fuzz-verified): after any Push/AdvanceTo/Erase
/// sequence, Evaluate() is bit-identical to a fresh engine over a database
/// holding exactly the live facts.
///
/// Not thread-safe per instance: callers serialize (the service runs each
/// tenant's StreamSession on its per-session serial queue). Distinct
/// StreamSessions over distinct handles of one MeasureSession may run
/// concurrently — they inherit the session's locking.
class StreamSession {
 public:
  /// Registers a fresh empty database on `session`; the handle is owned
  /// and unregistered on destruction.
  StreamSession(MeasureSession* session, WindowSpec window);

  /// Wraps an existing handle (kept on destruction — the caller owns it).
  /// Facts already in the handle become live at the current tick (0), in
  /// ascending id order — how a recovered durable session re-enters
  /// streaming mode.
  StreamSession(MeasureSession* session, WindowSpec window, DbHandle handle);

  ~StreamSession();

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  DbHandle handle() const { return handle_; }
  const WindowSpec& window() const { return window_; }

  /// Inserts `fact` at `tick` (clamped to the current tick if behind),
  /// after expiring whatever the advanced window no longer covers.
  /// Returns the id the session stored the fact under.
  std::optional<FactId> Push(Fact fact, uint64_t tick);

  /// Advances the logical clock, expiring facts a tick window no longer
  /// covers. Returns how many facts expired.
  size_t AdvanceTo(uint64_t tick);

  /// Explicitly deletes a live fact (an out-of-band retraction, e.g. the
  /// service's APPLY DELETE on a windowed session). Returns whether the
  /// fact was in the window.
  bool Erase(FactId id);

  /// Every selected measure over the window's live facts — the session's
  /// ordinary snapshot evaluation; no detection pass on the binary path.
  BatchReport Evaluate() const { return session_->Evaluate(handle_); }

  /// Live fact ids in arrival order.
  std::vector<FactId> LiveIds() const;

  uint64_t current_tick() const { return current_tick_; }
  /// Current window occupancy.
  size_t num_live() const { return live_.size(); }
  /// Push/AdvanceTo calls that expired at least one fact.
  size_t num_slides() const { return num_slides_; }
  /// Total facts expired by window motion (Erase not included).
  size_t num_expired() const { return num_expired_; }

 private:
  struct LiveFact {
    FactId id;
    uint64_t tick;
  };

  /// Expires front facts a tick window no longer covers at `current_tick_`.
  size_t ExpireTicks();
  /// Expires front facts beyond a count window's capacity.
  size_t ExpireCount();
  void ExpireFront();

  MeasureSession* session_;
  WindowSpec window_;
  DbHandle handle_ = 0;
  bool owns_handle_ = false;
  std::deque<LiveFact> live_;  // arrival order: front expires first
  uint64_t current_tick_ = 0;
  size_t num_slides_ = 0;
  size_t num_expired_ = 0;
};

}  // namespace dbim

#endif  // DBIM_STREAMING_STREAM_SESSION_H_
