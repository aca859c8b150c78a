// Per-LC health state machine for fragment failover.
//
// Every line card keeps its own view of every remote LC's health — a row of
// alive / suspect / down entries driven purely by evidence the observer
// itself sees: a request timeout against a target bumps its streak
// (alive → suspect at `suspect_after` consecutive timeouts, suspect → down
// at `down_after`), and any reply or probe reply from the target resets it
// to alive. Rows are observer-private: an observer's view changes only on
// evidence that observer received.
//
// Probing: an observer that finds a target non-alive may send it a probe,
// paced by `probe_interval` per (observer, target) pair. The tracker only
// does the pacing bookkeeping; sending the probe (and losing it to the same
// outage that killed the target) is the router core's business.
#pragma once

#include <cstdint>
#include <vector>

namespace spal::core {

enum class PeerState : std::uint8_t { kAlive, kSuspect, kDown };

class HealthTracker {
 public:
  /// State-machine edge reported back to the caller so it can count
  /// transitions.
  enum class Transition : std::uint8_t { kNone, kSuspect, kDown };

  HealthTracker() = default;
  HealthTracker(int num_lcs, int suspect_after, int down_after)
      : num_lcs_(num_lcs),
        suspect_after_(suspect_after < 1 ? 1 : suspect_after),
        down_after_(down_after < suspect_after ? suspect_after : down_after),
        entries_(static_cast<std::size_t>(num_lcs) *
                 static_cast<std::size_t>(num_lcs)) {}

  /// Forget everything (between independent runs).
  void reset() {
    for (Entry& e : entries_) e = Entry{};
  }

  PeerState state(int observer, int target) const {
    return at(observer, target).state;
  }
  bool alive(int observer, int target) const {
    return at(observer, target).state == PeerState::kAlive;
  }

  /// A request the observer sent `target` timed out. Returns the state
  /// transition this evidence caused, if any.
  Transition note_timeout(int observer, int target) {
    Entry& e = at(observer, target);
    ++e.streak;
    if (e.state == PeerState::kAlive && e.streak >= suspect_after_) {
      e.state = PeerState::kSuspect;
      return Transition::kSuspect;
    }
    if (e.state == PeerState::kSuspect && e.streak >= down_after_) {
      e.state = PeerState::kDown;
      return Transition::kDown;
    }
    return Transition::kNone;
  }

  /// The observer heard from `target` (data reply or probe reply). Returns
  /// true when this revived a non-alive entry (a recovery).
  bool note_alive(int observer, int target) {
    Entry& e = at(observer, target);
    const bool revived = e.state != PeerState::kAlive;
    e.state = PeerState::kAlive;
    e.streak = 0;
    return revived;
  }

  bool probe_due(int observer, int target, std::uint64_t now) const {
    return now >= at(observer, target).next_probe;
  }
  void probe_sent(int observer, int target, std::uint64_t now,
                  std::uint64_t interval) {
    at(observer, target).next_probe = now + (interval < 1 ? 1 : interval);
  }

  int num_lcs() const { return num_lcs_; }

 private:
  struct Entry {
    PeerState state = PeerState::kAlive;
    int streak = 0;                 ///< consecutive timeouts since last reply
    std::uint64_t next_probe = 0;   ///< earliest cycle the next probe may go
  };

  Entry& at(int observer, int target) {
    return entries_[static_cast<std::size_t>(observer) *
                        static_cast<std::size_t>(num_lcs_) +
                    static_cast<std::size_t>(target)];
  }
  const Entry& at(int observer, int target) const {
    return entries_[static_cast<std::size_t>(observer) *
                        static_cast<std::size_t>(num_lcs_) +
                    static_cast<std::size_t>(target)];
  }

  int num_lcs_ = 0;
  int suspect_after_ = 1;
  int down_after_ = 1;
  std::vector<Entry> entries_;
};

}  // namespace spal::core
