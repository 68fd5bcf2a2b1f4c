#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rcdc/contract.hpp"
#include "routing/fib.hpp"

namespace dcv::rcdc {

/// Semantic content fingerprint of a forwarding table: invariant under
/// permutation of rule storage order and of each rule's ECMP next-hop set
/// (equivalent tables fingerprint identically; never returns the 0
/// "no verdict" sentinel).
[[nodiscard]] std::uint64_t fingerprint(const routing::ForwardingTable& fib);

/// The fingerprint → skip → replay cache of RCDC's always-on loop
/// (§2.6.1).
///
/// Locality makes incrementality trivial: a device's verdict depends only
/// on its own FIB and its contracts, and contracts depend only on the
/// expected topology (§2.4). So a device whose table content is unchanged
/// since its last verdict needs no re-verification — tables are still
/// pulled every cycle (that is how change is observed), but verification
/// work drops to the changed set and cached violations are replayed.
///
/// One slot per device holds the fingerprint of the table the verdict was
/// computed on and that verdict's violations. The whole cache is keyed to
/// one contract-plan epoch: adopting a different epoch drops every verdict
/// because contracts may have changed for any device.
///
/// Concurrency: store() writes one device's slot and nothing else, so
/// threads handling distinct devices may store (and hit/replay their own
/// devices) concurrently without a lock. adopt() and size() touch every
/// slot and must not overlap any other call.
class VerdictCache {
 public:
  /// One device's verdict as reported for this cycle.
  struct Replay {
    std::span<const Violation> violations;
    /// How many of `violations` count at degraded confidence: all of them
    /// when the table they are reported for was degraded (stale fallback,
    /// truncated or corrupted pull), none otherwise.
    std::size_t violations_degraded = 0;
  };

  /// Keys the cache to `plan_epoch` over `device_count` devices. A change
  /// of epoch (or the first call) drops every verdict and resizes the slots;
  /// the same epoch keeps them. Returns true when the cache was reset.
  bool adopt(std::uint64_t plan_epoch, std::size_t device_count);

  /// Fingerprint of the table behind `device`'s cached verdict; 0 when no
  /// verdict is cached (or the id is out of range).
  [[nodiscard]] std::uint64_t fingerprint(topo::DeviceId device) const {
    return device < slots_.size() ? slots_[device].fingerprint : 0;
  }

  /// True when a verdict is cached for a table with fingerprint `print`.
  /// Fingerprint 0 never hits: it marks "not fingerprinted".
  [[nodiscard]] bool hit(topo::DeviceId device, std::uint64_t print) const {
    return print != 0 && fingerprint(device) == print;
  }

  /// Records `device`'s fresh verdict on a table with fingerprint `print`
  /// (0 stores the verdict without making it replayable). Out-of-range ids
  /// are ignored.
  void store(topo::DeviceId device, std::uint64_t print,
             std::vector<Violation> violations);

  /// `device`'s cached verdict, replayed for a table fetched this cycle
  /// with the given degradation.
  [[nodiscard]] Replay replay(topo::DeviceId device, bool degraded) const;

  /// Devices holding a replayable verdict.
  [[nodiscard]] std::size_t size() const;

 private:
  struct Slot {
    std::uint64_t fingerprint = 0;
    std::vector<Violation> violations;
  };

  /// All-ones until the first adopt(): no plan has that epoch.
  std::uint64_t plan_epoch_ = ~std::uint64_t{0};
  std::vector<Slot> slots_;
};

}  // namespace dcv::rcdc
