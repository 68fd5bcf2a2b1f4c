#include "rcdc/verdict_cache.hpp"

#include <algorithm>
#include <utility>

#include "net/hash.hpp"

namespace dcv::rcdc {

using net::mix64;

std::uint64_t fingerprint(const routing::ForwardingTable& fib) {
  // Semantic content hash: each rule is hashed independently and the rule
  // hashes are combined with wrap-around addition, so neither the order
  // rules are stored in nor the order ECMP next hops arrived in changes the
  // fingerprint — two permuted-but-equivalent tables must not look changed
  // to the verdict cache. (ForwardingTable canonicalizes on add(); hashing
  // order-insensitively keeps equivalence intact for any table whose rules
  // reach us pre-built, e.g. parsed or corrupted pulls.)
  std::uint64_t table_acc = 0;
  for (const routing::Rule& rule : fib.rules()) {
    std::uint64_t hops_acc = 0;
    for (const topo::DeviceId hop : rule.next_hops) {
      hops_acc += mix64(static_cast<std::uint64_t>(hop) + 1);
    }
    std::uint64_t rule_hash =
        mix64(rule.prefix.network().value() ^
              (static_cast<std::uint64_t>(rule.prefix.length()) << 33) ^
              (rule.connected ? 1ull << 32 : 0));
    rule_hash = mix64(rule_hash ^ hops_acc ^
                      mix64(rule.next_hops.size()));
    table_acc += mix64(rule_hash);
  }
  const std::uint64_t hash = mix64(table_acc ^ fib.size());
  // Reserve 0 as the "no verdict" sentinel.
  return hash == 0 ? 1 : hash;
}

bool VerdictCache::adopt(std::uint64_t plan_epoch, std::size_t device_count) {
  if (plan_epoch == plan_epoch_ && slots_.size() == device_count) {
    return false;
  }
  plan_epoch_ = plan_epoch;
  slots_.assign(device_count, Slot{});
  return true;
}

void VerdictCache::store(topo::DeviceId device, std::uint64_t print,
                         std::vector<Violation> violations) {
  if (device >= slots_.size()) return;
  Slot& slot = slots_[device];
  slot.fingerprint = print;
  slot.violations = std::move(violations);
}

VerdictCache::Replay VerdictCache::replay(topo::DeviceId device,
                                          bool degraded) const {
  if (device >= slots_.size()) return {};
  const std::vector<Violation>& violations = slots_[device].violations;
  return Replay{violations, degraded ? violations.size() : 0};
}

std::size_t VerdictCache::size() const {
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const Slot& slot) { return slot.fingerprint != 0; }));
}

}  // namespace dcv::rcdc
