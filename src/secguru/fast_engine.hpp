#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/header.hpp"
#include "net/interval.hpp"
#include "obs/metrics.hpp"
#include "secguru/contracts.hpp"
#include "secguru/engine.hpp"
#include "secguru/rule.hpp"

namespace dcv::secguru {

/// A 5-dimensional hyperrectangle of packet headers: the set of packets a
/// rule or contract filter matches. Every filter in the policy language
/// (CIDR prefixes, closed port ranges, protocol number or wildcard) is a
/// product of per-dimension intervals, so any rule/contract is exactly one
/// cube — the concrete domain the fast (non-SMT) engine computes over.
struct PacketCube {
  net::AddressInterval src;
  net::PortRange src_ports;
  net::AddressInterval dst;
  net::PortRange dst_ports;
  /// Closed protocol-number interval; the `ip` wildcard is [0, 255].
  std::uint8_t proto_lo = 0;
  std::uint8_t proto_hi = 0xFF;

  [[nodiscard]] static PacketCube from_rule(const Rule& rule);
  [[nodiscard]] static PacketCube from_contract(
      const ConnectivityContract& contract);

  /// True iff every dimension is non-empty (lo <= hi).
  [[nodiscard]] bool valid() const;

  /// The overlap of the two cubes, or nullopt when they are disjoint.
  [[nodiscard]] std::optional<PacketCube> intersect(
      const PacketCube& other) const;

  [[nodiscard]] bool overlaps(const PacketCube& other) const {
    return intersect(other).has_value();
  }

  [[nodiscard]] bool contains(const net::PacketHeader& packet) const;

  /// A concrete packet inside the cube (the per-dimension low corner) —
  /// the witness extracted when the cube demonstrates a violation.
  [[nodiscard]] net::PacketHeader low_corner() const;

  /// Appends onto `out` disjoint cubes exactly covering `this \ other`
  /// (at most 10: two per dimension). Appends `*this` unchanged when the
  /// cubes are disjoint; appends nothing when `other` covers this cube.
  void subtract(const PacketCube& other, std::vector<PacketCube>& out) const;

  [[nodiscard]] std::string to_string() const;
};

/// Verdict of the non-SMT decision procedure alone.
enum class FastVerdict : std::uint8_t {
  kHolds,
  kViolated,
  /// The residual-cube set exceeded the configured budget before the
  /// check completed; the caller must fall back to the Z3 engine.
  kInconclusive,
};

struct FastDecision {
  FastVerdict verdict = FastVerdict::kInconclusive;
  std::optional<net::PacketHeader> witness;
};

struct FastEngineConfig {
  /// Residual-cube budget per contract check. Interval subtraction can
  /// fragment the undecided region combinatorially on adversarial rule
  /// sets; past this budget the check is abandoned as inconclusive and
  /// the contract goes to Z3 instead. Real ACL/NSG workloads stay far
  /// below the default.
  std::size_t max_residual_cubes = 4096;
};

/// The SecGuru fast path: decides contracts by concrete interval set
/// algebra over 5-tuple hyperrectangles, falling back to the Z3-backed
/// `Engine` only when the residual computation exceeds its cube budget.
///
/// Both combination conventions are supported exactly:
///
///  * first-applicable (Definition 3.1): walk the rules in order keeping
///    the set of contract packets not yet decided (as disjoint cubes). A
///    rule whose action contradicts the expectation and overlaps the
///    undecided set yields an immediate witness; a rule consistent with it
///    is subtracted. Packets surviving every rule hit the implicit default
///    deny.
///  * deny-overrides (Definition 3.2): a packet is admitted iff some
///    permit matches and no deny does, so allow contracts check deny
///    overlap plus permit coverage, and deny contracts check each
///    permit-cube residue after subtracting every deny.
///
/// Like `Engine`, a FastEngine instance must not be used from several
/// threads at once; unlike Engine, it parallelizes internally —
/// check_suite shards contracts across worker threads, each with its own
/// pooled Z3 fallback engine (one per thread, since Engine is documented
/// not thread-safe).
class FastEngine {
 public:
  explicit FastEngine(FastEngineConfig config = {},
                      obs::MetricsRegistry* metrics = nullptr);
  ~FastEngine();

  FastEngine(const FastEngine&) = delete;
  FastEngine& operator=(const FastEngine&) = delete;

  /// Checks one contract; identical verdicts to Engine::check (witness
  /// packets may differ — any packet in the violating region is a valid
  /// witness, and both engines report the rule that decides theirs).
  [[nodiscard]] ContractCheckResult check(const Policy& policy,
                                          const ConnectivityContract& contract);

  /// Checks a whole suite, sharding contracts across `threads` workers.
  /// Failures are reported in contract order regardless of thread count.
  [[nodiscard]] PolicyReport check_suite(const Policy& policy,
                                         const ContractSuite& suite,
                                         unsigned threads = 1);

  /// The non-SMT decision procedure alone — never touches Z3. Exposed for
  /// tests and benches; `check` is this plus the fallback and reporting.
  [[nodiscard]] FastDecision try_decide(
      const Policy& policy, const ConnectivityContract& contract) const;

  /// Checks decided by interval algebra alone (no Z3) so far.
  [[nodiscard]] std::uint64_t fastpath_hits() const {
    return fastpath_hits_.load(std::memory_order_relaxed);
  }
  /// Checks that fell back to the Z3 engine so far.
  [[nodiscard]] std::uint64_t smt_fallbacks() const {
    return smt_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  /// One Z3 engine per worker slot, created on first fallback. Slots are
  /// touched by exactly one worker during a parallel section, so access
  /// needs no lock once the pool vector is sized (done before spawning).
  Engine& fallback_engine(std::size_t slot);
  void ensure_pool(std::size_t slots);

  [[nodiscard]] ContractCheckResult check_one(
      const Policy& policy, const ConnectivityContract& contract,
      std::size_t slot);

  FastEngineConfig config_;
  std::vector<std::unique_ptr<Engine>> pool_;
  std::atomic<std::uint64_t> fastpath_hits_{0};
  std::atomic<std::uint64_t> smt_fallbacks_{0};
  obs::Counter* fastpath_hits_metric_ = nullptr;
  obs::Counter* smt_fallbacks_metric_ = nullptr;
  obs::Histogram* check_ns_ = nullptr;
};

/// Incremental re-checking of one contract suite across rule edits — the
/// rcdc::VerdictCache playbook applied to SecGuru: between runs only the
/// contracts whose filter cube intersects an edited rule's cube (old or new
/// version) can change verdict, so everything else replays its cached
/// result. Edits are detected by diffing the rule lists (longest common
/// prefix + suffix of content-equal rules; everything between counts as
/// changed), which is exact for the 1-rule insert/delete/modify edits of a
/// change workflow. A semantics or wholesale change degrades to a full
/// re-check, never to a wrong answer.
class IncrementalSuiteChecker {
 public:
  /// `metrics`, when set, receives dcv_secguru_contracts_{reverified,
  /// skipped}_total and must outlive the checker.
  IncrementalSuiteChecker(FastEngine& engine, ContractSuite suite,
                          obs::MetricsRegistry* metrics = nullptr);

  struct Outcome {
    PolicyReport report;
    std::size_t reverified = 0;
    std::size_t skipped = 0;
  };

  /// Checks the suite against `policy`, re-verifying only contracts whose
  /// candidate rule set intersects the diff from the previous call.
  [[nodiscard]] Outcome check(const Policy& policy);

  /// Drops cached verdicts; the next check re-verifies every contract.
  void reset();

  [[nodiscard]] const ContractSuite& suite() const { return suite_; }

 private:
  FastEngine* engine_;
  ContractSuite suite_;
  std::vector<PacketCube> contract_cubes_;
  Policy cached_policy_;
  bool primed_ = false;
  std::vector<ContractCheckResult> results_;  // one per contract
  obs::Counter* reverified_total_ = nullptr;
  obs::Counter* skipped_total_ = nullptr;
};

}  // namespace dcv::secguru
