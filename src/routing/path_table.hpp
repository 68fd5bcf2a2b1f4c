#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "topology/device.hpp"

namespace dcv::routing {

/// Identity of a hash-consed AS-path in a PathTable. Id 0 is the empty
/// path (locally originated routes). Within one table, two paths are
/// content-equal iff their ids are equal, so RIB comparison degrades to an
/// integer compare.
using PathId = std::uint32_t;

inline constexpr PathId kEmptyPathId = 0;

/// Global hash-consed AS-path storage: every distinct AS-path in the
/// process is stored exactly once and addressed by a 32-bit PathId.
///
/// AS-paths in a Clos are massively shared — every device of a tier
/// selects routes whose paths differ only in the leading ASN, and the
/// regional layer collapses private tails — so one table serving every
/// simulator keeps total path storage near the count of *distinct* paths
/// in the fabric instead of one heap vector per RIB entry.
///
/// Concurrency: the table is append-only and lock-striped. intern() takes
/// one stripe mutex (paths hash to a stripe, so unrelated interns do not
/// contend); view() is lock-free — records live in pre-sized block arrays
/// published with release stores, and the ASN bytes they point at are
/// written before the record is indexed and never change afterwards.
/// Ids are never recycled; memory is bounded by the number of distinct
/// paths ever interned (small: paths are a few ASNs and heavily reused).
class PathTable {
 public:
  PathTable() = default;
  PathTable(const PathTable&) = delete;
  PathTable& operator=(const PathTable&) = delete;

  /// Returns the id of the unique stored path with these contents,
  /// creating it on first sight. Thread-safe. The empty path is kEmptyPathId
  /// without touching any stripe.
  [[nodiscard]] PathId intern(std::span<const topo::Asn> path);

  /// The stored contents of a path. Lock-free; the returned span is valid
  /// for the table's lifetime. kEmptyPathId yields an empty span; an id
  /// this table never issued throws InvalidArgument. Inline: route
  /// selection resolves a path per announcement it considers.
  [[nodiscard]] std::span<const topo::Asn> view(PathId id) const {
    if (id == kEmptyPathId) return {};
    const std::uint32_t v = id - 1;
    const Stripe& stripe = stripes_[v % kStripes];
    const std::uint32_t record_index = v / kStripes;
    if (record_index >= stripe.count.load(std::memory_order_acquire)) {
      throw_unknown_id();
    }
    const Record* records =
        stripe.blocks[record_index >> kBlockBits].load(
            std::memory_order_acquire);
    const Record& record = records[record_index & (kBlockSize - 1)];
    return {record.data, record.length};
  }

  /// Number of distinct non-empty paths interned so far (approximate under
  /// concurrent interning).
  [[nodiscard]] std::size_t size() const;

  /// Resident bytes attributable to path payloads and records (excludes
  /// the hash indexes; approximate under concurrent interning).
  [[nodiscard]] std::size_t bytes() const;

 private:
  // Id layout: (record_index * kStripes + stripe) + 1. 64 stripes leave
  // ~67M paths per stripe before the 32-bit space runs out — far beyond
  // the distinct-path count of any fabric we simulate.
  static constexpr std::uint32_t kStripes = 64;
  static constexpr std::size_t kBlockBits = 12;  // 4096 records per block
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockBits;
  static constexpr std::size_t kMaxBlocks = 1024;
  /// ASN payload chunk: one allocation amortizes thousands of paths.
  static constexpr std::size_t kChunkAsns = 1 << 14;

  struct Record {
    const topo::Asn* data = nullptr;
    std::uint32_t length = 0;
  };

  /// Out of line so the inline view() stays a few loads.
  [[noreturn]] static void throw_unknown_id();

  struct SpanHash {
    using is_transparent = void;
    std::size_t operator()(std::span<const topo::Asn> path) const noexcept {
      std::size_t h = 0xcbf29ce484222325ull;  // FNV-1a
      for (const topo::Asn asn : path) {
        h ^= asn;
        h *= 0x100000001b3ull;
      }
      return h;
    }
    std::size_t operator()(const Record& record) const noexcept {
      return (*this)(std::span<const topo::Asn>(record.data, record.length));
    }
  };

  struct SpanEq {
    using is_transparent = void;
    static std::span<const topo::Asn> as_span(const Record& r) noexcept {
      return {r.data, r.length};
    }
    static std::span<const topo::Asn> as_span(
        std::span<const topo::Asn> s) noexcept {
      return s;
    }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const noexcept {
      const auto sa = as_span(a);
      const auto sb = as_span(b);
      return sa.size() == sb.size() &&
             std::equal(sa.begin(), sa.end(), sb.begin());
    }
  };

  struct Stripe {
    std::mutex mutex;
    /// Content → record index within this stripe. Guarded by mutex; keys
    /// reference the immutable record storage.
    std::unordered_map<Record, std::uint32_t, SpanHash, SpanEq> index;
    /// Record blocks, published with release stores as they are created;
    /// readers load acquire and index without locks.
    std::array<std::atomic<Record*>, kMaxBlocks> blocks{};
    /// ASN payload chunks. Each chunk is reserved to kChunkAsns up front
    /// and never reallocates, so record pointers into it stay valid.
    std::deque<std::vector<topo::Asn>> chunks;
    std::atomic<std::uint32_t> count{0};
    std::atomic<std::size_t> payload_bytes{0};

    ~Stripe() {
      for (std::atomic<Record*>& block : blocks) {
        delete[] block.load(std::memory_order_relaxed);
      }
    }
  };

  std::array<Stripe, kStripes> stripes_;
};

/// The process-wide table every Rib's PathIds resolve against. One shared
/// table is what makes PathId comparison equivalent to path comparison
/// across simulators (worklist engine vs reference oracle, warm vs cold).
[[nodiscard]] PathTable& global_path_table();

}  // namespace dcv::routing
