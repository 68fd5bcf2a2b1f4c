#include "routing/path_table.hpp"

#include "net/error.hpp"

namespace dcv::routing {

PathId PathTable::intern(std::span<const topo::Asn> path) {
  if (path.empty()) return kEmptyPathId;
  const std::size_t hash = SpanHash{}(path);
  const std::uint32_t stripe_id =
      static_cast<std::uint32_t>(hash % kStripes);
  Stripe& stripe = stripes_[stripe_id];

  const std::lock_guard lock(stripe.mutex);
  const auto it = stripe.index.find(path);
  if (it != stripe.index.end()) {
    return it->second * kStripes + stripe_id + 1;
  }

  const std::uint32_t record_index =
      stripe.count.load(std::memory_order_relaxed);
  const std::size_t block = record_index >> kBlockBits;
  if (block >= kMaxBlocks) throw InvalidArgument("PathTable stripe full");

  // Copy the ASN payload into the current chunk (chunks are reserved up
  // front and never reallocate, so the record's pointer stays valid).
  if (stripe.chunks.empty() ||
      stripe.chunks.back().size() + path.size() >
          stripe.chunks.back().capacity()) {
    stripe.chunks.emplace_back();
    stripe.chunks.back().reserve(std::max(kChunkAsns, path.size()));
  }
  std::vector<topo::Asn>& chunk = stripe.chunks.back();
  const topo::Asn* data = chunk.data() + chunk.size();
  chunk.insert(chunk.end(), path.begin(), path.end());

  Record* records = stripe.blocks[block].load(std::memory_order_acquire);
  if (records == nullptr) {
    records = new Record[kBlockSize];
    stripe.blocks[block].store(records, std::memory_order_release);
  }
  Record& record = records[record_index & (kBlockSize - 1)];
  record.data = data;
  record.length = static_cast<std::uint32_t>(path.size());
  stripe.index.emplace(record, record_index);
  // Publish after the record is fully written: a racing view() of this id
  // can only hold the id after this store (or after a later intern of the
  // same path synchronized through the stripe mutex).
  stripe.count.store(record_index + 1, std::memory_order_release);
  stripe.payload_bytes.fetch_add(path.size() * sizeof(topo::Asn),
                                 std::memory_order_relaxed);
  return record_index * kStripes + stripe_id + 1;
}

void PathTable::throw_unknown_id() { throw InvalidArgument("unknown PathId"); }

std::size_t PathTable::size() const {
  std::size_t total = 0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.count.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t PathTable::bytes() const {
  std::size_t total = 0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.payload_bytes.load(std::memory_order_relaxed);
    const std::uint32_t records = stripe.count.load(std::memory_order_relaxed);
    const std::size_t blocks = (records + kBlockSize - 1) >> kBlockBits;
    total += blocks * kBlockSize * sizeof(Record);
  }
  return total;
}

PathTable& global_path_table() {
  static PathTable table;
  return table;
}

}  // namespace dcv::routing
