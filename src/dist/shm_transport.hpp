// ShmTransport: zero-copy shared-memory ring transport for the halo seam.
//
// Every channel (one donor shard -> one consumer shard, one direction) owns
// a POSIX shared-memory segment (shm_open + mmap) holding a bounded ring of
// kRingSlots slots.  stage() packs the donated field planes DIRECTLY into
// the mapped slot — no HaloBuffer heap copy exists on this path
// (wants_buffer_storage() == false) — and publishes the slot with a
// seqlock-style header store; unstage() validates the header and copies the
// planes straight from the mapping into the consumer's ghost planes.  This
// is the DMA-window idiom: a fixed window of reusable descriptors, explicit
// producer backpressure (a stage spins while its slot is still READY), and
// release/acquire ordering carried by the slot state word.
//
// ## Ring-slot wire format (normative — see also src/dist/README.md)
//
// A segment is `kRingSlots` consecutive slots.  Each slot is a 64-byte
// aligned `ShmSlotHeader` followed by a payload area of `payload_capacity`
// bytes (the channel's fixed plane payload, rounded up to 64):
//
//   offset  field           meaning
//   ------  --------------  ------------------------------------------------
//   0       magic     u64   kSlotMagic; anything else = foreign/torn memory
//   8       round     u64   producer sequence number (1-based) stamped at
//                           publish; consumers require it to equal their own
//                           next-expected sequence
//   16      payload_bytes   exact bytes of this donation; must equal the
//                 u64       channel payload both sides derive from the grid
//   24      state     u64   kSlotFree (consumer done, producer may write) or
//                           kSlotReady (published); all other values torn
//   32..63  reserved        zero
//   64      payload         [comp][plane][stride_z complex cells], doubles
//
// Producer protocol: slot = seq % kRingSlots; spin until state == kSlotFree
// (acquire — orders the previous consumer's reads before our writes); pack
// planes into the payload; write magic/round/payload_bytes; store state =
// kSlotReady (release).  Consumer protocol: slot = seq % kRingSlots;
// validate state/magic/round/payload_bytes (state load is the acquire that
// pairs with the producer's release) and THROW std::runtime_error on any
// mismatch — a torn or truncated header is an error, never UB — then copy
// out and store state = kSlotFree (release).
//
// The transport never blocks a consumer waiting for data: HaloExchange's
// round counters already order every stage before its unstage, so a header
// that does not validate is a protocol violation (a drained producer, a
// corrupted segment), not an in-flight race.
//
// Fault points (src/fault/README.md): `transport.shm.map` fires at channel
// creation (mapping failure), `transport.shm.torn` at unstage validation (a
// synthetic torn header); the generic `transport.stage`/`transport.unstage`
// points fire here exactly as in the local transport.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "dist/transport.hpp"

namespace emwd::dist {

inline constexpr std::uint64_t kSlotMagic = 0x454d57444c4f5453ull;  // "EMWDSLOT"
inline constexpr std::uint64_t kSlotFree = 1;
inline constexpr std::uint64_t kSlotReady = 2;
inline constexpr int kRingSlots = 2;

/// The 64-byte slot header at the start of every ring slot.  Atomics are
/// lock-free and address-free for u64 on every supported target, so the
/// same struct overlays the mapping in each mapping process.
struct alignas(64) ShmSlotHeader {
  std::atomic<std::uint64_t> magic;
  std::atomic<std::uint64_t> round;
  std::atomic<std::uint64_t> payload_bytes;
  std::atomic<std::uint64_t> state;
  std::uint64_t reserved[4];
};
static_assert(sizeof(ShmSlotHeader) == 64, "slot header is one cache line");

/// Concrete type exposed (unlike the local transport) so the fuzz tests can
/// reach into the mapped ring and corrupt headers; production code should
/// hold it behind make_shm_transport()/make_transport("shm").
class ShmTransport final : public Transport {
 public:
  ShmTransport();
  ~ShmTransport() override;

  std::string name() const override { return "shm"; }
  bool wants_buffer_storage() const override { return false; }

  void stage(const grid::FieldSet& src, HaloBuffer& buf) override;
  void unstage(grid::FieldSet& dst, const HaloBuffer& buf, int dst_k0,
               int planes) override;
  void reset() override;

  /// Test access: the mapped header of `slot` on channel (src, dst), or
  /// nullptr when that channel has no segment yet.  The fuzz suite mutates
  /// headers through this and asserts unstage throws instead of misreading.
  ShmSlotHeader* debug_slot_header(int src_shard, int dst_shard, int slot);

 private:
  struct Channel;

  Channel& channel_for(const HaloBuffer& buf, std::size_t payload_bytes);

  const std::string segment_prefix_;  // /emwd-<pid>-<instance>
  std::mutex mu_;                     // guards the channel map (not the slots)
  std::map<std::pair<int, int>, std::unique_ptr<Channel>> channels_;
};

}  // namespace emwd::dist
