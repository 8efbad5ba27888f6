#include "dist/shm_transport.hpp"

#include <cerrno>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>

#if defined(_WIN32)
#error "dist/shm_transport: POSIX-only (shm_open/mmap)"
#endif

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include "fault/inject.hpp"
#include "util/timer.hpp"

namespace emwd::dist {

namespace {

std::size_t round_up64(std::size_t n) { return (n + 63u) & ~std::size_t{63}; }

/// Payload bytes one donation of `planes` z-planes of `layout` occupies:
/// all 12 component arrays, stride_z complex (2-double) cells per plane.
std::size_t donation_bytes(const grid::Layout& layout, int planes) {
  const std::size_t plane_doubles = static_cast<std::size_t>(layout.stride_z()) * 2;
  return plane_doubles * static_cast<std::size_t>(planes) *
         static_cast<std::size_t>(kernels::kNumComps) * sizeof(double);
}

[[noreturn]] void throw_torn(const char* what, const HaloBuffer& buf,
                             std::uint64_t got, std::uint64_t want) {
  std::ostringstream os;
  os << "shm transport: " << what << " on channel " << buf.src_shard << "->"
     << buf.dst_shard << " (got " << got << ", want " << want
     << ") — torn or truncated ring slot";
  throw std::runtime_error(os.str());
}

std::atomic<std::uint64_t> g_instance_counter{0};

}  // namespace

/// One donor->consumer ring: the mapped segment plus both sides' sequence
/// numbers.  producer_seq is touched only by the donor shard's thread,
/// consumer_seq only by the consumer's; the slot-state atomics carry all
/// cross-thread ordering.
struct ShmTransport::Channel {
  void* base = nullptr;
  std::size_t map_bytes = 0;
  std::size_t payload_capacity = 0;  // per slot, 64-byte rounded
  std::size_t payload_bytes = 0;     // the channel's fixed donation size
  std::uint64_t producer_seq = 0;    // donations published
  std::uint64_t consumer_seq = 0;    // donations consumed

  ShmSlotHeader* header(int slot) {
    return reinterpret_cast<ShmSlotHeader*>(static_cast<char*>(base) +
                                            static_cast<std::size_t>(slot) *
                                                (sizeof(ShmSlotHeader) + payload_capacity));
  }
  double* payload(int slot) {
    return reinterpret_cast<double*>(reinterpret_cast<char*>(header(slot)) +
                                     sizeof(ShmSlotHeader));
  }

  ~Channel() {
    if (base != nullptr) ::munmap(base, map_bytes);
  }
};

ShmTransport::ShmTransport()
    : segment_prefix_("/emwd-" + std::to_string(::getpid()) + "-" +
                      std::to_string(g_instance_counter.fetch_add(1))) {
}

ShmTransport::~ShmTransport() = default;

ShmTransport::Channel& ShmTransport::channel_for(const HaloBuffer& buf,
                                                 std::size_t payload_bytes) {
  if (buf.src_shard < 0 || buf.dst_shard < 0) {
    throw std::runtime_error(
        "shm transport: HaloBuffer has no channel ids (src_shard/dst_shard "
        "unset) — the exchange must assign them in reset_flow()");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto key = std::make_pair(buf.src_shard, buf.dst_shard);
  auto it = channels_.find(key);
  if (it != channels_.end()) {
    if (it->second->payload_bytes != payload_bytes) {
      throw_torn("payload size changed mid-flow", buf, payload_bytes,
                 it->second->payload_bytes);
    }
    return *it->second;
  }

  fault::maybe_fail("transport.shm.map");
  auto ch = std::make_unique<Channel>();
  ch->payload_bytes = payload_bytes;
  ch->payload_capacity = round_up64(payload_bytes);
  ch->map_bytes = static_cast<std::size_t>(kRingSlots) *
                  (sizeof(ShmSlotHeader) + ch->payload_capacity);

  const std::string name = segment_prefix_ + "-" + std::to_string(buf.src_shard) +
                           "-" + std::to_string(buf.dst_shard);
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) {
    throw std::system_error(errno, std::generic_category(), "shm_open " + name);
  }
  if (::ftruncate(fd, static_cast<off_t>(ch->map_bytes)) != 0) {
    const int err = errno;
    ::close(fd);
    ::shm_unlink(name.c_str());
    throw std::system_error(err, std::generic_category(), "ftruncate " + name);
  }
  ch->base = ::mmap(nullptr, ch->map_bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  // Unlink immediately: the mapping keeps the segment alive for this run
  // and nothing leaks into /dev/shm on a crash.  A multi-process attach
  // would instead publish the name and unlink at teardown.
  ::shm_unlink(name.c_str());
  if (ch->base == MAP_FAILED) {
    ch->base = nullptr;
    throw std::system_error(errno, std::generic_category(), "mmap " + name);
  }
  for (int slot = 0; slot < kRingSlots; ++slot) {
    ShmSlotHeader* h = ch->header(slot);
    h->magic.store(kSlotMagic, std::memory_order_relaxed);
    h->round.store(0, std::memory_order_relaxed);
    h->payload_bytes.store(0, std::memory_order_relaxed);
    h->state.store(kSlotFree, std::memory_order_release);
  }
  return *channels_.emplace(key, std::move(ch)).first->second;
}

void ShmTransport::stage(const grid::FieldSet& src, HaloBuffer& buf) {
  fault::maybe_fail("transport.stage");
  const std::size_t bytes = donation_bytes(src.layout(), buf.planes);
  Channel& ch = channel_for(buf, bytes);

  const std::uint64_t seq = ch.producer_seq + 1;
  ShmSlotHeader* h = ch.header(static_cast<int>(seq % kRingSlots));
  // Producer backpressure (the DMA-window idiom): the slot must have been
  // released by the consumer of donation seq - kRingSlots.  The exchange's
  // consumed-ack wait makes this free in normal operation; the deadline
  // turns a consumer that died without draining into an error instead of a
  // silent hang (the sharded failure protocol catches and drains it).
  if (h->state.load(std::memory_order_acquire) != kSlotFree) {
    util::Timer deadline;
    int spins = 0;
    while (h->state.load(std::memory_order_acquire) != kSlotFree) {
      if (++spins > 256) {
        std::this_thread::yield();
        spins = 0;
        if (deadline.seconds() > 5.0) {
          throw std::runtime_error(
              "shm transport: ring slot never freed (consumer gone?) on channel " +
              std::to_string(buf.src_shard) + "->" + std::to_string(buf.dst_shard));
        }
      }
    }
  }

  // Zero-copy pack: field planes go straight into the mapped slot.
  const std::size_t plane_doubles = static_cast<std::size_t>(src.layout().stride_z()) * 2;
  double* out = ch.payload(static_cast<int>(seq % kRingSlots));
  for (int c = 0; c < kernels::kNumComps; ++c) {
    src.field(static_cast<kernels::Comp>(c))
        .copy_z_planes_to_buffer(out, buf.src_k0, buf.planes);
    out += plane_doubles * static_cast<std::size_t>(buf.planes);
  }

  h->magic.store(kSlotMagic, std::memory_order_relaxed);
  h->round.store(seq, std::memory_order_relaxed);
  h->payload_bytes.store(bytes, std::memory_order_relaxed);
  // Publish: the release pairs with the consumer's state acquire, ordering
  // the payload and header writes above before any consumer read.
  h->state.store(kSlotReady, std::memory_order_release);
  ch.producer_seq = seq;
}

void ShmTransport::unstage(grid::FieldSet& dst, const HaloBuffer& buf, int dst_k0,
                           int planes) {
  fault::maybe_fail("transport.unstage");
  fault::maybe_fail("transport.shm.torn");
  const std::size_t bytes = donation_bytes(dst.layout(), buf.planes);
  Channel* ch = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = channels_.find(std::make_pair(buf.src_shard, buf.dst_shard));
    if (it != channels_.end()) ch = it->second.get();
  }
  if (ch == nullptr) {
    throw std::runtime_error("shm transport: unstage on channel " +
                             std::to_string(buf.src_shard) + "->" +
                             std::to_string(buf.dst_shard) +
                             " that was never staged (drained producer?)");
  }

  const std::uint64_t seq = ch->consumer_seq + 1;
  ShmSlotHeader* h = ch->header(static_cast<int>(seq % kRingSlots));
  // Strict header validation — every mismatch is an error, never a
  // misread.  The state acquire is the ordering edge to the producer.
  const std::uint64_t state = h->state.load(std::memory_order_acquire);
  if (state != kSlotReady) throw_torn("slot not ready", buf, state, kSlotReady);
  const std::uint64_t magic = h->magic.load(std::memory_order_relaxed);
  if (magic != kSlotMagic) throw_torn("bad slot magic", buf, magic, kSlotMagic);
  const std::uint64_t round = h->round.load(std::memory_order_relaxed);
  if (round != seq) throw_torn("round sequence mismatch", buf, round, seq);
  const std::uint64_t payload = h->payload_bytes.load(std::memory_order_relaxed);
  if (payload != bytes) throw_torn("payload size mismatch", buf, payload, bytes);

  const std::size_t plane_doubles = static_cast<std::size_t>(dst.layout().stride_z()) * 2;
  const double* in = ch->payload(static_cast<int>(seq % kRingSlots));
  for (int c = 0; c < kernels::kNumComps; ++c) {
    dst.field(static_cast<kernels::Comp>(c))
        .copy_z_planes_from_buffer(in, dst_k0, planes);
    in += plane_doubles * static_cast<std::size_t>(buf.planes);
  }
  // Release the slot back to the producer of donation seq + kRingSlots.
  h->state.store(kSlotFree, std::memory_order_release);
  ch->consumer_seq = seq;
}

void ShmTransport::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  channels_.clear();  // unmaps; fresh rings and sequences for the next run
}

ShmSlotHeader* ShmTransport::debug_slot_header(int src_shard, int dst_shard, int slot) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = channels_.find(std::make_pair(src_shard, dst_shard));
  if (it == channels_.end() || slot < 0 || slot >= kRingSlots) return nullptr;
  return it->second->header(slot);
}

std::unique_ptr<Transport> make_shm_transport() {
  return std::make_unique<ShmTransport>();
}

}  // namespace emwd::dist
