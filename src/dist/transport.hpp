// Transport: the data-motion seam under HaloExchange.
//
// HaloExchange owns the exchange PROTOCOL — which planes move when, the
// per-neighbor round counters, the export-buffer lifecycle — while a
// Transport owns the MOTION: how a run of z-planes actually gets from one
// shard's arrays to another's.  Two primitives carry every plane: stage
// (pack a donation, the send half) and unstage (unpack it into ghost
// planes, the receive half).  The shipped LocalTransport is an in-process
// memcpy through the exchange-owned buffer; the shm ring and a rank-aware
// MpiTransport are registry entries that implement the same two
// primitives (see src/dist/README.md for the full contract).
//
// Transports are chosen by name through the engine-spec grammar
// (`sharded(...,transport=local)`) and resolved via make_transport().
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "grid/fieldset.hpp"

namespace emwd::dist {

/// One side's staged donation: `planes` padded z-planes of all 12 field
/// arrays, packed [comp][plane][stride_z complex cells].  The exchange
/// sizes `data`; the transport only moves bytes through it.
///
/// `src_shard`/`dst_shard` identify the CHANNEL the buffer travels on (one
/// donor/consumer pair, one direction).  The exchange assigns them in
/// reset_flow(); transports with out-of-band state (a shared-memory ring, an
/// MPI peer rank) key that state on the pair, while the LocalTransport
/// ignores them.
struct HaloBuffer {
  int src_k0 = 0;  // first donated plane, donor-local logical z
  int planes = 0;
  int src_shard = -1;  // donor shard (channel id)
  int dst_shard = -1;  // consumer shard (channel id)
  std::vector<double> data;  // empty until the exchange sizes it
};

class Transport {
 public:
  virtual ~Transport() = default;
  virtual std::string name() const = 0;

  /// Stage `buf.planes` owned z-planes of `src` (starting at buf.src_k0)
  /// into buf.data — the buffered-send half of the post/wait protocol
  /// (MPI_Isend's pack).
  virtual void stage(const grid::FieldSet& src, HaloBuffer& buf) = 0;

  /// Copy a staged donation into `dst`'s ghost planes starting at `dst_k0`
  /// — the receive half (MPI_Irecv + Wait's unpack).  `planes` never
  /// exceeds buf.planes.
  virtual void unstage(grid::FieldSet& dst, const HaloBuffer& buf, int dst_k0,
                       int planes) = 0;

  /// Drop all per-run channel state (ring sequence numbers, in-flight
  /// frames) so the same transport instance can carry a fresh run.  The
  /// exchange calls this from reset_flow(), single-threaded.  Stateless
  /// transports need not override.
  virtual void reset() {}

  /// False when stage()/unstage() move bytes through transport-owned
  /// storage (a mapped ring slot) and never touch HaloBuffer::data
  /// — the exchange then skips the heap allocation entirely (the zero-copy
  /// path).  Default true: the buffer is the staging area.
  virtual bool wants_buffer_storage() const { return true; }
};

/// The in-process transport: plain plane memcpys through HaloBuffer::data.
std::unique_ptr<Transport> make_local_transport();

/// Zero-copy shared-memory ring transport ("shm"): stage packs planes
/// directly into a per-channel 2-slot ring in a shm_open/mmap segment with
/// seqlock-style slot headers; unstage copies out of the mapped slot.  See
/// src/dist/shm_transport.hpp for the normative wire format.
std::unique_ptr<Transport> make_shm_transport();

#if defined(EMWD_WITH_MPI)
/// One-rank-per-shard MPI transport ("mpi"): stage packs + MPI_Isend to the
/// consumer rank, unstage MPI_Recv + unpacks from the donor rank.  The
/// factory throws std::runtime_error unless MPI is initialized (run the
/// binary under mpirun); see src/dist/mpi_transport.hpp.
std::unique_ptr<Transport> make_mpi_transport();
#endif

// ------------------------------------------------------ transport registry

using TransportFactory = std::function<std::unique_ptr<Transport>()>;

/// Register (or replace) the factory for `name`; "local", "shm" and (when
/// built with MPI) "mpi" are pre-registered.
void register_transport(const std::string& name, TransportFactory factory);

/// Construct the named transport; throws std::invalid_argument for an
/// unknown name, listing what is registered.
std::unique_ptr<Transport> make_transport(const std::string& name);

/// Validate that `name` is registered WITHOUT constructing it — the same
/// listing error as make_transport on an unknown name.  Spec parsing and
/// engine construction use this so `transport=mpi` stays addressable even
/// when the MPI factory would refuse to run outside mpirun.
void require_transport(const std::string& name);

std::vector<std::string> transport_names();

}  // namespace emwd::dist
