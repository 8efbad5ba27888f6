// MpiTransport: the halo seam over MPI point-to-point — the cross-node
// idiom, one rank per shard.
//
// Mapping of the seam onto MPI (the pairing halo.hpp's contract was
// designed around):
//
//   stage(src, buf)            -> pack into buf.data + MPI_Isend to the
//                                 rank owning buf.dst_shard, tagged by the
//                                 (src_shard, dst_shard) channel.  The
//                                 request is completed (MPI_Wait) before
//                                 the NEXT stage on the same channel reuses
//                                 buf.data — exactly the exchange's
//                                 consumed-ack buffer-reuse rule, expressed
//                                 as send-completion.
//   unstage(dst, buf, k0, n)   -> MPI_Recv of the matching tag from
//                                 buf.src_shard's rank + unpack into the
//                                 ghost planes.  Blocking is correct here:
//                                 HaloExchange::wait's opportunistic
//                                 ordering degenerates to program order
//                                 when each shard is alone in its process.
//
// The sharded engine's post/wait round loop is the only exchange protocol,
// so an MPI run needs nothing else from the seam; a driver like
// examples/mpi_sharded_demo.cpp drives stage/unstage itself, one rank per
// shard.
//
// Tags encode the channel as src * kTagStride + dst so the two directions
// of a neighbor pair never cross.  Construction requires MPI_Initialized:
// the transport never initializes or finalizes MPI itself (the driver owns
// the MPI lifecycle, as libraries must).
//
// The whole implementation is compiled only under EMWD_WITH_MPI (a CMake
// option); without it this header declares nothing, so the registry simply
// never lists "mpi".
#pragma once

#if defined(EMWD_WITH_MPI)

#include <memory>

#include "dist/transport.hpp"

namespace emwd::dist {

// (The concrete class lives in the .cpp; construct via
// make_mpi_transport() or make_transport("mpi") — see transport.hpp.)

/// Rank `r` of `n` drives shard r: helper for demos/drivers that build the
/// canonical Partitioner on every rank and exchange with neighbors r-1/r+1.
/// Declared here so drivers need no MPI-specific partition logic.
int mpi_shard_for_rank(int rank, int num_ranks);

}  // namespace emwd::dist

#endif  // EMWD_WITH_MPI
