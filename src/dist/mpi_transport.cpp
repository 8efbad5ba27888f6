#if defined(EMWD_WITH_MPI)

#include "dist/mpi_transport.hpp"

#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include <mpi.h>

#include "fault/inject.hpp"

namespace emwd::dist {

namespace {

constexpr int kTagStride = 4096;  // far above any realistic shard count

int channel_tag(int src_shard, int dst_shard) {
  return src_shard * kTagStride + dst_shard;
}

class MpiTransport final : public Transport {
 public:
  MpiTransport() {
    int initialized = 0;
    MPI_Initialized(&initialized);
    if (!initialized) {
      throw std::runtime_error(
          "mpi transport: MPI_Init has not been called — the driver owns the "
          "MPI lifecycle (see examples/mpi_sharded_demo.cpp)");
    }
    MPI_Comm_rank(MPI_COMM_WORLD, &rank_);
    MPI_Comm_size(MPI_COMM_WORLD, &size_);
  }

  std::string name() const override { return "mpi"; }

  void stage(const grid::FieldSet& src, HaloBuffer& buf) override {
    fault::maybe_fail("transport.stage");
    require_channel(buf);
    // Complete the previous Isend on this channel before repacking its
    // buffer — the seam's buffer-reuse rule as send-completion.
    InFlight& fl = in_flight_[{buf.src_shard, buf.dst_shard}];
    if (fl.active) {
      MPI_Wait(&fl.request, MPI_STATUS_IGNORE);
      fl.active = false;
    }

    const std::size_t plane_doubles =
        static_cast<std::size_t>(src.layout().stride_z()) * 2;
    double* out = buf.data.data();
    for (int c = 0; c < kernels::kNumComps; ++c) {
      src.field(static_cast<kernels::Comp>(c))
          .copy_z_planes_to_buffer(out, buf.src_k0, buf.planes);
      out += plane_doubles * static_cast<std::size_t>(buf.planes);
    }
    MPI_Isend(buf.data.data(), static_cast<int>(buf.data.size()), MPI_DOUBLE,
              rank_for_shard(buf.dst_shard), channel_tag(buf.src_shard, buf.dst_shard),
              MPI_COMM_WORLD, &fl.request);
    fl.active = true;
  }

  void unstage(grid::FieldSet& dst, const HaloBuffer& buf, int dst_k0,
               int planes) override {
    fault::maybe_fail("transport.unstage");
    require_channel(buf);
    const std::size_t plane_doubles =
        static_cast<std::size_t>(dst.layout().stride_z()) * 2;
    const std::size_t doubles = plane_doubles * static_cast<std::size_t>(buf.planes) *
                                static_cast<std::size_t>(kernels::kNumComps);
    recv_buf_.resize(doubles);
    MPI_Recv(recv_buf_.data(), static_cast<int>(doubles), MPI_DOUBLE,
             rank_for_shard(buf.src_shard), channel_tag(buf.src_shard, buf.dst_shard),
             MPI_COMM_WORLD, MPI_STATUS_IGNORE);

    const double* in = recv_buf_.data();
    for (int c = 0; c < kernels::kNumComps; ++c) {
      dst.field(static_cast<kernels::Comp>(c))
          .copy_z_planes_from_buffer(in, dst_k0, planes);
      in += plane_doubles * static_cast<std::size_t>(buf.planes);
    }
  }

  void reset() override {
    for (auto& [key, fl] : in_flight_) {
      if (fl.active) MPI_Wait(&fl.request, MPI_STATUS_IGNORE);
      fl.active = false;
    }
    in_flight_.clear();
  }

 private:
  struct InFlight {
    MPI_Request request{};
    bool active = false;
  };

  static void require_channel(const HaloBuffer& buf) {
    if (buf.src_shard < 0 || buf.dst_shard < 0) {
      throw std::runtime_error(
          "mpi transport: HaloBuffer has no channel ids — the exchange (or "
          "driver) must set src_shard/dst_shard");
    }
  }

  int rank_for_shard(int shard) const {
    if (shard < 0 || shard >= size_) {
      throw std::runtime_error("mpi transport: shard " + std::to_string(shard) +
                               " has no rank (world size " + std::to_string(size_) + ")");
    }
    return shard;  // one rank per shard, identity mapping
  }

  int rank_ = 0;
  int size_ = 1;
  std::map<std::pair<int, int>, InFlight> in_flight_;
  std::vector<double> recv_buf_;
};

}  // namespace

int mpi_shard_for_rank(int rank, int num_ranks) {
  if (rank < 0 || rank >= num_ranks) {
    throw std::invalid_argument("mpi_shard_for_rank: rank out of range");
  }
  return rank;
}

std::unique_ptr<Transport> make_mpi_transport() {
  return std::make_unique<MpiTransport>();
}

}  // namespace emwd::dist

#endif  // EMWD_WITH_MPI
