#include "dist/transport.hpp"

#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "fault/inject.hpp"

namespace emwd::dist {

namespace {

/// In-process plane movement through the exchange-owned buffer
/// (grid::Field plane helpers).
class LocalTransport final : public Transport {
 public:
  std::string name() const override { return "local"; }

  void stage(const grid::FieldSet& src, HaloBuffer& buf) override {
    fault::maybe_fail("transport.stage");
    const std::size_t plane = static_cast<std::size_t>(src.layout().stride_z()) * 2;
    double* out = buf.data.data();
    for (int c = 0; c < kernels::kNumComps; ++c) {
      src.field(static_cast<kernels::Comp>(c))
          .copy_z_planes_to_buffer(out, buf.src_k0, buf.planes);
      out += plane * static_cast<std::size_t>(buf.planes);
    }
  }

  void unstage(grid::FieldSet& dst, const HaloBuffer& buf, int dst_k0,
               int planes) override {
    fault::maybe_fail("transport.unstage");
    const std::size_t plane = static_cast<std::size_t>(dst.layout().stride_z()) * 2;
    const double* in = buf.data.data();
    for (int c = 0; c < kernels::kNumComps; ++c) {
      dst.field(static_cast<kernels::Comp>(c))
          .copy_z_planes_from_buffer(in, dst_k0, planes);
      in += plane * static_cast<std::size_t>(buf.planes);
    }
  }
};

std::mutex& registry_mutex() {
  static std::mutex mu;
  return mu;
}

std::map<std::string, TransportFactory>& registry() {
  static std::map<std::string, TransportFactory>* m = [] {
    auto* map = new std::map<std::string, TransportFactory>();
    (*map)["local"] = [] { return make_local_transport(); };
    (*map)["shm"] = [] { return make_shm_transport(); };
#if defined(EMWD_WITH_MPI)
    (*map)["mpi"] = [] { return make_mpi_transport(); };
#endif
    return map;
  }();
  return *m;
}

}  // namespace

std::unique_ptr<Transport> make_local_transport() {
  return std::make_unique<LocalTransport>();
}

void register_transport(const std::string& name, TransportFactory factory) {
  if (name.empty()) throw std::invalid_argument("register_transport: empty name");
  if (!factory) throw std::invalid_argument("register_transport: null factory");
  std::lock_guard<std::mutex> lock(registry_mutex());
  registry()[name] = std::move(factory);
}

std::unique_ptr<Transport> make_transport(const std::string& name) {
  TransportFactory factory;
  {
    std::lock_guard<std::mutex> lock(registry_mutex());
    auto it = registry().find(name);
    if (it == registry().end()) {
      std::ostringstream os;
      os << "unknown halo transport '" << name << "'; registered:";
      for (const auto& [n, f] : registry()) os << ' ' << n;
      throw std::invalid_argument(os.str());
    }
    factory = it->second;
  }
  return factory();
}

void require_transport(const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  if (registry().find(name) != registry().end()) return;
  std::ostringstream os;
  os << "unknown halo transport '" << name << "'; registered:";
  for (const auto& [n, f] : registry()) os << ' ' << n;
  throw std::invalid_argument(os.str());
}

std::vector<std::string> transport_names() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  std::vector<std::string> out;
  for (const auto& [n, f] : registry()) out.push_back(n);
  return out;
}

}  // namespace emwd::dist
