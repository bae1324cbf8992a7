#include "hetsim/params.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace hetcomm {

namespace {

// Shorthand used by the preset constructors below.
void set_row(MessageParamTable& t, MemSpace space, Protocol proto,
             PostalParams on_socket, PostalParams on_node,
             PostalParams off_node) {
  t.set(space, proto, PathClass::OnSocket, on_socket);
  t.set(space, proto, PathClass::OnNode, on_node);
  t.set(space, proto, PathClass::OffNode, off_node);
}

}  // namespace

void ParamSet::validate() const {
  try {
    taxonomy.validate();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("ParamSet '" + name + "': " + e.what());
  }
  // Labels are built only for a failing row: every check of a valid set
  // passes, and validate() runs on every plan compile.
  const auto bad = [](const PostalParams& p) {
    return p.alpha <= 0.0 || p.beta <= 0.0;
  };
  const auto row_error = [this](const std::string& what) {
    return std::invalid_argument("ParamSet '" + name + "': " + what +
                                 " has non-positive alpha/beta");
  };
  for (const MemSpace space : {MemSpace::Host, MemSpace::Device}) {
    for (const Protocol proto :
         {Protocol::Short, Protocol::Eager, Protocol::Rendezvous}) {
      if (space == MemSpace::Device && proto == Protocol::Short) continue;
      for (int path = 0; path < taxonomy.num_classes(); ++path) {
        if (bad(messages.get(space, proto, path))) {
          throw row_error(std::string(to_string(space)) + "/" +
                          to_string(proto) + "/" + taxonomy.cls(path).name);
        }
      }
    }
  }
  const std::pair<const PostalParams*, const char*> copy_rows[] = {
      {&copies.h2d_1proc, "copy H2D (1 proc)"},
      {&copies.d2h_1proc, "copy D2H (1 proc)"},
      {&copies.h2d_4proc, "copy H2D (shared)"},
      {&copies.d2h_4proc, "copy D2H (shared)"}};
  for (const auto& [row, what] : copy_rows) {
    if (bad(*row)) throw row_error(what);
  }
  if (copies.shared_procs < 2) {
    throw std::invalid_argument("ParamSet '" + name +
                                "': shared_procs must be >= 2");
  }
  if (injection.inv_rate_cpu <= 0.0 || injection.inv_rate_gpu <= 0.0) {
    throw std::invalid_argument("ParamSet '" + name +
                                "': injection rates must be set");
  }
  if (injection.nics_per_node < 1) {
    throw std::invalid_argument("ParamSet '" + name +
                                "': nics_per_node must be >= 1");
  }
  if (thresholds.short_max <= 0 ||
      thresholds.eager_max <= thresholds.short_max) {
    throw std::invalid_argument(
        "ParamSet '" + name +
        "': protocol thresholds must satisfy 0 < short_max < eager_max");
  }
  if (overheads.queue_search_per_entry < 0.0 || overheads.post_overhead < 0.0 ||
      overheads.dma_op_overhead < 0.0 ||
      overheads.nic_message_overhead < 0.0 || overheads.pack_per_byte < 0.0) {
    throw std::invalid_argument("ParamSet '" + name +
                                "': overheads must be non-negative");
  }
}

ParamSet lassen_params() {
  ParamSet p;
  p.name = "lassen";

  // Paper Table 2: inter-CPU rows.
  set_row(p.messages, MemSpace::Host, Protocol::Short,
          {3.67e-07, 1.32e-10}, {9.25e-07, 1.19e-09}, {1.89e-06, 6.88e-10});
  set_row(p.messages, MemSpace::Host, Protocol::Eager,
          {4.61e-07, 7.12e-11}, {1.17e-06, 2.18e-10}, {2.44e-06, 3.79e-10});
  set_row(p.messages, MemSpace::Host, Protocol::Rendezvous,
          {3.15e-06, 3.40e-11}, {6.77e-06, 1.49e-10}, {7.76e-06, 7.97e-11});

  // Paper Table 2: inter-GPU rows (no short protocol for device-aware).
  set_row(p.messages, MemSpace::Device, Protocol::Eager,
          {1.87e-06, 5.79e-11}, {2.02e-05, 2.15e-10}, {8.95e-06, 1.72e-10});
  set_row(p.messages, MemSpace::Device, Protocol::Rendezvous,
          {1.82e-05, 1.46e-11}, {1.93e-05, 2.39e-11}, {1.10e-05, 1.72e-10});

  // Paper Table 3: cudaMemcpyAsync.
  p.copies.h2d_1proc = {1.30e-05, 1.85e-11};
  p.copies.d2h_1proc = {1.27e-05, 1.96e-11};
  p.copies.h2d_4proc = {1.52e-05, 5.52e-10};
  p.copies.d2h_4proc = {1.47e-05, 1.50e-10};
  p.copies.shared_procs = 4;

  // Paper Table 4: R_N^-1 = 4.19e-11 s/byte (~23.9 GB/s per NIC).
  p.injection.inv_rate_cpu = 4.19e-11;
  // The inter-GPU injection limit is not reached with 4 GPUs/node (paper
  // §3); give the device path the same NIC ceiling so the simulator still
  // has a finite server rate.
  p.injection.inv_rate_gpu = 4.19e-11;

  // Spectrum-MPI-like protocol switch points on Lassen.  The rendezvous
  // switch point also serves as the paper's default split message cap.
  p.thresholds.short_max = 512;
  p.thresholds.eager_max = 16384;

  return p;
}

ParamSet frontier_params() {
  // Frontier-like what-if preset (paper §6): Slingshot-11 class network with
  // ~25 GB/s per NIC x 4 NICs/node treated as one fat server, lower off-node
  // latency, Infinity-Fabric-attached GPUs with cheaper device paths.
  ParamSet p = lassen_params();
  p.name = "frontier-like";

  set_row(p.messages, MemSpace::Host, Protocol::Short,
          {3.0e-07, 1.1e-10}, {3.0e-07, 1.1e-10}, {1.5e-06, 2.0e-10});
  set_row(p.messages, MemSpace::Host, Protocol::Eager,
          {4.0e-07, 6.0e-11}, {4.0e-07, 6.0e-11}, {2.0e-06, 1.2e-10});
  set_row(p.messages, MemSpace::Host, Protocol::Rendezvous,
          {2.5e-06, 3.0e-11}, {2.5e-06, 3.0e-11}, {5.5e-06, 3.0e-11});

  set_row(p.messages, MemSpace::Device, Protocol::Eager,
          {1.5e-06, 3.0e-11}, {1.5e-06, 3.0e-11}, {6.0e-06, 8.0e-11});
  set_row(p.messages, MemSpace::Device, Protocol::Rendezvous,
          {9.0e-06, 8.0e-12}, {9.0e-06, 8.0e-12}, {8.0e-06, 6.0e-11});

  p.copies.h2d_1proc = {8.0e-06, 8.0e-12};
  p.copies.d2h_1proc = {8.0e-06, 8.5e-12};
  p.copies.h2d_4proc = {1.0e-05, 2.4e-10};
  p.copies.d2h_4proc = {1.0e-05, 6.5e-11};

  p.injection.inv_rate_cpu = 1.0e-11;  // ~100 GB/s aggregate injection
  p.injection.inv_rate_gpu = 1.0e-11;
  return p;
}

ParamSet delta_params() {
  // Delta-like what-if preset (paper §6): dual 64-core Milan, A100 GPUs on
  // PCIe (more expensive copies), HDR-class network.
  ParamSet p = lassen_params();
  p.name = "delta-like";

  set_row(p.messages, MemSpace::Host, Protocol::Short,
          {3.2e-07, 1.2e-10}, {7.5e-07, 8.0e-10}, {1.7e-06, 4.0e-10});
  set_row(p.messages, MemSpace::Host, Protocol::Eager,
          {4.2e-07, 6.5e-11}, {9.5e-07, 1.8e-10}, {2.2e-06, 2.2e-10});
  set_row(p.messages, MemSpace::Host, Protocol::Rendezvous,
          {2.9e-06, 3.2e-11}, {5.5e-06, 1.2e-10}, {6.8e-06, 5.0e-11});

  set_row(p.messages, MemSpace::Device, Protocol::Eager,
          {2.4e-06, 8.0e-11}, {2.4e-05, 2.6e-10}, {1.0e-05, 2.0e-10});
  set_row(p.messages, MemSpace::Device, Protocol::Rendezvous,
          {2.1e-05, 2.2e-11}, {2.3e-05, 3.2e-11}, {1.3e-05, 2.0e-10});

  p.copies.h2d_1proc = {1.6e-05, 4.0e-11};  // PCIe gen4 ~25 GB/s
  p.copies.d2h_1proc = {1.6e-05, 4.2e-11};
  p.copies.h2d_4proc = {1.9e-05, 7.0e-10};
  p.copies.d2h_4proc = {1.8e-05, 2.4e-10};

  p.injection.inv_rate_cpu = 2.1e-11;  // HDR200-class
  p.injection.inv_rate_gpu = 2.1e-11;
  return p;
}

}  // namespace hetcomm
