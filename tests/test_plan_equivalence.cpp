// Generated plan equivalence: seeded irregular patterns over every preset
// machine and several node counts, compiled by every strategy of the
// roster.  One fingerprint folds each pattern's hash, every Table-7
// statistic, and every plan op field and phase label; it must equal the
// constant below, which pins the plan builders' exact output.  Every plan
// must also pass the byte-conservation checks of plan_check.  A second
// fingerprint folds every table of each plan's CompiledPlan (doubles by
// bit pattern), and a third folds random_pattern over a grid of its
// arguments.
//
// The generator covers the inputs a builder must treat carefully:
// zero-byte adds, self adds, repeated pairs (multiplicity), sizes from one
// byte to well past the rendezvous switch point (so split cuts chunks), and
// dedup annotations between zero and the annotated payload.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/compiled_plan.hpp"
#include "core/pattern_io.hpp"
#include "core/plan_check.hpp"
#include "core/strategy.hpp"
#include "machine/machine.hpp"

namespace hetcomm {
namespace {

using core::CommPattern;
using core::CommPlan;
using core::StrategyConfig;

/// FNV-1a style fold of one 64-bit word (whole words, not bytes).
struct Fingerprint {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::int64_t v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 0x100000001b3ULL;
  }
  void add(double v) { add(std::bit_cast<std::int64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::int64_t>(s.size()));
    for (const char c : s) add(static_cast<std::int64_t>(c));
  }
};

/// Uniform draw in [0, n) from the raw engine output; std::mt19937_64's
/// sequence is fixed by the standard, unlike the distributions.
std::int64_t draw(std::mt19937_64& rng, std::int64_t n) {
  return static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(n));
}

CommPattern generated(const Topology& topo, std::mt19937_64& rng) {
  const int gpus = topo.num_gpus();
  CommPattern p(gpus);
  const std::int64_t adds = 1 + draw(rng, 4 * std::int64_t{gpus});
  int src = 0;
  int dst = 0;
  for (std::int64_t k = 0; k < adds; ++k) {
    if (k == 0 || draw(rng, 4) != 0) {  // else repeat the previous pair
      src = static_cast<int>(draw(rng, gpus));
      dst = static_cast<int>(draw(rng, gpus));  // self adds included
    }
    std::int64_t bytes = 0;
    switch (draw(rng, 5)) {
      case 0: bytes = 0; break;
      case 1: bytes = 1 + draw(rng, 64); break;
      case 2: bytes = 1 + draw(rng, 16384); break;
      case 3: bytes = 8192 + draw(rng, 262144); break;
      default: bytes = 1 + draw(rng, 2 << 20); break;
    }
    p.add(src, dst, bytes);
  }
  // Dedup annotations toward nodes the source actually sends to, each at
  // most that (source, node) payload.
  const int gpn = topo.gpn();
  for (int g = 0; g < gpus; ++g) {
    if (draw(rng, 3) != 0) continue;
    std::vector<std::int64_t> payload(
        static_cast<std::size_t>(topo.num_nodes()), 0);
    for (const auto& m : p.sends_from(g)) {
      payload[static_cast<std::size_t>(m.dst_gpu / gpn)] += m.bytes;
    }
    for (int node = 0; node < topo.num_nodes(); ++node) {
      const std::int64_t have = payload[static_cast<std::size_t>(node)];
      if (have == 0 || draw(rng, 2) != 0) continue;
      p.set_node_dedup(g, node, draw(rng, have + 1));
    }
  }
  return p;
}

void fold_stats(Fingerprint& fp, const core::PatternStats& st) {
  for (const std::int64_t v :
       {st.s_proc, st.s_node, st.s_node_node,
        std::int64_t{st.m_proc}, std::int64_t{st.m_proc_node},
        std::int64_t{st.m_node_node}, std::int64_t{st.num_internode_nodes},
        std::int64_t{st.active_internode_gpus}, st.total_internode_bytes,
        st.total_internode_messages, st.dedup_s_proc, st.dedup_s_node,
        st.dedup_s_node_node, st.typical_msg_bytes}) {
    fp.add(v);
  }
}

void fold_plan(Fingerprint& fp, const CommPlan& plan) {
  fp.add(plan.strategy_name);
  fp.add(static_cast<std::int64_t>(plan.phases.size()));
  for (const core::PlanPhase& phase : plan.phases) {
    fp.add(phase.label);
    fp.add(static_cast<std::int64_t>(phase.ops.size()));
    for (const core::PlanOp& op : phase.ops) {
      for (const std::int64_t v :
           {std::int64_t{static_cast<int>(op.type)}, std::int64_t{op.src_rank},
            std::int64_t{op.dst_rank}, op.bytes, std::int64_t{op.tag},
            std::int64_t{static_cast<int>(op.space)}, std::int64_t{op.rank},
            std::int64_t{op.gpu}, std::int64_t{static_cast<int>(op.dir)},
            std::int64_t{op.sharing_procs}, std::int64_t{op.rail},
            std::int64_t{op.depends_on}}) {
        fp.add(v);
      }
    }
  }
}

void fold_compiled(Fingerprint& fp, const core::CompiledPlan& compiled) {
  fp.add(static_cast<std::int64_t>(compiled.phases().size()));
  for (const core::CompiledPhase& phase : compiled.phases()) {
    fp.add(static_cast<std::int64_t>(phase.steps.size()));
    for (const core::CompiledStep& step : phase.steps) {
      fp.add(std::int64_t{static_cast<int>(step.kind)});
      fp.add(std::int64_t{step.index});
    }
    fp.add(static_cast<std::int64_t>(phase.messages.size()));
    for (const MessageSchedule& m : phase.messages) {
      for (const std::int64_t v :
           {std::int64_t{m.src}, std::int64_t{m.dst}, m.bytes,
            std::int64_t{m.src_node}, std::int64_t{m.dst_node},
            std::int64_t{m.src_nic}, std::int64_t{m.dst_nic},
            std::int64_t{m.rail}, std::int64_t{m.off_node},
            std::int64_t{m.rendezvous}}) {
        fp.add(v);
      }
      for (const double v : {m.send_occupancy, m.drain_occupancy,
                             m.completion_base, m.nic_occupancy}) {
        fp.add(v);
      }
    }
    fp.add(static_cast<std::int64_t>(phase.message_meta.size()));
    for (const MessageMeta& m : phase.message_meta) {
      for (const std::int64_t v :
           {std::int64_t{m.tag}, std::int64_t{static_cast<int>(m.space)},
            std::int64_t{static_cast<int>(m.protocol)},
            std::int64_t{m.path_id}, std::int64_t{static_cast<int>(m.path)}}) {
        fp.add(v);
      }
    }
    fp.add(static_cast<std::int64_t>(phase.msg_dep.size()));
    for (const std::int32_t d : phase.msg_dep) fp.add(std::int64_t{d});
    fp.add(static_cast<std::int64_t>(phase.wave_members.size()));
    for (const std::uint32_t w : phase.wave_members) fp.add(std::int64_t{w});
    fp.add(static_cast<std::int64_t>(phase.wave_begin.size()));
    for (const std::uint32_t w : phase.wave_begin) fp.add(std::int64_t{w});
    fp.add(static_cast<std::int64_t>(phase.copies.size()));
    for (const CopyOp& c : phase.copies) {
      for (const std::int64_t v :
           {std::int64_t{c.rank}, std::int64_t{c.gpu},
            std::int64_t{static_cast<int>(c.dir)},
            std::int64_t{c.sharing_procs}, c.bytes}) {
        fp.add(v);
      }
      fp.add(c.occupancy);
      fp.add(c.duration_base);
    }
    fp.add(static_cast<std::int64_t>(phase.packs.size()));
    for (const PackOp& k : phase.packs) {
      fp.add(std::int64_t{k.rank});
      fp.add(k.bytes);
      fp.add(k.duration_base);
    }
    fp.add(phase.network_bytes);
    fp.add(phase.network_messages);
  }
}

TEST(PlanEquivalence, GeneratedPatternsMatchRecordedFingerprint) {
  constexpr int kPatternsPerShape = 12;
  const std::vector<StrategyConfig> roster = core::all_strategies();
  Fingerprint fp;
  Fingerprint compiled_fp;  // every table of each plan's CompiledPlan
  int plans = 0;
  const std::vector<std::string> names = machine::preset_machine_names();
  for (std::size_t mi = 0; mi < names.size(); ++mi) {
    const std::string& name = names[mi];
    const machine::MachineModel model = machine::preset_machine(name);
    const ParamSet& params = model.params;
    for (const int nodes : {1, 2, 4, 7}) {
      const Topology topo = model.topology(nodes);
      std::mt19937_64 rng(1000 * (mi + 1) + static_cast<std::size_t>(nodes));
      for (int i = 0; i < kPatternsPerShape; ++i) {
        const CommPattern p = generated(topo, rng);
        fp.add(static_cast<std::int64_t>(core::pattern_hash(p)));
        fold_stats(fp, core::compute_stats(p, topo));
        for (const StrategyConfig& cfg : roster) {
          const CommPlan plan = core::build_plan(p, topo, params, cfg);
          fold_plan(fp, plan);
          fold_compiled(compiled_fp, core::CompiledPlan(plan, topo, params));
          ++plans;
          const bool staged = cfg.transport == MemSpace::Host;
          const int lanes = params.injection.nics_per_node;
          const core::PlanCheckResult r =
              core::check_plan(plan, p, topo, staged, lanes);
          ASSERT_TRUE(r.ok) << name << " nodes " << nodes << " pattern " << i
                            << " " << cfg.name() << ": "
                            << r.violations.front();
          if (cfg.split != core::SplitMode::None) {
            StrategyConfig base = cfg;
            base.split = core::SplitMode::None;
            const core::PlanCheckResult lowered = core::check_split_against(
                plan, core::build_plan(p, topo, params, base));
            ASSERT_TRUE(lowered.ok) << name << " nodes " << nodes << " "
                                    << cfg.name() << ": "
                                    << lowered.violations.front();
          }
        }
      }
    }
  }
  EXPECT_EQ(plans, 5 * 4 * kPatternsPerShape * 14);
  EXPECT_EQ(fp.h, 0xff3eebed77c49182ULL);
  EXPECT_EQ(compiled_fp.h, 0xb0a6450e290bd2c7ULL);
}

TEST(PlanEquivalence, RandomPatternsMatchRecordedFingerprint) {
  Fingerprint fp;
  int patterns = 0;
  for (const std::string& name : machine::preset_machine_names()) {
    const machine::MachineModel model = machine::preset_machine(name);
    for (const int nodes : {1, 2, 4, 7}) {
      const Topology topo = model.topology(nodes);
      for (const int msgs : {0, 1, 3, 16, 40}) {
        for (const std::int64_t bytes :
             {std::int64_t{0}, std::int64_t{1}, std::int64_t{4096},
              std::int64_t{1} << 20}) {
          for (const std::uint64_t seed : {1ULL, 7ULL, 9601ULL}) {
            const CommPattern p = core::random_pattern(topo, msgs, bytes, seed);
            fp.add(static_cast<std::int64_t>(core::pattern_hash(p)));
            fp.add(p.total_messages());
            fp.add(p.total_bytes());
            ++patterns;
          }
        }
      }
    }
  }
  EXPECT_EQ(patterns, 5 * 4 * 5 * 4 * 3);
  EXPECT_EQ(fp.h, 0xc61202c676b37b08ULL);
}

}  // namespace
}  // namespace hetcomm
