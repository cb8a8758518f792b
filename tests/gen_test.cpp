// Tests for the synthetic specification generator.
#include <gtest/gtest.h>

#include <algorithm>

#include "flex/activatability.hpp"
#include "flex/flexibility.hpp"
#include "gen/presets.hpp"
#include "gen/spec_generator.hpp"
#include "spec/compiled.hpp"
#include "spec/spec_io.hpp"

namespace sdf {
namespace {

TEST(Generator, ProducesValidSpecs) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    GeneratorParams params;
    params.seed = seed;
    const SpecificationGraph spec = generate_spec(params);
    EXPECT_TRUE(spec.validate().ok()) << "seed " << seed;
  }
}

TEST(Generator, DeterministicForSeed) {
  GeneratorParams params;
  params.seed = 99;
  const SpecificationGraph a = generate_spec(params);
  const SpecificationGraph b = generate_spec(params);
  EXPECT_EQ(spec_to_string(a).value(), spec_to_string(b).value());
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorParams pa, pb;
  pa.seed = 1;
  pb.seed = 2;
  EXPECT_NE(spec_to_string(generate_spec(pa)).value(),
            spec_to_string(generate_spec(pb)).value());
}

TEST(Generator, EveryProcessMappableToAProcessor) {
  GeneratorParams params;
  params.seed = 3;
  const SpecificationGraph spec = generate_spec(params);
  for (NodeId leaf : spec.problem().leaves())
    EXPECT_TRUE(spec.compiled().reachable_units(leaf).any())
        << spec.problem().node(leaf).name;
}

TEST(Generator, FullAllocationIsAlwaysPossible) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GeneratorParams params;
    params.seed = seed;
    const SpecificationGraph spec = generate_spec(params);
    const CompiledSpec& cs = spec.compiled();
    AllocSet all = spec.make_alloc_set();
    for (std::size_t i = 0; i < spec.alloc_units().size(); ++i) all.set(i);
    EXPECT_TRUE(is_possible_allocation(cs, all)) << "seed " << seed;
    EXPECT_EQ(estimate_flexibility(cs, all).value(),
              max_flexibility(spec.problem()))
        << "seed " << seed;
  }
}

TEST(Generator, ParametersControlScale) {
  GeneratorParams small;
  small.seed = 4;
  small.applications = 1;
  small.processors = 1;
  small.accelerators = 0;
  small.fpga_configs = 0;
  small.interfaces_per_app_max = 0;
  const SpecificationGraph s = generate_spec(small);
  EXPECT_EQ(s.alloc_units().size(), 1u);
  EXPECT_EQ(s.problem().all_interfaces().size(), 1u);  // the apps interface

  GeneratorParams big = small;
  big.applications = 5;
  big.processors = 3;
  big.accelerators = 3;
  big.fpga_configs = 3;
  big.interfaces_per_app_max = 2;
  const SpecificationGraph b = generate_spec(big);
  EXPECT_GT(b.alloc_units().size(), s.alloc_units().size());
  EXPECT_GT(b.problem().node_count(), s.problem().node_count());
}

TEST(Generator, MaxFlexibilityGrowsWithAlternatives) {
  GeneratorParams narrow;
  narrow.seed = 8;
  narrow.applications = 2;
  narrow.clusters_per_interface_min = 2;
  narrow.clusters_per_interface_max = 2;
  GeneratorParams wide = narrow;
  wide.clusters_per_interface_min = 4;
  wide.clusters_per_interface_max = 4;
  const double f_narrow = max_flexibility(generate_spec(narrow).problem());
  const double f_wide = max_flexibility(generate_spec(wide).problem());
  EXPECT_GE(f_wide, f_narrow);
}

TEST(Generator, TimedApplicationsCarryPeriods) {
  GeneratorParams params;
  params.seed = 6;
  params.timed_app_prob = 1.0;
  const SpecificationGraph spec = generate_spec(params);
  bool found_period = false;
  for (NodeId leaf : spec.problem().leaves())
    if (spec.problem().attr_or(leaf, attr::kPeriod, 0.0) > 0.0)
      found_period = true;
  EXPECT_TRUE(found_period);

  GeneratorParams untimed = params;
  untimed.timed_app_prob = 0.0;
  const SpecificationGraph u = generate_spec(untimed);
  for (NodeId leaf : u.problem().leaves())
    EXPECT_EQ(u.problem().attr_or(leaf, attr::kPeriod, 0.0), 0.0);
}

// ---- presets ------------------------------------------------------------------

TEST(Presets, AllPresetsProduceValidSpecs) {
  for (PlatformPreset preset :
       {PlatformPreset::kSetTopBox, PlatformPreset::kAutomotiveEcu,
        PlatformPreset::kBasebandDsp}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const SpecificationGraph spec = generate_preset(preset, seed);
      EXPECT_TRUE(spec.validate().ok())
          << preset_name(preset) << " seed " << seed;
    }
  }
}

TEST(Presets, ShapesDiffer) {
  const SpecificationGraph ecu =
      generate_preset(PlatformPreset::kAutomotiveEcu, 7);
  const SpecificationGraph dsp =
      generate_preset(PlatformPreset::kBasebandDsp, 7);

  // The ECU network: every application carries a period; no FPGA.
  std::size_t ecu_timed = 0;
  for (NodeId leaf : ecu.problem().leaves())
    if (ecu.problem().attr_or(leaf, attr::kPeriod, 0.0) > 0.0) ++ecu_timed;
  EXPECT_GT(ecu_timed, 0u);
  EXPECT_TRUE(ecu.architecture().all_interfaces().empty());
  // Four processors.
  std::size_t ecu_cpus = 0;
  for (const AllocUnit& u : ecu.alloc_units())
    if (!u.is_comm && !u.is_cluster_unit()) ++ecu_cpus;
  EXPECT_EQ(ecu_cpus, 5u);  // 4 processors + 1 accelerator

  // The DSP farm: reconfigurable configurations exist and the hierarchy
  // can nest deeper.
  std::size_t dsp_configs = 0;
  for (const AllocUnit& u : dsp.alloc_units())
    if (u.is_cluster_unit()) ++dsp_configs;
  EXPECT_EQ(dsp_configs, 4u);
  // Deep alternative hierarchies are reachable (seed-dependent draw, so
  // check across a few seeds).
  std::size_t max_depth = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const SpecificationGraph s =
        generate_preset(PlatformPreset::kBasebandDsp, seed);
    max_depth = std::max(max_depth, s.problem().depth(s.problem().root()));
  }
  EXPECT_GE(max_depth, 3u);
}

TEST(Presets, DeterministicPerSeed) {
  const SpecificationGraph a =
      generate_preset(PlatformPreset::kBasebandDsp, 42);
  const SpecificationGraph b =
      generate_preset(PlatformPreset::kBasebandDsp, 42);
  EXPECT_EQ(spec_to_string(a).value(), spec_to_string(b).value());
}

TEST(Presets, NamesAreStable) {
  EXPECT_STREQ(preset_name(PlatformPreset::kSetTopBox), "settop-box");
  EXPECT_STREQ(preset_name(PlatformPreset::kAutomotiveEcu),
               "automotive-ecu");
  EXPECT_STREQ(preset_name(PlatformPreset::kBasebandDsp), "baseband-dsp");
}

}  // namespace
}  // namespace sdf
