// Umbrella header: the full public API of the library.
//
// The library reproduces "System Design for Flexibility" (Haubelt, Teich,
// Richter, Ernst; DATE 2002):
//
//   #include "core/sdf.hpp"
//
//   sdf::SpecificationGraph spec = sdf::models::make_settop_spec();
//   sdf::ExploreResult result = sdf::explore(spec);
//   for (const sdf::Implementation& impl : result.front)
//     std::cout << impl.cost << " -> f=" << impl.flexibility << '\n';
//
// Layering (each header is independently includable):
//   util/        ids, bitsets, RNG, JSON, tables
//   graph/       hierarchical graphs (Def. 1), flattening, validation, DOT
//   spec/        specification graphs G_S = (G_P, G_A, E_M), builders, I/O,
//                and the CompiledSpec query index (spec/compiled.hpp)
//   activation/  hierarchical timed activation and timelines (§2)
//   flex/        the flexibility metric (Def. 4) and its estimation (§4)
//   bind/        allocations/bindings (Defs. 2-3), ECAs, the binding solver
//   sched/       utilization estimate (69% rule), exact RM, list scheduling
//   moo/         Pareto fronts and quality indicators
//   explore/     EXPLORE, exhaustive and evolutionary explorers (§4)
//   gen/         synthetic specification generator
//
// Spec queries come in two forms.  `SpecificationGraph` offers convenience
// methods (mappings_of, allocation_cost, comm_reachable, ...) that are thin
// shims over a lazily built, mutation-invalidated `CompiledSpec`; engines
// with a hot loop (flex/bind/explore/lint) instead fetch
// `spec.compiled()` once and query the immutable index directly — every
// function in those layers therefore has a `const CompiledSpec&` overload
// next to the `const SpecificationGraph&` one.
#pragma once

#include "activation/activation_state.hpp"
#include "activation/cover_timeline.hpp"
#include "activation/timeline.hpp"
#include "bind/bind_cache.hpp"
#include "bind/binding.hpp"
#include "bind/eca.hpp"
#include "bind/enumerate.hpp"
#include "bind/implementation.hpp"
#include "bind/solver.hpp"
#include "explore/allocation_enum.hpp"
#include "explore/evolutionary.hpp"
#include "explore/exhaustive.hpp"
#include "explore/explorer.hpp"
#include "explore/incremental.hpp"
#include "explore/queries.hpp"
#include "explore/report.hpp"
#include "explore/sensitivity.hpp"
#include "explore/uncertain.hpp"
#include "flex/activatability.hpp"
#include "flex/flexibility.hpp"
#include "flex/interchange.hpp"
#include "flex/reduce.hpp"
#include "gen/presets.hpp"
#include "gen/spec_generator.hpp"
#include "graph/dot.hpp"
#include "graph/filter.hpp"
#include "graph/flatten.hpp"
#include "graph/hierarchical_graph.hpp"
#include "graph/traversal.hpp"
#include "graph/validate.hpp"
#include "lint/lint.hpp"
#include "moo/indicators.hpp"
#include "moo/interval.hpp"
#include "moo/knee.hpp"
#include "moo/pareto.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/profile.hpp"
#include "sched/quasi_static.hpp"
#include "sched/reconfig.hpp"
#include "sched/rm.hpp"
#include "sched/utilization.hpp"
#include "spec/attributes.hpp"
#include "spec/builder.hpp"
#include "spec/compiled.hpp"
#include "spec/paper_models.hpp"
#include "spec/spec_dot.hpp"
#include "spec/spec_io.hpp"
#include "spec/specification.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
