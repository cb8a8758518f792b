// The `sdf` command-line tool, as a testable library function.
//
// Subcommands:
//   sdf validate <spec.json>             lint gate: errors + warnings; exit
//                                        code 0/1/2 by max severity
//   sdf lint <spec.json> [...]           full rule-based diagnostics (see
//                                        docs/LINT.md); --list catalogues
//   sdf flexibility <spec.json>          Def. 4 analysis of the problem graph
//   sdf explore <spec.json> [...]        EXPLORE; prints the Pareto front
//   sdf dot <spec.json> [--graph=...]    DOT rendering to stdout
//   sdf generate [--seed=...] [...]      synthetic spec JSON to stdout
//   sdf demo <settop|decoder>            built-in paper models as JSON
//
// `run_cli` is what `tools/sdf` calls with argv; tests call it with argument
// vectors and inspect the streams.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace sdf {

/// Runs one CLI invocation.  `args` excludes the program name.  Returns the
/// process exit code (0 = success); a command that throws prints the
/// exception's message and returns 1.
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

}  // namespace sdf
