// Line-oriented `key = value` scenario files.
//
// Grammar (one assignment per line; '#' starts a comment; blank lines and
// surrounding whitespace are ignored):
//
//   name = flash-crowd
//   peers = 1500
//   rounds = 750d                      # durations take h/d/w/mo/y suffixes
//   seed = 42
//   options.repair_threshold = 148     # every SystemOptions knob
//   profile.0.name = durable           # profiles indexed from 0
//   profile.0.proportion = 0.1
//   profile.0.availability = 0.95
//   profile.0.lifetime = unlimited     # or uniform(lo,hi) / pareto(scale,
//   profile.0.sessions = diurnal       #   shape) / exponential(mean)
//   event.0.kind = flash-crowd         # events indexed from 0
//   event.0.at = 100d
//   event.0.fraction = 0.5
//   observer.0.name = elder-3m         # observers indexed from 0
//   observer.0.age = 3mo               # at most 64 observers
//   transfer.link = dsl-2009           # turns on the transfer scheduler
//   metrics.select = repairs,losses,repair_bandwidth   # report columns
//                                      # (registered probe names; omitted =
//                                      # the default set)
//
// Omitted keys keep the Scenario defaults (omitting every profile.* key
// keeps the paper population). Unknown and duplicate keys, and integer
// options outside the 32-bit range, are errors that name the line.
// Render() emits the canonical full form - every key, fixed order, the
// transfer link only when set - and Parse(Render(s)) == s exactly (a golden
// file plus round-trip tests over the whole registry lock this).

#ifndef P2P_SCENARIO_TEXT_H_
#define P2P_SCENARIO_TEXT_H_

#include <string>

#include "scenario/scenario.h"
#include "util/result.h"

namespace p2p {
namespace scenario {

/// Parses scenario text; errors carry line numbers and offending tokens.
/// The result has been Validate()d.
util::Result<Scenario> ParseScenarioText(const std::string& text);

/// Renders the canonical full text form (exact inverse of ParseScenarioText).
std::string RenderScenarioText(const Scenario& scenario);

/// Reads and parses a scenario file.
util::Result<Scenario> LoadScenarioFile(const std::string& path);

}  // namespace scenario
}  // namespace p2p

#endif  // P2P_SCENARIO_TEXT_H_
