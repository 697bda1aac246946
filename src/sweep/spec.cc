#include "sweep/spec.h"

#include <algorithm>
#include <functional>

#include "metrics/registry.h"
#include "transfer/link.h"
#include "util/rng.h"

namespace p2p {
namespace sweep {
namespace {

// Appends "token=value" pairs joined by spaces.
std::string JoinCoords(
    const std::vector<std::pair<std::string, std::string>>& coords) {
  std::string out;
  for (const auto& [axis, value] : coords) {
    if (!out.empty()) out += ' ';
    out += axis;
    out += '=';
    out += value;
  }
  return out;
}

// One active axis of the grid: its coordinate token and its points. A point
// is the coordinate value a cell reports plus the edit that applies it to
// the cell's scenario. The axes edit disjoint fields, so a cell is valid
// exactly when each of its points is valid on the base.
struct Axis {
  struct Point {
    std::string value;
    std::function<void(Scenario*)> edit;
  };
  std::string token;
  std::string error_context;  // prefixed to a point's validation error
  std::vector<Point> points;
};

// The edit that sets one SystemOptions field to `value`.
template <typename T>
std::function<void(Scenario*)> SetOption(T backup::SystemOptions::*field,
                                         T value) {
  return [field, value](Scenario* s) { s->options.*field = value; };
}

// Appends an axis over `items` unless it is empty (an empty axis keeps the
// base value). `resolve` turns one item into its point or an error.
template <typename T, typename Resolve>
util::Status AddAxis(const char* token, const std::vector<T>& items,
                     const Resolve& resolve, const char* error_context,
                     std::vector<Axis>* axes) {
  if (items.empty()) return util::Status::OK();
  Axis axis{token, error_context, {}};
  axis.points.reserve(items.size());
  for (const T& item : items) {
    P2P_ASSIGN_OR_RETURN(Axis::Point point, resolve(item));
    axis.points.push_back(std::move(point));
  }
  axes->push_back(std::move(axis));
  return util::Status::OK();
}

// Resolves one token of a strategy axis against its family's table (errors
// name the axis and token); coordinates carry the canonical spec form.
template <typename Spec>
auto StrategyPoint(const char* token, Spec backup::SystemOptions::*field) {
  return [token, field](const std::string& item) -> util::Result<Axis::Point> {
    util::Result<Spec> parsed = Spec::Parse(item);
    if (!parsed.ok()) {
      return util::Status::InvalidArgument(std::string(token) + " axis: " +
                                           parsed.status().message());
    }
    return Axis::Point{parsed->ToString(), SetOption(field, *parsed)};
  };
}

// The axes in expansion order: the one list that GroupCount(), ActiveAxes()
// and ResolveAxes() walk. Each row passes `visit` the axis token, the
// SweepSpec list holding its items, how one item resolves into its point,
// and the prefix of a point's validation errors; the first error `visit`
// returns stops the walk.
template <typename Visit>
util::Status ForEachAxis(const SweepSpec& spec, const Visit& visit) {
  using backup::SystemOptions;
  P2P_RETURN_IF_ERROR(visit(
      "threshold", spec.repair_thresholds,
      [](int t) -> util::Result<Axis::Point> {
        return Axis::Point{std::to_string(t),
                           SetOption(&SystemOptions::repair_threshold, t)};
      },
      ""));
  P2P_RETURN_IF_ERROR(visit(
      "quota", spec.quotas,
      [](int q) -> util::Result<Axis::Point> {
        return Axis::Point{std::to_string(q),
                           SetOption(&SystemOptions::quota_blocks, q)};
      },
      ""));
  // A policy's explicit threshold must fit the base code geometry; its
  // validation errors say which axis they come from.
  P2P_RETURN_IF_ERROR(
      visit("policy", spec.policies,
            StrategyPoint("policy", &SystemOptions::policy), "policy axis: "));
  P2P_RETURN_IF_ERROR(
      visit("selection", spec.selections,
            StrategyPoint("selection", &SystemOptions::selection), ""));
  P2P_RETURN_IF_ERROR(
      visit("estimator", spec.estimators,
            StrategyPoint("estimator", &SystemOptions::estimator), ""));
  P2P_RETURN_IF_ERROR(visit(
      "scenario", spec.scenarios,
      [](const std::string& name) -> util::Result<Axis::Point> {
        util::Result<Scenario> loaded = scenario::LoadScenario(name);
        if (!loaded.ok()) {
          return util::Status::InvalidArgument("scenario axis: " +
                                               loaded.status().message());
        }
        std::string coord = loaded->name;
        return Axis::Point{std::move(coord),
                           [world = std::move(*loaded)](Scenario* s) {
                             scenario::ApplyWorld(world, s);
                           }};
      },
      ""));
  P2P_RETURN_IF_ERROR(visit(
      "visibility", spec.visibilities,
      [](backup::VisibilityModel v) -> util::Result<Axis::Point> {
        return Axis::Point{backup::VisibilityModelName(v),
                           SetOption(&SystemOptions::visibility, v)};
      },
      ""));
  // A link point turns the transfer scheduler on; an empty name (which
  // would mean instant repairs) is an unknown link here.
  P2P_RETURN_IF_ERROR(visit(
      "link", spec.links,
      [](const std::string& link) -> util::Result<Axis::Point> {
        P2P_RETURN_IF_ERROR(transfer::FindLinkProfile(link).status());
        return Axis::Point{link,
                           SetOption(&SystemOptions::transfer_link, link)};
      },
      ""));
  return util::Status::OK();
}

// Every active axis of `spec` in expansion order, resolved once: scenario
// files loaded, strategy specs parsed, link names looked up.
util::Result<std::vector<Axis>> ResolveAxes(const SweepSpec& spec) {
  std::vector<Axis> axes;
  P2P_RETURN_IF_ERROR(ForEachAxis(
      spec, [&axes](const char* token, const auto& items, const auto& resolve,
                    const char* error_context) {
        return AddAxis(token, items, resolve, error_context, &axes);
      }));
  return axes;
}

// Everything Validate() checks, given the resolved axes (shared with
// Expand() so each axis is resolved - and any files parsed - exactly once
// per expansion).
util::Status ValidateResolved(const SweepSpec& spec,
                              const std::vector<Axis>& axes) {
  if (spec.replicates < 1) {
    return util::Status::InvalidArgument("replicates must be >= 1, got " +
                                         std::to_string(spec.replicates));
  }
  if (auto selection = metrics::ResolveMetricSelection(spec.metrics);
      !selection.ok()) {
    return util::Status::InvalidArgument("metrics list: " +
                                         selection.status().message());
  }
  P2P_RETURN_IF_ERROR(spec.base.Validate());
  // Each point on the base: with the base valid and the axes editing
  // disjoint fields, this proves every cell of the grid valid.
  for (const Axis& axis : axes) {
    for (const Axis::Point& point : axis.points) {
      Scenario cell = spec.base;
      point.edit(&cell);
      if (util::Status st = cell.Validate(); !st.ok()) {
        if (axis.error_context.empty()) return st;
        return util::Status::InvalidArgument(axis.error_context +
                                             st.message());
      }
    }
  }
  return util::Status::OK();
}

}  // namespace

uint64_t ReplicateSeed(uint64_t base_seed, uint64_t replicate) {
  if (replicate == 0) return base_seed;
  // The replicate index is a stream id under the Engine's own seed-mixing
  // discipline, so replicates are as independent as any two RNG streams.
  return util::DeriveSeed(base_seed, replicate);
}

std::string Cell::Label() const { return JoinCoords(coords); }

util::Status SweepSpec::Validate() const {
  P2P_ASSIGN_OR_RETURN(const std::vector<Axis> axes, ResolveAxes(*this));
  return ValidateResolved(*this, axes);
}

size_t SweepSpec::GroupCount() const {
  size_t groups = 1;
  ForEachAxis(*this, [&groups](const char*, const auto& items, const auto&,
                               const char*) {
    groups *= std::max<size_t>(items.size(), 1);  // empty: the base value
    return util::Status::OK();
  });
  return groups;
}

size_t SweepSpec::CellCount() const {
  return GroupCount() * static_cast<size_t>(replicates < 1 ? 0 : replicates);
}

std::vector<std::string> SweepSpec::ActiveAxes() const {
  std::vector<std::string> axes;
  ForEachAxis(*this, [&axes](const char* token, const auto& items,
                             const auto&, const char*) {
    if (!items.empty()) axes.push_back(token);
    return util::Status::OK();
  });
  if (replicates > 1) axes.push_back("rep");
  return axes;
}

util::Result<std::vector<Cell>> SweepSpec::Expand() const {
  P2P_ASSIGN_OR_RETURN(const std::vector<Axis> axes, ResolveAxes(*this));
  P2P_RETURN_IF_ERROR(ValidateResolved(*this, axes));

  const size_t groups = GroupCount();
  std::vector<Cell> cells;
  cells.reserve(CellCount());
  // Row-major order, replicates innermost: group g is the mixed-radix
  // number whose digits, last axis fastest, pick each axis's point.
  for (size_t group = 0; group < groups; ++group) {
    Scenario resolved = base;
    std::vector<std::pair<std::string, std::string>> coords;
    size_t stride = groups;
    for (const Axis& axis : axes) {
      stride /= axis.points.size();
      const Axis::Point& point =
          axis.points[group / stride % axis.points.size()];
      point.edit(&resolved);
      coords.emplace_back(axis.token, point.value);
    }
    // The sweep-level metric selection (when set) rides on every cell's
    // scenario, so a cell re-run in isolation reports the same columns the
    // sweep did.
    if (!metrics.empty()) resolved.metrics = metrics;
    for (int rep = 0; rep < replicates; ++rep) {
      Cell cell;
      cell.index = cells.size();
      cell.group = group;
      cell.replicate = static_cast<size_t>(rep);
      cell.scenario = resolved;
      cell.scenario.seed = ReplicateSeed(base.seed, static_cast<uint64_t>(rep));
      cell.coords = coords;
      if (replicates > 1) cell.coords.emplace_back("rep", std::to_string(rep));
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

}  // namespace sweep
}  // namespace p2p
