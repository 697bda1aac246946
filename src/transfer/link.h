// The link-profile registry: the vocabulary of `transfer.link=` in scenario
// text, `--links=` on sweep_demo, and `--transfer=` on scenario_tool. Each
// name resolves to one of the paper-derived `LinkProfile` access links
// (section 2.2.4): the 2009 reference DSL line, a 4x "modern" DSL line, and
// a symmetric FTTH line.

#ifndef P2P_TRANSFER_LINK_H_
#define P2P_TRANSFER_LINK_H_

#include <string>
#include <vector>

#include "transfer/bandwidth.h"
#include "util/result.h"

namespace p2p {
namespace transfer {

/// Registered link-profile names, in registration order
/// ("dsl-2009", "dsl-modern", "ftth").
std::vector<std::string> LinkProfileNames();

/// Resolves a name to its profile; errors list the registry on a miss.
util::Result<LinkProfile> FindLinkProfile(const std::string& name);

}  // namespace transfer
}  // namespace p2p

#endif  // P2P_TRANSFER_LINK_H_
