#include "transfer/link.h"

namespace p2p {
namespace transfer {

namespace {

const LinkProfile* Registry(size_t* count) {
  static const LinkProfile kProfiles[] = {
      LinkProfile::Dsl2009(),
      LinkProfile::ModernDsl(),
      LinkProfile::Ftth(),
  };
  *count = sizeof(kProfiles) / sizeof(kProfiles[0]);
  return kProfiles;
}

}  // namespace

std::vector<std::string> LinkProfileNames() {
  size_t count = 0;
  const LinkProfile* profiles = Registry(&count);
  std::vector<std::string> names;
  names.reserve(count);
  for (size_t i = 0; i < count; ++i) names.push_back(profiles[i].name);
  return names;
}

util::Result<LinkProfile> FindLinkProfile(const std::string& name) {
  size_t count = 0;
  const LinkProfile* profiles = Registry(&count);
  for (size_t i = 0; i < count; ++i) {
    if (profiles[i].name == name) return profiles[i];
  }
  std::string known;
  for (size_t i = 0; i < count; ++i) {
    if (!known.empty()) known += ", ";
    known += profiles[i].name;
  }
  return util::Status::InvalidArgument("unknown link profile: '" + name +
                                       "' (known: " + known + ")");
}

}  // namespace transfer
}  // namespace p2p
