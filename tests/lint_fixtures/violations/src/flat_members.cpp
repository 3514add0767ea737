// Seeded violation: emission in FlatHashMap slot order, through a member
// the lint only sees in the paired header.
#include "flat_members.hpp"

#include <cstdio>

void HostCounts::emit() const {
  for (const auto& [host, count] : counts_) {  // line 8: slot-order emission
    std::printf("%lld %lld\n", static_cast<long long>(host),
                static_cast<long long>(count));
  }
}
