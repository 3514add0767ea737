// Seeded violation, header half: a FlatHashMap member declared here and
// iterated in flat_members.cpp.
#pragma once

#include <cstdint>

template <typename Key, typename Value>
class FlatHashMap;

class HostCounts {
 public:
  void emit() const;

 private:
  FlatHashMap<std::int64_t, std::int64_t> counts_;
};
