// merge_sorted_runs: sorts a vector made of a few ascending runs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace cgc::util {

/// Sorts `v` by `less` by merging its ascending runs pairwise, in
/// O(n log runs): a sequence that is already sorted costs one scan, and
/// a workload made of a few generator streams a few merge passes. Each
/// merge is stable, so with a strict order on unique keys the result is
/// the one order any sort would produce.
template <typename T, typename Less>
void merge_sorted_runs(std::vector<T>* v, Less less) {
  std::vector<std::size_t> bounds = {0};
  for (std::size_t i = 1; i < v->size(); ++i) {
    if (less((*v)[i], (*v)[i - 1])) {
      bounds.push_back(i);
    }
  }
  bounds.push_back(v->size());
  const auto at = [v](std::size_t i) {
    return v->begin() + static_cast<std::ptrdiff_t>(i);
  };
  while (bounds.size() > 2) {
    std::vector<std::size_t> merged = {0};
    for (std::size_t k = 2; k < bounds.size(); k += 2) {
      std::inplace_merge(at(bounds[k - 2]), at(bounds[k - 1]), at(bounds[k]),
                         less);
      merged.push_back(bounds[k]);
    }
    if (bounds.size() % 2 == 0) {
      merged.push_back(bounds.back());  // odd run count: last run waits
    }
    bounds = std::move(merged);
  }
}

}  // namespace cgc::util
