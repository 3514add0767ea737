// Bench-case registry.
//
// Every reproduction pipeline (one paper figure/table/ablation) is a
// CGC_BENCH-registered function instead of a main(). cgc_report links
// all of them and runs any subset (`--only id,...`) in one process over
// a shared in-memory trace cache, so each standard trace is built once
// however many cases read it.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace cgc::bench {

/// Where a case sits in the paper (drives report ordering/grouping).
enum class CaseKind { kFigure, kTable, kAblation, kExtension };

const char* kind_name(CaseKind kind);

struct BenchCase {
  std::string id;  ///< e.g. "fig04"; what --only selects
  std::string title;
  CaseKind kind = CaseKind::kFigure;
  std::function<void()> fn;
};

/// All registered cases, in registration (link) order.
std::vector<BenchCase>& registry();

/// All cases in paper order (figures, tables, ablations, extensions;
/// by id within a kind). Pointers into registry(); stable for the
/// process lifetime.
std::vector<const BenchCase*> sorted_cases();

/// Case with the given id, or nullptr.
const BenchCase* find_case(const std::string& id);

/// Registers a case; returns a dummy for static-init use.
int register_case(BenchCase c);

/// Registers the body that follows as a bench case:
///   CGC_BENCH("fig02", cgc::bench::CaseKind::kFigure, "…title…") {
///     ...pipeline...
///   }
#define CGC_BENCH(id, kind, title)                                    \
  static void cgc_bench_case_body();                                  \
  static const int cgc_bench_case_registered_ =                       \
      ::cgc::bench::register_case(                                    \
          {id, title, kind, &cgc_bench_case_body});                   \
  static void cgc_bench_case_body()

}  // namespace cgc::bench
