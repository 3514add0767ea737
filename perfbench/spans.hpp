// In-memory span recorder for the benchmark's traced runs.
//
// Spans wrap the benchmark's own calls into the libraries (one span per
// public call); nothing inside src/ is instrumented. A span's name is
// "<layer>.<call>", its parent is the span open when it started, and
// every span of one iteration shares the tracer's run id. Spans stay
// in memory until write_json() at the end of the iteration; run.py
// derives each layer's self time from them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds — the same clock Python's
/// time.monotonic_ns() reads, so run.py can time process set-up.
std::uint64_t mono_ns();

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;  ///< index into the span list, -1 for a root
};

class Tracer {
 public:
  Tracer(bool enabled, std::string run_id);

  /// Closes its span when it goes out of scope. A disabled tracer hands
  /// out inert scopes.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  [[nodiscard]] Scope span(std::string name) { return Scope(this, std::move(name)); }

  bool enabled() const { return enabled_; }

  /// {"run_id": ..., "spans": [{"name", "start_ns", "end_ns", "parent"}]}
  void write_json(std::ostream& out) const;

 private:
  bool enabled_;
  std::string run_id_;
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace perfbench
