#include "spans.hpp"

#include <ctime>
#include <ostream>

namespace perfbench {

std::uint64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

Tracer::Tracer(bool enabled, std::string run_id)
    : enabled_(enabled), run_id_(std::move(run_id)) {}

Tracer::Scope::Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
  if (!tracer_->enabled_) {
    return;
  }
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(Span{std::move(name), mono_ns(), 0, tracer_->open_});
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) {
    return;
  }
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.end_ns = mono_ns();
  tracer_->open_ = span.parent;
}

void Tracer::write_json(std::ostream& out) const {
  out << "{\"run_id\": \"" << run_id_ << "\", \"spans\": [";
  const char* sep = "";
  for (const Span& span : spans_) {
    out << sep << "\n{\"name\": \"" << span.name
        << "\", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns << ", \"parent\": " << span.parent
        << "}";
    sep = ",";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
