#include "trace.hpp"

#include <cstdio>

namespace perfbench {

Tracer::Tracer(std::size_t capacity) {
  spans_.reserve(capacity);
  stack_.resize(16);
}

std::uint32_t Tracer::open(const char* name, std::uint64_t owner) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  SpanRecord& s = spans_.emplace_back();
  s.name = name;
  s.owner = owner;
  s.parent = depth_ == 0 ? 0 : stack_[depth_ - 1] + 1;
  stack_[depth_++] = index;
  s.start_ns = now_ns();
  return index;
}

std::vector<std::int64_t> Tracer::self_times() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].duration_ns();
    if (spans_[i].parent != 0) {
      self[spans_[i].parent - 1] -= spans_[i].duration_ns();
    }
  }
  return self;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index,parent,owner,name,start_ns,end_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f, "%zu,%u,%llu,%s,%lld,%lld\n", i + 1, s.parent,
                 static_cast<unsigned long long>(s.owner), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
