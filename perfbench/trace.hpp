// In-memory span recorder for the traced run. The benchmark opens a
// span around every call it makes into a layer's public function
// (CompiledPipeline::process, ControlPlane::service_punts,
// Session::write, ...). Spans nest LIFO on one thread; each keeps its
// parent and the packet or commit id it belongs to. Nothing is written
// until the run ends (write_csv), so recording costs two clock reads
// and one vector append per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";     ///< static string, the layer's function
  std::uint32_t parent = 0;  ///< index + 1 of the enclosing span; 0 = root
  std::uint64_t owner = 0;   ///< packet or commit id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  /// Reserves room for `capacity` spans up front; full() tells the
  /// caller to stop the traced phase before the vector would grow.
  explicit Tracer(std::size_t capacity);

  bool full() const { return spans_.size() + 8 > spans_.capacity(); }

  /// Open a span; returns its index. Spans must close in LIFO order.
  std::uint32_t open(const char* name, std::uint64_t owner);
  void close(std::uint32_t index) { spans_[index].end_ns = now_ns(); --depth_; }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Each span's duration minus the time its direct children cover.
  std::vector<std::int64_t> self_times() const;

  /// One line per span: index,parent,owner,name,start_ns,end_ns.
  bool write_csv(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint32_t depth_ = 0;
};

}  // namespace perfbench
