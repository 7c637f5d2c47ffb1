#ifndef TPCBENCH_TRACE_H_
#define TPCBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace tpcbench {

/// Seconds on the steady clock; every span time uses this scale.
inline double SteadyNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval at a layer boundary. `name` is the layer
/// ("parser.parse", "maintenance.fork", ...) or a wrapper ("statement",
/// "unit.*"); `unit` is the statement or maintenance cycle it belongs to
/// (-1 when none).
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  int64_t unit = -1;
  uint64_t tid = 0;
};

/// Collects spans in memory; they are written out once, at exit. A null
/// Tracer* everywhere means "untraced": ScopedSpan still times, records
/// nothing.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int64_t NewId();
  /// Records a span whose interval is already known. `id` 0 draws a fresh
  /// id; pass a NewId() reserved earlier when children already name it.
  int64_t Record(std::string name, int64_t parent, double start_s,
                 double end_s, int64_t unit = -1, int64_t id = 0);
  std::vector<Span> Spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t next_id_ = 1;
};

/// Times its own lifetime and, with a tracer, records it as a span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int64_t parent,
             int64_t unit = -1);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span early (idempotent); returns its duration in seconds.
  double End();
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::string name_;
  int64_t parent_;
  int64_t unit_;
  int64_t id_ = 0;
  double start_s_;
  double seconds_ = -1.0;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers (children running
/// concurrently on several threads are not double-subtracted). Summed
/// per span name within each root span's subtree: result[root_id][name].
std::map<int64_t, std::map<std::string, double>> SelfTimeByRoot(
    const std::vector<Span>& spans);

/// True for spans named after a module layer ("parser.parse"), false for
/// the wrappers that only group them ("statement", "unit.sweep").
bool IsLayerSpan(const std::string& name);

/// Writes the spans as Chrome trace-event JSON ("X" complete events,
/// microsecond timestamps from the earliest span), loadable in
/// chrome://tracing or Perfetto.
tpcds::Status WriteChromeTrace(const std::string& path,
                               const std::vector<Span>& spans);

}  // namespace tpcbench

#endif  // TPCBENCH_TRACE_H_
