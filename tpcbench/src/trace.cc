#include "trace.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>
#include <unordered_map>

#include "json.h"

namespace tpcbench {

int64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

int64_t Tracer::Record(std::string name, int64_t parent, double start_s,
                       double end_s, int64_t unit, int64_t id) {
  Span span;
  span.name = std::move(name);
  span.start_s = start_s;
  span.end_s = std::max(start_s, end_s);
  span.parent = parent;
  span.unit = unit;
  span.tid = std::hash<std::thread::id>()(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  span.id = id != 0 ? id : next_id_++;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, int64_t parent,
                       int64_t unit)
    : tracer_(tracer),
      name_(std::move(name)),
      parent_(parent),
      unit_(unit),
      start_s_(SteadyNow()) {
  if (tracer_ != nullptr) id_ = tracer_->NewId();
}

double ScopedSpan::End() {
  if (seconds_ >= 0.0) return seconds_;
  double end = SteadyNow();
  seconds_ = end - start_s_;
  if (tracer_ != nullptr) {
    tracer_->Record(std::move(name_), parent_, start_s_, end, unit_, id_);
  }
  return seconds_;
}

std::map<int64_t, std::map<std::string, double>> SelfTimeByRoot(
    const std::vector<Span>& spans) {
  std::unordered_map<int64_t, const Span*> by_id;
  std::unordered_map<int64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    by_id[s.id] = &s;
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  auto root_of = [&](const Span& s) {
    const Span* cur = &s;
    while (cur->parent != 0) {
      auto it = by_id.find(cur->parent);
      if (it == by_id.end()) break;
      cur = it->second;
    }
    return cur->id;
  };
  std::map<int64_t, std::map<std::string, double>> out;
  for (const Span& s : spans) {
    std::vector<std::pair<double, double>> cover;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        double lo = std::max(c->start_s, s.start_s);
        double hi = std::min(c->end_s, s.end_s);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    // Length of the union of the clipped child intervals.
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (!open || lo > run_hi) {
        if (open) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
        open = true;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (open) covered += run_hi - run_lo;
    out[root_of(s)][s.name] += (s.end_s - s.start_s) - covered;
  }
  return out;
}

bool IsLayerSpan(const std::string& name) {
  return name.find('.') != std::string::npos && !name.starts_with("unit.");
}

tpcds::Status WriteChromeTrace(const std::string& path,
                               const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return tpcds::Status::IoError("cannot write trace: " + path);
  double origin = spans.empty() ? 0.0 : spans.front().start_s;
  for (const Span& s : spans) origin = std::min(origin, s.start_s);
  // Chrome wants small integer thread ids; number threads by first use.
  std::unordered_map<uint64_t, int> tids;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    int tid = tids.emplace(s.tid, static_cast<int>(tids.size()) + 1)
                  .first->second;
    JsonObject args;
    args.Int("id", s.id);
    args.Int("parent", s.parent);
    args.Int("unit", s.unit);
    JsonObject ev;
    ev.Str("name", s.name);
    ev.Str("cat", s.name.substr(0, s.name.find('.')));
    ev.Str("ph", "X");
    ev.Num("ts", (s.start_s - origin) * 1e6);
    ev.Num("dur", (s.end_s - s.start_s) * 1e6);
    ev.Int("pid", 1);
    ev.Int("tid", tid);
    ev.Raw("args", args.Render());
    out << "  " << ev.Render() << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  out.close();
  if (!out) return tpcds::Status::IoError("short write: " + path);
  return tpcds::Status::OK();
}

}  // namespace tpcbench
