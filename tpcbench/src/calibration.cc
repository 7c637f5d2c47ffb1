#include "calibration.h"

#include <sys/mman.h>

#include <atomic>
#include <chrono>
#include <new>

#include "sample_stats.h"
#include "trace.h"

namespace tpcbench {
namespace {

constexpr size_t kBufferBytes = size_t{8} << 20;
constexpr size_t kBufferWords = kBufferBytes / sizeof(uint64_t);
constexpr size_t kHugePage = size_t{2} << 20;
constexpr size_t kWordsPerLine = 64 / sizeof(uint64_t);
// Pause between a sampler's slices: a slice takes about 0.5 ms, so the
// sampler keeps about a tenth of one core busy.
constexpr auto kSamplerPause = std::chrono::milliseconds(4);

// Keeps the slice's reads from being optimized away.
std::atomic<uint64_t> g_sink{0};

}  // namespace

Calibration::Calibration()
    : buffer_(static_cast<uint64_t*>(std::aligned_alloc(kHugePage,
                                                        kBufferBytes))) {
  if (buffer_ == nullptr) throw std::bad_alloc();
  // On 4 KB pages the slice's time depends on where the kernel happens to
  // place the pages: the medians of separate processes on the same host
  // differed by up to 15%. On huge pages they differed by about 5%.
#ifdef MADV_HUGEPAGE
  madvise(buffer_.get(), kBufferBytes, MADV_HUGEPAGE);
#endif
  for (size_t i = 0; i < kBufferWords; ++i) {
    buffer_[i] = i * 0x9E3779B97F4A7C15ULL;
  }
}

double Calibration::Slice() const {
  // Two passes, only the second timed: the first brings the buffer to the
  // same cache state whatever ran before, so a slice right after another
  // one measures the same as a slice right after a statement.
  double start = 0.0;
  uint64_t sum = 0;
  for (int pass = 0; pass < 2; ++pass) {
    start = SteadyNow();
    for (size_t i = 0; i < kBufferWords; i += kWordsPerLine) {
      sum += buffer_[i];
    }
  }
  double seconds = SteadyNow() - start;
  g_sink.fetch_add(sum, std::memory_order_relaxed);
  return seconds;
}

SliceSampler::SliceSampler(const Calibration& cal) : cal_(cal) {
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      double seconds = cal_.Slice();
      lock.lock();
      slices_.push_back(seconds);
      cv_.wait_for(lock, kSamplerPause, [this] { return stop_; });
    }
  });
}

double SliceSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  if (slices_.empty()) slices_.push_back(cal_.Slice());
  return Median(slices_);
}

}  // namespace tpcbench
