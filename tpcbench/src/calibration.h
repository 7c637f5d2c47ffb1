#ifndef TPCBENCH_CALIBRATION_H_
#define TPCBENCH_CALIBRATION_H_

#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tpcbench {

/// How fast the host runs right now, measured with a fixed slice of work
/// the engine does not share: one read per cache line over an 8 MB buffer.
/// The slice's time moves with the host's memory and cache contention,
/// which is what makes identical query work run up to twice as slow from
/// one minute to the next on a shared host. A time measured next to a
/// slice is normalized to reference speed by multiplying it with
/// Factor(slice): what it would have taken had the slice taken
/// kReferenceSliceS.
class Calibration {
 public:
  /// About the slice's median time during the workloads' timed phases on
  /// the host the benchmark was tuned on (4-vCPU KVM guest, Intel Xeon at
  /// 2.1 GHz); normalized times read like that host's times.
  static constexpr double kReferenceSliceS = 0.6e-3;

  Calibration();
  Calibration(const Calibration&) = delete;
  Calibration& operator=(const Calibration&) = delete;

  /// Runs the slice once on the calling thread; returns its seconds. Safe
  /// to call from several threads at once (the buffer is only read).
  double Slice() const;

  static double Factor(double slice_s) {
    return slice_s > 0.0 ? kReferenceSliceS / slice_s : 1.0;
  }

 private:
  struct Free {
    void operator()(uint64_t* p) const { std::free(p); }
  };
  std::unique_ptr<uint64_t[], Free> buffer_;
};

/// Runs calibration slices on a thread of its own, a few milliseconds
/// apart, for as long as it lives. It samples the host's speed while
/// single-threaded work (a load, a maintenance cycle) runs beside it on
/// another core.
class SliceSampler {
 public:
  explicit SliceSampler(const Calibration& cal);
  ~SliceSampler() { Stop(); }
  SliceSampler(const SliceSampler&) = delete;
  SliceSampler& operator=(const SliceSampler&) = delete;

  /// Stops the thread and waits for it; returns the median slice seconds
  /// (of one slice run now when none ran yet).
  double Stop();

 private:
  const Calibration& cal_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> slices_;
  std::thread thread_;
};

/// Runs `work` beside a SliceSampler and returns the factor that brings a
/// time measured inside it to reference speed.
template <typename F>
double Sampled(const Calibration& cal, F work) {
  SliceSampler sampler(cal);
  work();
  return Calibration::Factor(sampler.Stop());
}

}  // namespace tpcbench

#endif  // TPCBENCH_CALIBRATION_H_
