// Deterministic fault injection for the transactional customization path.
//
// A FaultPlan is threaded (as a nullable pointer) through the operations a
// customization performs — image::checkpoint, rw::ImageRewriter edits,
// library injection, image::restore. Each operation calls fire() at its
// fault point; a disarmed plan only counts the points it passes (so a test
// can first measure how many opportunities a scenario has), while an armed
// plan throws InjectedFault at exactly the nth occurrence of its stage.
// That determinism is what lets tests/txn_test.cpp prove group-atomicity
// under *every* possible failure point rather than a sampled few.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "common/error.hpp"

namespace dynacut {

/// The customization operations that can be made to fail.
enum class FaultStage : size_t {
  kCheckpoint = 0,  ///< dumping a frozen process into a ProcessImage
  kRewrite,         ///< one code edit (patch/wipe/undo/unmap) on an image
  kInject,          ///< injecting a handler library into an image
  kRestore,         ///< installing a rewritten image into a process
};

inline constexpr size_t kNumFaultStages = 4;

inline const char* fault_stage_name(FaultStage s) {
  switch (s) {
    case FaultStage::kCheckpoint: return "checkpoint";
    case FaultStage::kRewrite: return "rewrite";
    case FaultStage::kInject: return "inject";
    case FaultStage::kRestore: return "restore";
  }
  return "?";
}

/// Thrown by an armed FaultPlan when its trigger point is reached.
class InjectedFault : public Error {
 public:
  InjectedFault(FaultStage stage, size_t nth)
      : Error("injected fault: " + std::string(fault_stage_name(stage)) +
              " #" + std::to_string(nth)),
        stage_(stage),
        nth_(nth) {}

  FaultStage stage() const { return stage_; }
  size_t nth() const { return nth_; }

 private:
  FaultStage stage_;
  size_t nth_;
};

class FaultPlan {
 public:
  /// Disarmed plan: fire() only counts occurrences.
  FaultPlan() = default;

  /// Plan that throws at the nth (0-based) occurrence of `stage`.
  static FaultPlan fail_at(FaultStage stage, size_t nth) {
    FaultPlan p;
    p.armed_ = true;
    p.stage_ = stage;
    p.nth_ = nth;
    return p;
  }

  /// A fault point: counts the occurrence, throws if it is the armed one.
  void fire(FaultStage s) {
    size_t n = counts_[static_cast<size_t>(s)]++;
    if (armed_ && stage_ == s && n == nth_) throw InjectedFault(s, n);
  }

  /// Convenience for the nullable-pointer threading convention.
  static void fire(FaultPlan* plan, FaultStage s) {
    if (plan != nullptr) plan->fire(s);
  }

  /// Occurrences of `s` observed since construction.
  size_t count(FaultStage s) const {
    return counts_[static_cast<size_t>(s)];
  }

  bool armed() const { return armed_; }

 private:
  bool armed_ = false;
  FaultStage stage_ = FaultStage::kCheckpoint;
  size_t nth_ = 0;
  std::array<size_t, kNumFaultStages> counts_{};
};

}  // namespace dynacut
