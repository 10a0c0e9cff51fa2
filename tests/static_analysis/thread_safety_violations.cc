// Seeded lock-invariant violations for the negative-compilation test.
//
// Compiled by tests/static_analysis/negative_compile_test.sh with
//   clang++ -fsyntax-only -Wthread-safety -Wthread-safety-beta
//           -Werror=thread-safety -Werror=thread-safety-beta
//           -DVIOLATION=<n>
// VIOLATION=0 (the baseline) must compile; every other value must NOT.
// A violation that starts compiling means the capability analysis has
// stopped proving that invariant — exactly the regression this test
// exists to catch.
//
// This file is never part of the library build; it only sees the
// compiler frontend.

#include "common/mutex.h"
#include "common/thread_annotations.h"

#ifndef VIOLATION
#define VIOLATION 0
#endif

namespace pcx {
namespace {

/// Mirrors the shape of the real annotated classes: two ordered locks
/// (BoundServer's mutate_mu_ -> mu_), guarded fields, and a lock-held
/// helper.
class Fixture {
 public:
  // -- Baseline: correct under every invariant. --------------------
  void CorrectGuardedWrite() {
    MutexLock lock(first_mu_);
    guarded_ = 1;
  }
  void CorrectLockOrder() {
    MutexLock first(first_mu_);
    MutexLock second(second_mu_);
    guarded_ += counted_;
  }
  void CorrectRequiresCall() {
    MutexLock lock(first_mu_);
    HelperLocked();
  }
  void CorrectBalancedManualLock() {
    first_mu_.Lock();
    guarded_ = 2;
    first_mu_.Unlock();
  }

#if VIOLATION == 1
  // -- Violation 1: writing a GUARDED_BY field with no lock held. ---
  void UnguardedWrite() { guarded_ = 42; }
#endif

#if VIOLATION == 2
  // -- Violation 2: taking the locks against their ACQUIRED_BEFORE
  //    order (second_mu_ first) — the deadlock-shaped bug. Caught by
  //    -Wthread-safety-beta.
  void ReversedLockOrder() {
    MutexLock second(second_mu_);
    MutexLock first(first_mu_);
    guarded_ += counted_;
  }
#endif

#if VIOLATION == 3
  // -- Violation 3: calling a REQUIRES(first_mu_) helper without
  //    holding first_mu_.
  void MissingRequires() { HelperLocked(); }
#endif

#if VIOLATION == 4
  // -- Violation 4: acquiring without releasing — the capability is
  //    still held when the function returns.
  void LeakedLock() {
    first_mu_.Lock();
    guarded_ = 7;
  }
#endif

 private:
  void HelperLocked() REQUIRES(first_mu_) { guarded_ += 1; }

  Mutex first_mu_ ACQUIRED_BEFORE(second_mu_);
  Mutex second_mu_;
  int guarded_ GUARDED_BY(first_mu_) = 0;
  int counted_ GUARDED_BY(second_mu_) = 0;
};

}  // namespace
}  // namespace pcx

int main() {
  pcx::Fixture fixture;
  fixture.CorrectGuardedWrite();
  fixture.CorrectLockOrder();
  fixture.CorrectRequiresCall();
  fixture.CorrectBalancedManualLock();
  return 0;
}
