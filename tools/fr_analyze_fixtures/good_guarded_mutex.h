// EXPECT: clean
// The annotated-wrapper shape fr_analyze wants: the mutex declaration is
// paired with FR_GUARDED_BY fields in the same file.
#pragma once

#include "common/annotations.h"
#include "common/mutex.h"

class GuardedCounter {
 public:
  void bump() {
    faultyrank::MutexLock lock(mutex_);
    ++count_;
  }

 private:
  mutable faultyrank::Mutex mutex_;
  int count_ FR_GUARDED_BY(mutex_) = 0;
};
