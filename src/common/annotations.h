// Clang thread-safety-analysis annotation macros (no-ops elsewhere).
//
// The analysis (-Wthread-safety) proves at compile time that every
// access to a guarded field happens with its capability (mutex) held.
// libstdc++'s std::mutex is not declared as a capability, so the
// annotated wrappers in common/mutex.h are what these macros attach
// to; FR_GUARDED_BY on a field naming a raw std::mutex would be
// rejected by Clang. House rule (fr_analyze's mutex-needs-guards
// pass): every mutex member must guard at least one
// FR_GUARDED_BY-annotated field in the same file, so the analysis
// actually has something to check.
//
// Build with -DFAULTYRANK_THREAD_SAFETY=ON under Clang to turn the
// analysis on (it is promoted to an error); GCC compiles all of this
// away via the __has_attribute probe below.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define FR_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef FR_THREAD_ANNOTATION
#define FR_THREAD_ANNOTATION(x)  // no-op: GCC and pre-capability Clang
#endif

/// Marks a type as a capability (lockable). The string names the
/// capability kind in diagnostics ("mutex", "shared_mutex", ...).
#define FR_CAPABILITY(x) FR_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose lifetime acquires/releases a capability.
#define FR_SCOPED_CAPABILITY FR_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be read/written while holding `x`.
#define FR_GUARDED_BY(x) FR_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field: the pointed-to data is guarded by `x` (the pointer
/// itself may be read freely).
#define FR_PT_GUARDED_BY(x) FR_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the listed capabilities held on entry (and does
/// not release them).
#define FR_REQUIRES(...) \
  FR_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define FR_REQUIRES_SHARED(...) \
  FR_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability (held on exit, not on entry). With
/// no argument on a member of a capability/scoped type, refers to
/// `this`.
#define FR_ACQUIRE(...) FR_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (held on entry, not on exit).
#define FR_RELEASE(...) FR_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Caller must NOT hold the listed capabilities (deadlock guard for
/// functions that acquire them internally).
#define FR_EXCLUDES(...) FR_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Declares a runtime assertion that the capability is held.
#define FR_ASSERT_CAPABILITY(x) FR_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the named capability.
#define FR_RETURN_CAPABILITY(x) FR_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use
/// must carry a comment saying why the aliasing/ownership pattern is
/// beyond the analysis.
#define FR_NO_THREAD_SAFETY_ANALYSIS \
  FR_THREAD_ANNOTATION(no_thread_safety_analysis)
