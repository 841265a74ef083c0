// Wall-clock assertions in the suites.  A timing case registers
// RUN_SERIAL (tests/CMakeLists.txt, SERIAL filter) and checks its bound
// only in uninstrumented builds: under a sanitizer the clock measures
// the instrumentation, not the code.
#pragma once

#if defined(__SANITIZE_THREAD__)
#define REMOS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define REMOS_TSAN 1
#endif
#endif

#if defined(REMOS_TSAN) || defined(__SANITIZE_ADDRESS__)
#define REMOS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define REMOS_SANITIZED 1
#endif
#endif

namespace remos::test {

#ifdef REMOS_SANITIZED
inline constexpr bool kTimingChecked = false;
#else
inline constexpr bool kTimingChecked = true;
#endif

}  // namespace remos::test
