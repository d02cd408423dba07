#ifndef VQLIB_COMMON_LOGGING_H_
#define VQLIB_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace vqi {

/// Severity levels for the library logger.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

namespace internal {

/// Accumulates one log line and flushes it to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Like LogMessage but aborts the process after flushing.
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line);
  [[noreturn]] ~FatalLogMessage();

  FatalLogMessage(const FatalLogMessage&) = delete;
  FatalLogMessage& operator=(const FatalLogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

/// Swallows a stream expression inside the ternary of VQI_CHECK; operator&
/// binds looser than << but tighter than ?:, the classic glog trick.
struct Voidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace vqi

#define VQI_LOG(level)                                                   \
  ::vqi::internal::LogMessage(::vqi::LogLevel::k##level, __FILE__, \
                              __LINE__)                                  \
      .stream()

/// Aborts with a message when `cond` is false. Used for API contract
/// violations (programming errors), not for recoverable runtime errors.
#define VQI_CHECK(cond)                                                   \
  (cond) ? (void)0                                                        \
         : ::vqi::internal::Voidify() &                                   \
               ::vqi::internal::FatalLogMessage(__FILE__, __LINE__)       \
                   .stream()                                              \
                   << "Check failed: " #cond " "

#define VQI_CHECK_LT(a, b) VQI_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define VQI_CHECK_LE(a, b) VQI_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define VQI_CHECK_GT(a, b) VQI_CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ") "
#define VQI_CHECK_GE(a, b) VQI_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "
#define VQI_CHECK_EQ(a, b) VQI_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define VQI_CHECK_NE(a, b) VQI_CHECK((a) != (b)) << "(" << (a) << " vs " << (b) << ") "

#endif  // VQLIB_COMMON_LOGGING_H_
