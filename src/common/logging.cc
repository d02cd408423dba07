#include "common/logging.h"

#include <cstdio>
#include <cstdlib>

#include "common/mutex.h"

namespace vqi {

namespace {
// Lines below this severity are dropped.
constexpr LogLevel kMinLogLevel = LogLevel::kInfo;

// Serializes whole-line emission so concurrent service workers never
// interleave fragments of two log lines on stderr.
Mutex& EmitMutex() {
  static Mutex mutex;
  return mutex;
}

void EmitLine(const std::string& line) {
  MutexLock lock(&EmitMutex());
  std::fprintf(stderr, "%s\n", line.c_str());
  std::fflush(stderr);
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}
}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelName(level) << " " << Basename(file) << ":" << line
          << "] ";
}

LogMessage::~LogMessage() {
  if (level_ >= kMinLogLevel) {
    EmitLine(stream_.str());
  }
}

FatalLogMessage::FatalLogMessage(const char* file, int line) {
  stream_ << "[F " << Basename(file) << ":" << line << "] ";
}

FatalLogMessage::~FatalLogMessage() {
  EmitLine(stream_.str());
  std::abort();
}

}  // namespace internal
}  // namespace vqi
