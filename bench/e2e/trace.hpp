#pragma once
// In-memory spans for the traced benchmark run.
//
// A span records a name, start, end, its parent span and a request id. The
// benchmark opens one around every public call it makes into a layer; spans
// inside the program itself are not recorded here. Each thread appends to
// its own buffer without locking, the buffers live until the process ends,
// and everything is read back only after the threads that wrote it have
// been joined. With tracing off every call below is a branch on one flag.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the first call in this process (steady clock).
std::int64_t now_ns();

namespace trace {

void enable(bool on);
bool enabled();

/// Records a finished span. `name` must be a string literal (it is stored
/// by pointer). The parent is the innermost Span open on the calling thread.
void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
            std::uint64_t request = 0);

/// Durations in microseconds of every recorded span called `name`.
Samples durations_us(const char* name);
std::size_t count(const char* name);

/// Writes the spans as Chrome trace-event JSON (chrome://tracing or
/// ui.perfetto.dev open it), at most `max_events` of them, earliest first.
/// Returns false when the file cannot be written.
bool write_chrome(const std::string& path, std::size_t max_events);

}  // namespace trace

/// RAII span around one call. Nested Spans on a thread become children.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t request_;
  std::int64_t start_ = 0;
  bool active_ = false;
};

}  // namespace e2e
