#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

namespace e2e {

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

namespace {

struct Record {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct Buffer {
  std::uint64_t tid = 0;
  std::uint64_t next_local = 0;
  std::vector<std::uint64_t> open;  ///< ids of the Spans open on this thread
  std::vector<Record> records;

  std::uint64_t next_id() { return (tid << 40) | ++next_local; }
  std::uint64_t parent() const { return open.empty() ? 0 : open.back(); }
};

std::atomic<bool> g_enabled{false};
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by the mutex

Buffer& local_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<Buffer>());
    buffer = g_buffers.back().get();
    buffer->tid = g_buffers.size();
    buffer->records.reserve(1 << 14);
  }
  return *buffer;
}

template <typename F>
void for_each_record(F&& f) {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buffer : g_buffers) {
    for (const Record& r : buffer->records) f(r, buffer->tid);
  }
}

}  // namespace

namespace trace {

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
            std::uint64_t request) {
  if (!enabled()) return;
  Buffer& b = local_buffer();
  b.records.push_back(
      {name, b.next_id(), b.parent(), request, start_ns, end_ns});
}

Samples durations_us(const char* name) {
  Samples out;
  for_each_record([&](const Record& r, std::uint64_t) {
    if (std::strcmp(r.name, name) == 0) {
      out.add(static_cast<double>(r.end_ns - r.start_ns) / 1e3);
    }
  });
  return out;
}

std::size_t count(const char* name) {
  std::size_t n = 0;
  for_each_record([&](const Record& r, std::uint64_t) {
    if (std::strcmp(r.name, name) == 0) ++n;
  });
  return n;
}

bool write_chrome(const std::string& path, std::size_t max_events) {
  struct Event {
    Record record;
    std::uint64_t tid;
  };
  std::vector<Event> events;
  for_each_record(
      [&](const Record& r, std::uint64_t tid) { events.push_back({r, tid}); });
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.record.start_ns < b.record.start_ns;
  });
  const std::size_t written = std::min(max_events, events.size());

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"otherData\": "
                  "{\"spans\": %zu, \"written\": %zu}, \"traceEvents\": [\n",
               events.size(), written);
  for (std::size_t i = 0; i < written; ++i) {
    const Record& r = events[i].record;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu}}\n",
                 i == 0 ? "" : ",", r.name,
                 static_cast<unsigned long long>(events[i].tid),
                 static_cast<double>(r.start_ns) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace trace

Span::Span(const char* name, std::uint64_t request)
    : name_(name), request_(request) {
  if (!trace::enabled()) return;
  Buffer& b = local_buffer();
  b.open.push_back(b.next_id());
  active_ = true;
  start_ = now_ns();
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  Buffer& b = local_buffer();
  const std::uint64_t id = b.open.back();
  b.open.pop_back();
  b.records.push_back({name_, id, b.parent(), request_, start_, end});
}

}  // namespace e2e
