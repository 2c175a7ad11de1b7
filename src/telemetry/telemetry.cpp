#include "rrb/telemetry/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <utility>

#include "rrb/common/json.hpp"

namespace rrb::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

std::atomic<std::int32_t> g_pid{0};

/// Per-thread event buffer. Owned jointly by the thread (thread_local
/// shared_ptr) and the registry, so events recorded by a thread survive its
/// exit until the next drain(). The mutex only contends with drain().
struct Buffer {
  std::mutex mutex;
  std::vector<Event> events;
  std::map<std::string, std::int64_t, std::less<>> counters;
  std::int32_t tid = 0;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<Buffer>> buffers;
  std::int32_t next_tid = 0;
};

Registry& registry() {
  // Deliberately leaked: thread_local destructors may run after function-local
  // statics are destroyed, and a Buffer must be able to outlive its thread.
  static Registry* r = new Registry;
  return *r;
}

Buffer& local_buffer() {
  thread_local std::shared_ptr<Buffer> buffer = [] {
    auto b = std::make_shared<Buffer>();
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    b->tid = r.next_tid++;
    r.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

void push_event(Event event) {
  Buffer& buffer = local_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  if (event.tid < 0) event.tid = buffer.tid;
  buffer.events.push_back(std::move(event));
}

/// One event as a self-contained JSON object (shared by the jsonl shuttle
/// format and the Chrome trace exporter).
std::string event_json(const Event& event) {
  std::string out = "{\"ph\":\"";
  out += event.phase;
  out += "\",\"cat\":\"";
  out += json::escape(event.category);
  out += "\",\"name\":\"";
  out += json::escape(event.name);
  out += "\",\"ts\":" + std::to_string(event.ts_us);
  if (event.phase == 'X') out += ",\"dur\":" + std::to_string(event.dur_us);
  out += ",\"pid\":" + std::to_string(event.pid);
  out += ",\"tid\":" + std::to_string(event.tid);
  if (event.phase == 'i') out += ",\"s\":\"p\"";
  if (!event.args_json.empty()) out += ",\"args\":" + event.args_json;
  out += '}';
  return out;
}

/// One line of the events shuttle: the layout event_json writes, read
/// through the common JSON scanner. Strings under "ph"/"cat"/"name"/"s", a
/// nested object under "args"; every other field must be an int64_t, and
/// "pid"/"tid" must fit int32_t — a value out of range rejects the line
/// instead of wrapping.
bool parse_event_line(std::string_view line, Event& event) {
  std::optional<std::vector<json::Field>> fields =
      json::scan_flat_object(line);
  if (!fields || fields->empty()) return false;
  event = Event{};
  for (json::Field& field : *fields) {
    const std::string& key = field.key;
    if (key == "args") {
      if (field.kind != json::Kind::kObject) return false;
      event.args_json = std::move(field.token);
    } else if (key == "ph" || key == "cat" || key == "name" || key == "s") {
      if (field.kind != json::Kind::kString) return false;
      if (key == "ph") event.phase = field.text.empty() ? 'X' : field.text[0];
      else if (key == "cat")
        event.category = std::move(field.text);
      else if (key == "name")
        event.name = std::move(field.text);
    } else {
      const std::optional<std::int64_t> value = field.to_int64();
      if (!value) return false;
      if (key == "ts") event.ts_us = *value;
      else if (key == "dur")
        event.dur_us = *value;
      else if (key == "pid" || key == "tid") {
        if (*value < std::numeric_limits<std::int32_t>::min() ||
            *value > std::numeric_limits<std::int32_t>::max())
          return false;
        (key == "pid" ? event.pid : event.tid) =
            static_cast<std::int32_t>(*value);
      }
    }
  }
  return true;
}

std::uint64_t status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  if (!in) return 0;
  std::string line;
  const std::size_t field_len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, field_len, field) != 0) continue;
    std::uint64_t kb = 0;
    for (std::size_t i = field_len; i < line.size(); ++i) {
      const char ch = line[i];
      if (ch >= '0' && ch <= '9') kb = kb * 10 + static_cast<std::uint64_t>(ch - '0');
      else if (kb != 0)
        break;
    }
    return kb;
  }
  return 0;
}

}  // namespace

namespace detail {

void emit_complete(const char* category, std::string name, std::int64_t ts_us,
                   std::int64_t dur_us, std::string args_json) {
  Event event;
  event.phase = 'X';
  event.name = std::move(name);
  event.category = category == nullptr ? "" : category;
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.pid = g_pid.load(std::memory_order_relaxed);
  event.tid = -1;  // filled from the buffer
  event.args_json = std::move(args_json);
  push_event(std::move(event));
}

void emit_instant(const char* category, std::string name,
                  std::string args_json) {
  Event event;
  event.phase = 'i';
  event.name = std::move(name);
  event.category = category == nullptr ? "" : category;
  event.ts_us = now_us();
  event.pid = g_pid.load(std::memory_order_relaxed);
  event.tid = -1;
  event.args_json = std::move(args_json);
  push_event(std::move(event));
}

void add_count(std::string_view name, std::int64_t delta) {
  Buffer& buffer = local_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  const auto it = buffer.counters.find(name);
  if (it == buffer.counters.end()) buffer.counters.emplace(name, delta);
  else
    it->second += delta;
}

}  // namespace detail

std::int64_t now_us() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::microseconds>(now).count();
}

void enable(bool on) {
  if constexpr (kCompiledIn)
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_process_id(std::int32_t pid) {
  g_pid.store(pid, std::memory_order_relaxed);
}

void set_process_label(std::string label) {
  if (!enabled()) return;
  Event event;
  event.phase = 'M';
  event.name = "process_name";
  event.category = "__metadata";
  event.ts_us = now_us();
  event.pid = g_pid.load(std::memory_order_relaxed);
  event.tid = -1;
  event.args_json = "{\"name\":\"" + json::escape(label) + "\"}";
  push_event(std::move(event));
}

std::uint64_t peak_rss_bytes() { return status_kb("VmHWM:") * 1024; }
std::uint64_t current_rss_bytes() { return status_kb("VmRSS:") * 1024; }

void Span::begin(const char* category, std::string_view name) {
  active_ = true;
  category_ = category;
  name_.assign(name);
  begin_us_ = now_us();
}

void Span::end() {
  active_ = false;
  // Record even if recording was switched off mid-span: a started span is
  // cheaper to keep than to make the hot path re-check the flag coherently.
  detail::emit_complete(category_, std::move(name_), begin_us_,
                        now_us() - begin_us_, std::move(args_));
}

std::vector<Event> drain() {
  std::vector<Event> out;
  std::map<std::string, std::int64_t> totals;
  std::vector<std::shared_ptr<Buffer>> buffers;
  {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    buffers = r.buffers;
  }
  for (const std::shared_ptr<Buffer>& buffer : buffers) {
    const std::lock_guard<std::mutex> lock(buffer->mutex);
    for (Event& event : buffer->events) {
      if (event.tid < 0) event.tid = buffer->tid;
      out.push_back(std::move(event));
    }
    buffer->events.clear();
    for (const auto& [name, total] : buffer->counters) totals[name] += total;
    buffer->counters.clear();
  }
  const std::int64_t ts = now_us();
  const std::int32_t pid = g_pid.load(std::memory_order_relaxed);
  for (const auto& [name, total] : totals) {
    Event event;
    event.phase = 'C';
    event.name = name;
    event.category = "counter";
    event.ts_us = ts;
    event.pid = pid;
    event.tid = 0;
    event.args_json = "{\"value\":" + std::to_string(total) + "}";
    out.push_back(std::move(event));
  }
  return out;
}

void write_chrome_trace(std::ostream& os, const std::vector<Event>& events) {
  std::int64_t base = 0;
  bool have_base = false;
  for (const Event& event : events) {
    if (event.phase == 'M') continue;
    if (!have_base || event.ts_us < base) {
      base = event.ts_us;
      have_base = true;
    }
  }

  std::vector<const Event*> ordered;
  ordered.reserve(events.size());
  for (const Event& event : events) ordered.push_back(&event);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Event* a, const Event* b) {
                     // Metadata first so viewers name processes before rows
                     // appear; then timestamp order.
                     if ((a->phase == 'M') != (b->phase == 'M'))
                       return a->phase == 'M';
                     return a->ts_us < b->ts_us;
                   });

  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Event* event : ordered) {
    Event rebased = *event;
    rebased.ts_us = std::max<std::int64_t>(0, rebased.ts_us - base);
    os << (first ? "\n" : ",\n") << event_json(rebased);
    first = false;
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::int64_t write_chrome_trace_file(const std::string& path) {
  const std::vector<Event> events = drain();
  std::ofstream out(path);
  if (!out) return -1;
  write_chrome_trace(out, events);
  return static_cast<std::int64_t>(events.size());
}

std::int64_t append_events_jsonl(const std::string& path) {
  const std::vector<Event> events = drain();
  std::ofstream out(path, std::ios::app);
  if (!out) return -1;
  for (const Event& event : events) out << event_json(event) << '\n';
  return static_cast<std::int64_t>(events.size());
}

std::vector<Event> load_events_jsonl(const std::string& path) {
  std::vector<Event> out;
  std::ifstream in(path);
  if (!in) return out;
  std::string line;
  while (std::getline(in, line)) {
    Event event;
    if (parse_event_line(line, event)) out.push_back(std::move(event));
  }
  return out;
}

}  // namespace rrb::telemetry
