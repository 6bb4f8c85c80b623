// Spans the traced run records around each public engine call the
// benchmark makes. Kept in memory per thread and written once, at the end,
// as Chrome trace-event JSON (chrome://tracing, Perfetto).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  ///< A string literal: Begin, Update, Commit, Recover...
  uint64_t txn;      ///< Engine txn id; 0 for spans outside a transaction.
  int64_t start_ns;
  int64_t end_ns;
  uint32_t tid;      ///< Client index (0 for the main thread).
};

/// One thread's spans. The untraced run records none and pays one branch
/// per call.
class SpanLog {
 public:
  explicit SpanLog(uint32_t tid) : tid_(tid) {}
  void Add(const char* name, uint64_t txn, int64_t start_ns, int64_t end_ns) {
    spans_.push_back(Span{name, txn, start_ns, end_ns, tid_});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t tid_;
  std::vector<Span> spans_;
};

/// Writes every span not inside a transaction, and the spans of at most
/// `max_txns` transactions picked at an even stride, so the file stays a
/// few megabytes on the largest workload. Returns false on I/O failure.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<const SpanLog*>& logs,
                             uint64_t total_txns, uint64_t max_txns,
                             int64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t stride =
      total_txns <= max_txns ? 1 : (total_txns + max_txns - 1) / max_txns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.txn != 0 && s.txn % stride != 0) continue;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"txn\":%llu}}",
                   first ? "" : ",\n", s.name, s.tid,
                   (s.start_ns - origin_ns) / 1e3,
                   (s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.txn));
      first = false;
    }
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2e
