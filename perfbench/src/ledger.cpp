#include "ledger.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace perfbench {
namespace {

using grd::obs::SpanRecord;

enum class Kind { kBench, kClient, kHandler, kQueue, kExec, kSandbox, kOther };

bool StartsWith(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

Kind KindOf(const SpanRecord& span) {
  if (StartsWith(span.name, "bench.")) return Kind::kBench;
  if (StartsWith(span.name, "client.")) return Kind::kClient;
  if (StartsWith(span.name, "queue.")) return Kind::kQueue;
  if (StartsWith(span.name, "exec.")) return Kind::kExec;
  if (StartsWith(span.name, "sandbox.") || StartsWith(span.name, "module."))
    return Kind::kSandbox;
  if (span.name[0] >= 'A' && span.name[0] <= 'Z') return Kind::kHandler;
  return Kind::kOther;
}

const char* LayerOf(Kind kind) {
  switch (kind) {
    case Kind::kQueue: return "queue_wait";
    case Kind::kExec: return "exec";
    case Kind::kSandbox: return "sandbox";
    default: return "other";
  }
}

double DurUs(const SpanRecord& s) {
  return static_cast<double>(s.end_ns - s.begin_ns) / 1e3;
}

using Interval = std::pair<std::uint64_t, std::uint64_t>;

// Length (µs) of the union of `parts` clipped to [begin, end).
double CoveredUs(std::vector<Interval> parts, std::uint64_t begin,
                 std::uint64_t end) {
  for (auto& p : parts) {
    p.first = std::clamp(p.first, begin, end);
    p.second = std::clamp(p.second, begin, end);
  }
  std::sort(parts.begin(), parts.end());
  std::uint64_t covered = 0;
  std::uint64_t cursor = begin;
  for (const auto& [lo, hi] : parts) {
    const std::uint64_t from = std::max(lo, cursor);
    if (hi > from) {
      covered += hi - from;
      cursor = hi;
    }
  }
  return static_cast<double>(covered) / 1e3;
}

std::uint64_t ThreadKey(const SpanRecord& s) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(s.pid)) << 32) |
         s.tid;
}

}  // namespace

Ledger BuildLedger(const std::vector<SpanRecord>& records) {
  Ledger out;
  // Only requests issued inside a bench span count: set-up, final checks and
  // anything else off the timed path carry other trace ids.
  std::unordered_set<std::uint64_t> timed_traces;
  for (const SpanRecord& r : records)
    if (r.phase == 'X' && KindOf(r) == Kind::kBench)
      timed_traces.insert(r.trace_id);
  std::vector<const SpanRecord*> spans;
  for (const SpanRecord& r : records)
    if (r.phase == 'X' && r.end_ns >= r.begin_ns &&
        timed_traces.count(r.trace_id) != 0)
      spans.push_back(&r);
  out.spans = spans.size();

  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>>
      clients_by_trace;
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>>
      clients_by_thread;
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>>
      handlers_by_thread;
  for (const SpanRecord* s : spans) {
    const Kind kind = KindOf(*s);
    if (s->parent_span_id != 0) children[s->parent_span_id].push_back(s);
    if (kind == Kind::kClient) {
      clients_by_trace[s->trace_id].push_back(s);
      clients_by_thread[ThreadKey(*s)].push_back(s);
    }
    if (kind == Kind::kHandler)
      handlers_by_thread[ThreadKey(*s)].push_back(s);
  }

  // Same-kind spans nested on one thread: a call that flushes grdLib's
  // batch buffer first wraps the client.Batch round trip, and batched
  // sub-op handlers (parented to the sub-request's never-emitted span) run
  // inside the Batch handler.
  std::unordered_map<const SpanRecord*, std::vector<const SpanRecord*>>
      nested;
  for (auto* by_thread : {&clients_by_thread, &handlers_by_thread})
    for (auto& [key, list] : *by_thread) {
      std::sort(list.begin(), list.end(),
                [](const SpanRecord* a, const SpanRecord* b) {
                  return a->begin_ns != b->begin_ns ? a->begin_ns < b->begin_ns
                                                    : a->end_ns > b->end_ns;
                });
      std::vector<const SpanRecord*> open;
      for (const SpanRecord* h : list) {
        while (!open.empty() && open.back()->end_ns <= h->begin_ns)
          open.pop_back();
        if (!open.empty() && h->end_ns <= open.back()->end_ns)
          nested[open.back()].push_back(h);
        open.push_back(h);
      }
    }
  const auto nested_parts = [&nested](const SpanRecord* s) {
    std::vector<Interval> parts;
    auto found = nested.find(s);
    if (found != nested.end())
      for (const SpanRecord* n : found->second)
        parts.emplace_back(n->begin_ns, n->end_ns);
    return parts;
  };

  for (const SpanRecord* s : spans) {
    switch (KindOf(*s)) {
      case Kind::kBench: {
        std::vector<Interval> parts;
        auto found = clients_by_trace.find(s->trace_id);
        if (found != clients_by_trace.end())
          for (const SpanRecord* c : found->second)
            if (c->tid == s->tid && c->pid == s->pid)
              parts.emplace_back(c->begin_ns, c->end_ns);
        const double self =
            DurUs(*s) - CoveredUs(std::move(parts), s->begin_ns, s->end_ns);
        out.client_self_us.push_back(self);
        out.layer_total_us["client"] += self;
        out.bench_total_us += DurUs(*s);
        break;
      }
      case Kind::kClient: {
        auto kids = children.find(s->span_id);
        if (kids == children.end()) break;
        for (const SpanRecord* h : kids->second) {
          if (KindOf(*h) != Kind::kHandler) continue;
          std::vector<Interval> parts = nested_parts(s);
          parts.emplace_back(h->begin_ns, h->end_ns);
          const double transit =
              DurUs(*s) - CoveredUs(std::move(parts), s->begin_ns, s->end_ns);
          const std::string op = s->name + std::strlen("client.");
          out.transit_us.push_back(transit);
          out.transit_by_op[op].push_back(transit);
          if (op == "LaunchKernel" || op == "Batch")
            out.transit_launch_us.push_back(transit);
          out.layer_total_us["transit"] += transit;
          break;
        }
        break;
      }
      case Kind::kHandler: {
        std::vector<Interval> parts = nested_parts(s);
        auto kids = children.find(s->span_id);
        if (kids != children.end())
          for (const SpanRecord* c : kids->second) {
            const Kind kind = KindOf(*c);
            if (kind == Kind::kClient || kind == Kind::kBench) continue;
            parts.emplace_back(c->begin_ns, c->end_ns);
            if (kind != Kind::kHandler)
              out.layer_total_us[LayerOf(kind)] += CoveredUs(
                  {{c->begin_ns, c->end_ns}}, s->begin_ns, s->end_ns);
          }
        const double self =
            DurUs(*s) - CoveredUs(std::move(parts), s->begin_ns, s->end_ns);
        out.dispatch_self_us.push_back(self);
        out.layer_total_us["dispatch"] += self;
        break;
      }
      case Kind::kQueue:
        out.queue_wait_us.push_back(DurUs(*s));
        break;
      case Kind::kExec:
        out.exec_us.push_back(DurUs(*s));
        break;
      default:
        break;
    }
  }
  return out;
}

}  // namespace perfbench
