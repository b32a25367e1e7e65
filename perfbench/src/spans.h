// In-memory spans for the traced run.
//
// The benchmark's traced run calls each layer's public functions itself and
// wraps every call in a span: name, start, end, parent, job and pass. Spans
// stay in memory (a name is a string literal, so opening one allocates
// nothing) and are written out once, when the run ends. A layer's self time
// is its span's duration minus the time its child spans cover. A disabled
// tracer records nothing, so the same replay code also gives the untraced
// baseline.

#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  double start = 0.0;  // steady-clock seconds
  double end = 0.0;
  int parent = -1;  // index into the tracer's spans, -1 for a root
  int job = -1;
  int pass = -1;
  double seconds() const { return end - start; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled = true) : enabled_(enabled) {}

  // Opens a span under the innermost open one; returns its index, or -1 when
  // the tracer is disabled.
  int Begin(const char* name, int job, int pass);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span, index-aligned with spans().
  std::vector<double> SelfSeconds() const;

  // Index of the root span above every span, index-aligned with spans().
  std::vector<int> Roots() const;

  // Writes every span as one JSON array.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, int job, int pass)
      : tracer_(tracer), index_(tracer.Begin(name, job, pass)) {}
  ~SpanScope() { tracer_.End(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// Per-layer self time (seconds) of one root span's subtree, keyed by span
// name; the root's own self time is keyed by its name too.
using LayerTimes = std::map<std::string, double>;
std::vector<LayerTimes> SelfTimeByRoot(const Tracer& tracer, std::vector<int>* root_indices);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
