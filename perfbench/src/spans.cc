#include "perfbench/src/spans.h"

#include <cstdio>
#include <fstream>

#include "perfbench/src/host.h"

namespace perfbench {

int Tracer::Begin(const char* name, int job, int pass) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.job = job;
  span.pass = pass;
  span.start = WallSeconds();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  if (index < 0) {
    return;
  }
  spans_[static_cast<std::size_t>(index)].end = WallSeconds();
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

std::vector<double> Tracer::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].seconds();
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -= spans_[i].seconds();
    }
  }
  return self;
}

std::vector<int> Tracer::Roots() const {
  std::vector<int> roots(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    // Parents precede their children, so the parent's root is known.
    const int parent = spans_[i].parent;
    roots[i] = parent < 0 ? static_cast<int>(i) : roots[static_cast<std::size_t>(parent)];
  }
  return roots;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  out << "[";
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d,"
                  "\"job\":%d,\"pass\":%d}",
                  i == 0 ? "" : ",", span.name, (span.start - origin) * 1e6,
                  (span.end - origin) * 1e6, span.parent, span.job, span.pass);
    out << line;
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

std::vector<LayerTimes> SelfTimeByRoot(const Tracer& tracer, std::vector<int>* root_indices) {
  const std::vector<double> self = tracer.SelfSeconds();
  const std::vector<int> roots = tracer.Roots();
  std::vector<LayerTimes> out;
  std::vector<int> slot(tracer.spans().size(), -1);
  root_indices->clear();
  for (std::size_t i = 0; i < roots.size(); ++i) {
    const auto root = static_cast<std::size_t>(roots[i]);
    if (slot[root] < 0) {
      slot[root] = static_cast<int>(out.size());
      out.emplace_back();
      root_indices->push_back(static_cast<int>(root));
    }
    out[static_cast<std::size_t>(slot[root])][tracer.spans()[i].name] += self[i];
  }
  return out;
}

}  // namespace perfbench
