#include "spans.h"

#include <cstdlib>
#include <iostream>

namespace perfbench {

uint32_t Tracer::Name(const std::string& name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<uint32_t>(names_.size());
  names_.push_back(name);
  name_ids_.emplace(name, id);
  aggregates_.emplace_back();
  return id;
}

void Tracer::BeginSpan(uint32_t name, uint64_t request, uint32_t shard) {
  Span s;
  s.name = name;
  s.request = request;
  s.shard = shard;
  // The parent is the innermost open span; an open aggregate between them
  // is named by the aggregate roll-up instead.
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (!it->aggregate) {
      s.parent = it->index;
      break;
    }
  }
  const auto index = static_cast<uint32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back({false, index, NowNs(), 0});
  spans_.back().start_ns = stack_.back().start_ns;
}

void Tracer::BeginAggregate(uint32_t name) {
  stack_.push_back({true, name, NowNs(), 0});
}

void Tracer::End() {
  if (stack_.empty()) {
    std::cerr << "perfbench: Tracer::End without an open boundary\n";
    std::abort();
  }
  const int64_t end = NowNs();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const int64_t duration = end - frame.start_ns;
  if (frame.aggregate) {
    Summary& a = aggregates_[frame.index];
    ++a.count;
    a.total_ns += duration;
    a.child_ns += frame.child_ns;
  } else {
    Span& s = spans_[frame.index];
    s.end_ns = end;
    s.child_ns = frame.child_ns;
  }
  if (stack_.empty()) {
    root_ns_ += duration;
  } else {
    stack_.back().child_ns += duration;
  }
}

std::map<std::string, Tracer::Summary> Tracer::Summarize() const {
  std::map<std::string, Summary> out;
  for (const Span& s : spans_) {
    if (s.end_ns == 0) continue;  // Still open.
    Summary& sum = out[names_[s.name]];
    ++sum.count;
    sum.total_ns += s.end_ns - s.start_ns;
    sum.child_ns += s.child_ns;
  }
  for (size_t id = 0; id < aggregates_.size(); ++id) {
    const Summary& a = aggregates_[id];
    if (a.count == 0) continue;
    Summary& sum = out[names_[id]];
    sum.count += a.count;
    sum.total_ns += a.total_ns;
    sum.child_ns += a.child_ns;
  }
  return out;
}

void Tracer::Write(std::ostream& out) const {
  out << "kind\tname\tindex\tparent\trequest\tshard\tstart_ns\tend_ns\t"
         "self_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "span\t" << names_[s.name] << '\t' << i << '\t';
    if (s.parent == kNoParent) {
      out << '-';
    } else {
      out << s.parent;
    }
    out << '\t';
    if (s.request == kNoRequest) {
      out << '-';
    } else {
      out << s.request;
    }
    out << '\t';
    if (s.shard == kNoShard) {
      out << '-';
    } else {
      out << s.shard;
    }
    out << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
        << (s.end_ns - s.start_ns - s.child_ns) << '\n';
  }
  out << "# aggregates: kind name count total_ns self_ns\n";
  for (size_t id = 0; id < aggregates_.size(); ++id) {
    const Summary& a = aggregates_[id];
    if (a.count == 0) continue;
    out << "aggregate\t" << names_[id] << '\t' << a.count << '\t'
        << a.total_ns << '\t' << a.self_ns() << '\n';
  }
}

}  // namespace perfbench
