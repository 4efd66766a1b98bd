#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/events.h"

namespace qplex::obs {

namespace internal {

struct TraceNode {
  std::string name;
  std::int64_t count = 0;
  std::int64_t total_nanos = 0;
  std::vector<std::unique_ptr<TraceNode>> children;

  TraceNode* FindOrCreateChild(std::string_view child_name) {
    for (const auto& child : children) {
      if (child->name == child_name) {
        return child.get();
      }
    }
    children.push_back(std::make_unique<TraceNode>());
    children.back()->name = std::string(child_name);
    return children.back().get();
  }
};

namespace {

TraceNodeSnapshot SnapshotNode(const TraceNode& node) {
  TraceNodeSnapshot snapshot;
  snapshot.name = node.name;
  snapshot.count = node.count;
  snapshot.total_nanos = node.total_nanos;
  snapshot.children.reserve(node.children.size());
  for (const auto& child : node.children) {
    snapshot.children.push_back(SnapshotNode(*child));
  }
  return snapshot;
}

}  // namespace
}  // namespace internal

namespace {

/// The innermost live frame on this thread: the top of the span stack.
thread_local TraceSpan* tls_top = nullptr;

}  // namespace

std::int64_t TraceNodeSnapshot::SelfNanos() const {
  std::int64_t children_nanos = 0;
  for (const TraceNodeSnapshot& child : children) {
    children_nanos += child.total_nanos;
  }
  return std::max<std::int64_t>(0, total_nanos - children_nanos);
}

Tracer::Tracer() : root_(std::make_unique<internal::TraceNode>()) {
  root_->name = "root";
}

Tracer::~Tracer() = default;

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  root_->children.clear();
  root_->count = 0;
  root_->total_nanos = 0;
}

TraceNodeSnapshot Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return internal::SnapshotNode(*root_);
}

internal::TraceNode* Tracer::Open(internal::TraceNode* parent,
                                  std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return (parent != nullptr ? parent : root_.get())->FindOrCreateChild(name);
}

void Tracer::Close(internal::TraceNode* node, std::int64_t elapsed_nanos) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++node->count;
  node->total_nanos += elapsed_nanos;
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

std::uint64_t Fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string IdHex(std::uint64_t id) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i) {
    hex[static_cast<std::size_t>(i)] = kDigits[id & 0xf];
    id >>= 4;
  }
  return hex;
}

std::uint64_t DeriveTraceId(std::string_view label, std::int64_t job_id) {
  std::string key = "qplex-trace:";
  key.append(label);
  key.push_back('#');
  key.append(std::to_string(job_id));
  return Fnv1a64(key);
}

SpanContext RootSpan(std::uint64_t trace_id, std::string_view name) {
  SpanContext context;
  context.trace_id = trace_id;
  context.trace_hex = IdHex(trace_id);
  context.parent_id = 0;
  context.path = std::string(name);
  context.name = std::string(name);
  context.span_id = Fnv1a64(context.trace_hex + ":" + context.path);
  return context;
}

SpanContext ChildSpan(const SpanContext& parent, std::string_view name,
                      std::string_view qualifier) {
  SpanContext context;
  context.trace_id = parent.trace_id;
  context.trace_hex = parent.trace_hex;
  context.parent_id = parent.span_id;
  context.name = std::string(name);
  if (!qualifier.empty()) {
    context.name.push_back('@');
    context.name.append(qualifier);
  }
  context.path = parent.path + "/" + context.name;
  context.span_id = Fnv1a64(context.trace_hex + ":" + context.path);
  return context;
}

void EmitSpanEvent(const SpanContext& context, std::int64_t count,
                   double total_ms) {
  EmitEvent(EventLevel::kDebug, "trace", "span",
            {{"trace", JsonValue(context.trace_hex)},
             {"span", JsonValue(IdHex(context.span_id))},
             {"parent", JsonValue(IdHex(context.parent_id))},
             {"name", JsonValue(context.name)},
             {"path", JsonValue(context.path)},
             {"count", JsonValue(count)},
             {"dur_ms", JsonValue(total_ms)}});
}

SpanCollector::~SpanCollector() { Flush(); }

void SpanCollector::Record(const SpanContext& context, double elapsed_ms) {
  Node& node = nodes_[context.path];
  if (node.count == 0) {
    node.context = context;
  }
  node.count += 1;
  node.total_ms += elapsed_ms;
}

void SpanCollector::Flush() {
  for (const auto& [path, node] : nodes_) {
    EmitSpanEvent(node.context, node.count, node.total_ms);
  }
  nodes_.clear();
}

internal::TraceNode* TraceSpan::TreeParent(const TraceSpan* frame,
                                           const Tracer& tracer) {
  for (; frame != nullptr; frame = frame->outer_) {
    if (frame->tracer_ == &tracer) {
      return frame->node_;
    }
  }
  return nullptr;
}

TraceSpan::TraceSpan(std::string_view name, Tracer& tracer)
    : outer_(tls_top),
      tracer_(&tracer),
      node_(tracer.Open(TreeParent(outer_, tracer), name)),
      context_(EventsEnabled() ? ChildOfCurrent(name) : std::nullopt),
      request_(context_.has_value() ? &*context_ : Current()),
      collector_(CurrentCollector()) {
  tls_top = this;
}

TraceSpan::TraceSpan(std::optional<SpanContext> context,
                     SpanCollector* collector)
    : outer_(tls_top),
      context_(std::move(context)),
      request_(context_.has_value() ? &*context_ : Current()),
      collector_(collector != nullptr ? collector : CurrentCollector()) {
  tls_top = this;
}

TraceSpan::~TraceSpan() {
  const std::int64_t elapsed_nanos = watch_.ElapsedNanos();
  if (node_ != nullptr) {
    tracer_->Close(node_, elapsed_nanos);
  }
  if (context_.has_value() && collector_ != nullptr) {
    collector_->Record(*context_, elapsed_nanos * 1e-6);
  }
  // Frames are scoped objects, so this one is necessarily the top.
  tls_top = outer_;
}

const SpanContext* TraceSpan::Current() {
  return tls_top == nullptr ? nullptr : tls_top->request_;
}

SpanCollector* TraceSpan::CurrentCollector() {
  return tls_top == nullptr ? nullptr : tls_top->collector_;
}

std::optional<SpanContext> TraceSpan::ChildOfCurrent(
    std::string_view name, std::string_view qualifier) {
  const SpanContext* current = Current();
  if (current == nullptr) {
    return std::nullopt;
  }
  return ChildSpan(*current, name, qualifier);
}

void TraceSpan::RecordChild(std::string_view name, double elapsed_ms,
                            std::string_view qualifier) {
  const SpanContext* current = Current();
  SpanCollector* collector = CurrentCollector();
  if (current != nullptr && collector != nullptr) {
    collector->Record(ChildSpan(*current, name, qualifier), elapsed_ms);
  }
}

std::string_view CurrentTraceToken() {
  const SpanContext* current = TraceSpan::Current();
  return current == nullptr ? std::string_view{}
                            : std::string_view(current->trace_hex);
}

namespace {

void FormatNode(const TraceNodeSnapshot& node, int depth, std::string* out) {
  char line[160];
  std::snprintf(line, sizeof(line), "%*s%s  count=%lld  total=%.3fms",
                depth * 2, "", node.name.c_str(),
                static_cast<long long>(node.count),
                node.total_nanos * 1e-6);
  *out += line;
  if (!node.children.empty()) {
    std::snprintf(line, sizeof(line), "  self=%.3fms",
                  node.SelfNanos() * 1e-6);
    *out += line;
  }
  out->push_back('\n');
  for (const TraceNodeSnapshot& child : node.children) {
    FormatNode(child, depth + 1, out);
  }
}

}  // namespace

std::string FormatTraceTree(const TraceNodeSnapshot& root) {
  std::string out;
  for (const TraceNodeSnapshot& child : root.children) {
    FormatNode(child, 0, &out);
  }
  if (out.empty()) {
    out = "(no spans recorded)\n";
  }
  return out;
}

}  // namespace qplex::obs
