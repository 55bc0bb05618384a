#include "obs/sinks.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace dmx::obs {

namespace {

/// Right-align `s` in a field of `width` (matches std::setw).
void pad_left(std::string& out, std::string_view s, std::size_t width) {
  if (s.size() < width) out.append(width - s.size(), ' ');
  out.append(s);
}

/// Left-align `s` in a field of `width`.
void pad_right(std::string& out, std::string_view s, std::size_t width) {
  out.append(s);
  if (s.size() < width) out.append(width - s.size(), ' ');
}

std::string fallback_detail(const Event& e) {
  std::string d(EventKindRegistry::instance().name(e.kind));
  if (e.req != 0) {
    d += " req=";
    d += std::to_string(e.req);
  }
  if (e.arg != 0) {
    d += " arg=";
    d += std::to_string(e.arg);
  }
  if (e.value != 0.0) {
    d += " val=";
    json_append_number(d, e.value);
  }
  return d;
}

}  // namespace

// ---------------------------------------------------------------- TextSink

void TextSink::on_event(const Event& e, const DetailRef& detail) {
  std::string& out = buf_;
  out.push_back('[');
  pad_left(out, e.time.to_string(), 10);
  out += "] ";
  if (e.node >= 0) {
    out += "node ";
    pad_left(out, std::to_string(e.node), 2);
    out.push_back(' ');
  } else {
    out += "system  ";
  }
  pad_right(out, EventKindRegistry::instance().category(e.kind), 10);
  out.push_back(' ');
  out += detail.has_value() ? detail() : fallback_detail(e);
  out.push_back('\n');
  if (buf_.size() > cap_) flush_buffer();
}

void TextSink::flush_buffer() {
  if (!buf_.empty()) {
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }
}

// -------------------------------------------------------------- MemorySink

std::vector<MemorySink::Entry> MemorySink::by_kind(EventKind k) const {
  std::vector<Entry> out;
  for (const auto& e : entries_) {
    if (e.event.kind == k) out.push_back(e);
  }
  return out;
}

std::size_t MemorySink::count_kind(EventKind k) const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [k](const Entry& e) { return e.event.kind == k; }));
}

// --------------------------------------------------------------- JsonlSink

void JsonlSink::on_event(const Event& e, const DetailRef& /*detail*/) {
  auto& reg = EventKindRegistry::instance();
  std::string& out = buf_;
  out += "{\"t\":";
  json_append_number(out, e.time.to_units());
  out += ",\"ev\":";
  json_append_string(out, reg.name(e.kind));
  out += ",\"cat\":";
  json_append_string(out, reg.category(e.kind));
  out += ",\"node\":";
  json_append_number(out, static_cast<std::int64_t>(e.node));
  out += ",\"req\":";
  json_append_number(out, e.req);
  out += ",\"arg\":";
  json_append_number(out, e.arg);
  out += ",\"val\":";
  json_append_number(out, e.value);
  out += "}\n";
  if (buf_.size() > cap_) flush_buffer();
}

void JsonlSink::on_span(const Span& s) {
  std::string& out = buf_;
  out += "{\"span\":{\"req\":";
  json_append_number(out, s.request_id);
  out += ",\"node\":";
  json_append_number(out, static_cast<std::int64_t>(s.node));
  out += ",\"submitted\":";
  json_append_number(out, s.submitted.to_units());
  out += ",\"issued\":";
  json_append_number(out, s.issued.to_units());
  out += ",\"queued\":";
  if (s.has_queued) {
    json_append_number(out, s.queued.to_units());
  } else {
    out += "null";
  }
  out += ",\"granted\":";
  if (s.granted_seen) {
    json_append_number(out, s.granted.to_units());
  } else {
    out += "null";
  }
  out += ",\"released\":";
  if (s.complete) {
    json_append_number(out, s.released.to_units());
  } else {
    out += "null";
  }
  if (s.complete) {
    out += ",\"queue\":";
    json_append_number(out, s.queue_wait());
    out += ",\"transit\":";
    json_append_number(out, s.transit());
    out += ",\"token_wait\":";
    json_append_number(out, s.token_wait());
    out += ",\"acquire\":";
    json_append_number(out, s.acquire());
    out += ",\"cs\":";
    json_append_number(out, s.cs_time());
  }
  out += ",\"forwards\":";
  json_append_number(out, s.forwards);
  out += ",\"aborted\":";
  out += s.aborted ? "true" : "false";
  out += "}}\n";
  if (buf_.size() > cap_) flush_buffer();
}

void JsonlSink::flush_buffer() {
  if (!buf_.empty()) {
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }
}

// --------------------------------------------------------- ChromeTraceSink

ChromeTraceSink::ChromeTraceSink(std::ostream& os) : os_(os) {
  buf_ += "{\"traceEvents\":[\n";
}

ChromeTraceSink::~ChromeTraceSink() {
  buf_ += "\n]}\n";
  flush_buffer();
}

void ChromeTraceSink::entry() {
  if (!first_) buf_ += ",\n";
  first_ = false;
}

void ChromeTraceSink::on_event(const Event& e, const DetailRef& /*detail*/) {
  auto& reg = EventKindRegistry::instance();
  entry();
  std::string& out = buf_;
  out += "{\"name\":";
  json_append_string(out, reg.name(e.kind));
  out += ",\"cat\":";
  json_append_string(out, reg.category(e.kind));
  out += ",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
  json_append_number(out, e.time.raw());  // 1 tick == 1 microsecond
  out += ",\"pid\":0,\"tid\":";
  json_append_number(out, static_cast<std::int64_t>(e.node));
  out += ",\"args\":{\"req\":";
  json_append_number(out, e.req);
  out += ",\"arg\":";
  json_append_number(out, e.arg);
  out += ",\"val\":";
  json_append_number(out, e.value);
  out += "}}";
  if (buf_.size() > (1u << 16)) flush_buffer();
}

void ChromeTraceSink::emit_slice(std::string_view name, std::int32_t node,
                                 sim::SimTime start, double dur_units,
                                 std::uint64_t req) {
  entry();
  std::string& out = buf_;
  out += "{\"name\":";
  json_append_string(out, name);
  out += ",\"cat\":\"span\",\"ph\":\"X\",\"ts\":";
  json_append_number(out, start.raw());
  out += ",\"dur\":";
  json_append_number(out, sim::SimTime::units(dur_units).raw());
  out += ",\"pid\":0,\"tid\":";
  json_append_number(out, static_cast<std::int64_t>(node));
  out += ",\"args\":{\"req\":";
  json_append_number(out, req);
  out += "}}";
}

void ChromeTraceSink::on_span(const Span& s) {
  if (!s.complete) return;
  if (s.queue_wait() > 0.0) {
    emit_slice("queue", s.node, s.submitted, s.queue_wait(), s.request_id);
  }
  if (s.has_queued) {
    emit_slice("transit", s.node, s.issued, s.transit(), s.request_id);
    emit_slice("token_wait", s.node, s.queued, s.token_wait(), s.request_id);
  } else {
    emit_slice("token_wait", s.node, s.issued, s.token_wait(), s.request_id);
  }
  emit_slice("cs", s.node, s.granted, s.cs_time(), s.request_id);
  if (buf_.size() > (1u << 16)) flush_buffer();
}

void ChromeTraceSink::flush() {
  flush_buffer();
  os_.flush();
}

void ChromeTraceSink::flush_buffer() {
  if (!buf_.empty()) {
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }
}

// ---------------------------------------------------------------- factory

std::shared_ptr<Sink> make_format_sink(TraceFormat format, std::ostream& os) {
  switch (format) {
    case TraceFormat::kText: return std::make_shared<TextSink>(os);
    case TraceFormat::kJsonl: return std::make_shared<JsonlSink>(os);
    case TraceFormat::kChrome: return std::make_shared<ChromeTraceSink>(os);
  }
  return nullptr;
}

}  // namespace dmx::obs
