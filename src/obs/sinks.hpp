// The sink zoo: console text, in-memory capture, JSONL, Chrome trace, tee.
#pragma once

#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/sink.hpp"
#include "obs/span.hpp"

namespace dmx::obs {

/// Human-readable text, one line per event:
///   [      time] node  N category   detail
/// Events emitted without a detail formatter render their numeric fields
/// ("cs.issued req=12 val=0.3").
///
/// Output is buffered (`buffer_bytes`); call flush() before reading the
/// underlying stream.  Pass buffer_bytes = 0 for unbuffered line-at-a-time
/// insertion — interactive tools (dmx_trace) use that so trace lines stay
/// interleaved with other output on the same stream.
class TextSink final : public Sink {
 public:
  explicit TextSink(std::ostream& os, std::size_t buffer_bytes = 1 << 16)
      : os_(os), cap_(buffer_bytes) {}
  ~TextSink() override { flush_buffer(); }

  void on_event(const Event& e, const DetailRef& detail) override;
  void flush() override {
    flush_buffer();
    os_.flush();
  }

 private:
  void flush_buffer();

  std::ostream& os_;  // NOLINT: non-owning by design
  std::size_t cap_;
  std::string buf_;
};

/// Captures events (detail formatted eagerly — this is the test sink, it
/// pays for text so assertions can read it) and completed spans.
class MemorySink final : public Sink {
 public:
  struct Entry {
    Event event;
    std::string detail;
  };

  void on_event(const Event& e, const DetailRef& detail) override {
    entries_.push_back(Entry{e, detail()});
  }
  void on_span(const Span& s) override { spans_.push_back(s); }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Queries by event kind (an integer compare per entry).
  [[nodiscard]] std::vector<Entry> by_kind(EventKind k) const;
  [[nodiscard]] std::size_t count_kind(EventKind k) const;

  void clear() {
    entries_.clear();
    spans_.clear();
  }

 private:
  std::vector<Entry> entries_;
  std::vector<Span> spans_;
};

/// Machine-readable JSON Lines.  One object per event:
///   {"t":0.3,"ev":"cs.issued","cat":"cs","node":1,"req":3,"arg":0,"val":0}
/// and one per completed span:
///   {"span":{"req":3,"node":1,"submitted":0.3,...,"aborted":false}}
/// Detail formatters are never invoked — the numeric fields are the record.
/// Schema: DESIGN.md §9.
class JsonlSink final : public Sink {
 public:
  explicit JsonlSink(std::ostream& os, std::size_t buffer_bytes = 1 << 16)
      : os_(os), cap_(buffer_bytes) {}
  ~JsonlSink() override { flush_buffer(); }

  void on_event(const Event& e, const DetailRef& detail) override;
  void on_span(const Span& s) override;
  void flush() override {
    flush_buffer();
    os_.flush();
  }

 private:
  void flush_buffer();

  std::ostream& os_;  // NOLINT: non-owning by design
  std::size_t cap_;
  std::string buf_;
};

/// Chrome trace-event JSON ("catapult" format), loadable in Perfetto and
/// chrome://tracing.  Events become thread-scoped instants on row tid=node;
/// spans become four duration ("ph":"X") slices — queue, transit,
/// token_wait, cs — on the requesting node's row.  Timestamps are in
/// microseconds: one sim tick = 1 µs, so one time unit reads as one second
/// in the viewer.  The JSON envelope closes when the sink is destroyed.
class ChromeTraceSink final : public Sink {
 public:
  explicit ChromeTraceSink(std::ostream& os);
  ~ChromeTraceSink() override;

  void on_event(const Event& e, const DetailRef& detail) override;
  void on_span(const Span& s) override;
  void flush() override;

 private:
  void emit_slice(std::string_view name, std::int32_t node, sim::SimTime start,
                  double dur_units, std::uint64_t req);
  void entry();
  void flush_buffer();

  std::ostream& os_;  // NOLINT: non-owning by design
  std::string buf_;
  bool first_ = true;
};

/// Fans out to several sinks (e.g. console text + a file sink).
class TeeSink final : public Sink {
 public:
  explicit TeeSink(std::vector<std::shared_ptr<Sink>> sinks)
      : sinks_(std::move(sinks)) {}

  void on_event(const Event& e, const DetailRef& detail) override {
    for (const auto& s : sinks_) s->on_event(e, detail);
  }
  void on_span(const Span& sp) override {
    for (const auto& s : sinks_) s->on_span(sp);
  }
  void flush() override {
    for (const auto& s : sinks_) s->flush();
  }

 private:
  std::vector<std::shared_ptr<Sink>> sinks_;
};

/// Serialization format for --trace-out.
enum class TraceFormat { kText, kJsonl, kChrome };

/// Build the file sink for a format.  The caller owns the stream and must
/// keep it alive until the sink is destroyed (the Chrome sink writes its
/// closing bracket from the destructor).
std::shared_ptr<Sink> make_format_sink(TraceFormat format, std::ostream& os);

}  // namespace dmx::obs
