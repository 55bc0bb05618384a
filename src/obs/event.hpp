// Typed trace events: the structured sibling of net/msg_kind.hpp.
//
// The old tracing API shipped a std::string category and a std::string
// detail per record, which meant two heap allocations on every protocol
// step even when nobody was listening, and made questions like "how many
// dispatches happened" a substring scan.  An EventKind is a small dense
// integer assigned once per event type, carrying its stable name and its
// category; an Event is a fixed-size struct of numeric fields (time, node,
// request id, one integer argument, one double).  Human-readable detail
// text is produced lazily: emit sites pass a formatting callback by
// reference, and only sinks that actually want text (the console sink, the
// in-memory test sink) ever invoke it.  Machine-readable sinks (JSONL,
// Chrome trace) serialize the numeric fields directly and never format.
//
// Registration is one line at namespace scope in a per-module events
// header:
//
//   DMX_REGISTER_EVENT(kEvDispatch, "arbiter.dispatch", "dispatch");
//
// The macro defines an inline EventKind constant interned during static
// initialization, so kinds are comparable integers everywhere and name /
// category translation happens only at the registry boundary.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/kind.hpp"
#include "sim/time.hpp"

namespace dmx::obs {

struct EventKindTag {
  static constexpr std::string_view kNoun = "event";
};

/// Dense identifier of one registered event type.  Default-constructed
/// kinds are invalid and match nothing.
using EventKind = sim::Kind<EventKindTag>;
static_assert(sizeof(EventKind) == 2, "an EventKind is a 16-bit index");

/// Process-wide event-name <-> kind table; each kind carries the category
/// it was registered under.  One instance of sim::KindRegistry, like
/// net::MsgKindRegistry, and sealed with it by harness::freeze_registries.
using EventKindRegistry = sim::KindRegistry<EventKindTag>;

/// One structured trace event: fixed numeric fields, no strings.  The
/// meaning of `req`, `arg` and `value` is per-kind (documented where the
/// kind is registered); zero is the universal "not applicable".
struct Event {
  sim::SimTime time;
  EventKind kind;
  std::int32_t node = -1;   ///< Emitting node, -1 for system-level events.
  std::uint64_t req = 0;    ///< CsRequest id, the span correlation key.
  std::int64_t arg = 0;     ///< Kind-specific: peer node, count, epoch...
  double value = 0.0;       ///< Kind-specific measurement (time units...).
};

/// Non-owning reference to a detail formatter.  Emit sites construct one
/// around a local lambda returning std::string; it is only invoked if a
/// sink asks for text, so the formatting cost (and its allocations) is paid
/// exclusively by text-producing sinks.
class DetailRef {
 public:
  constexpr DetailRef() = default;

  template <typename F>
  explicit DetailRef(const F& fn)
      : obj_(&fn), fn_([](const void* o) -> std::string {
          return (*static_cast<const F*>(o))();
        }) {}

  [[nodiscard]] constexpr bool has_value() const { return fn_ != nullptr; }

  /// Format the detail text; empty string when no formatter was supplied.
  [[nodiscard]] std::string operator()() const {
    return fn_ != nullptr ? fn_(obj_) : std::string();
  }

 private:
  const void* obj_ = nullptr;
  std::string (*fn_)(const void*) = nullptr;
};

}  // namespace dmx::obs

/// Define an interned event-kind constant at namespace scope:
///   DMX_REGISTER_EVENT(kEvDispatch, "arbiter.dispatch", "dispatch");
/// The inline variable is shared across translation units and registered
/// during static initialization, mirroring DMX_REGISTER_MESSAGE.
#define DMX_REGISTER_EVENT(ident, NAME, CATEGORY)               \
  inline const ::dmx::obs::EventKind ident =                    \
      ::dmx::obs::EventKindRegistry::instance().intern(NAME, CATEGORY)
