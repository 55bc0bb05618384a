// Dense integer message-kind registry.
//
// The simulator's two hottest per-event operations used to pivot on the
// payload's dynamic type: delivery ran a chain of dynamic_casts and every
// send incremented a std::map<std::string> keyed by type_name().  A MsgKind
// is a small dense integer assigned once per payload type, so dispatch
// becomes one table index and per-type statistics become one vector index.
// Names still exist — they are the stable public vocabulary for traces,
// tables and loss configuration — but translation happens only at the
// registry boundary, never per message.  The registry is one instance of
// sim::KindRegistry (sim/kind.hpp), which also backs obs::EventKind.
//
// Registration is one line inside the payload class body:
//
//   struct RequestMsg final : net::Msg<RequestMsg> {   // CRTP base (payload.hpp)
//     DMX_REGISTER_MESSAGE(RequestMsg, "REQUEST");
//     ...fields...
//   };
//
// The macro defines message_kind(), which interns the name on first use;
// the Msg<> base also forces that registration during static initialization
// so name-keyed configuration (e.g. per-type loss probabilities) can be
// validated against the full set of linked message types before any message
// is ever constructed.
#pragma once

#include <string_view>
#include <type_traits>

#include "sim/kind.hpp"
#include "stats/counter_map.hpp"
#include "stats/kind_counter.hpp"

namespace dmx::net {

struct MsgKindTag {
  static constexpr std::string_view kNoun = "message";
};

/// Dense identifier of one registered message type.  Default-constructed
/// kinds are invalid and match nothing.
using MsgKind = sim::Kind<MsgKindTag>;
static_assert(sizeof(MsgKind) == 2, "a MsgKind is a 16-bit index");

/// Process-wide message-name <-> kind table, sealed by
/// harness::freeze_registries before sweep workers start.
using MsgKindRegistry = sim::KindRegistry<MsgKindTag>;

/// THE translation point from dense kind-indexed counters to name-keyed
/// counts: every table, artifact and result view that spells message names
/// derives them through this one function, so the spellings cannot diverge.
/// Cold path; zero slots are skipped.
[[nodiscard]] stats::CounterMap counts_by_name(const stats::KindCounter& c);

}  // namespace dmx::net

/// Place inside a payload class body (paired with the net::Msg<T> CRTP base)
/// to bind the type to a stable wire name and a dense MsgKind.
#define DMX_REGISTER_MESSAGE(T, NAME)                                       \
  [[nodiscard]] static ::dmx::net::MsgKind message_kind() {                 \
    static_assert(std::is_base_of_v<::dmx::net::Payload, T>,                \
                  #T " must derive from net::Msg<" #T ">");                 \
    static const ::dmx::net::MsgKind kKind =                                \
        ::dmx::net::MsgKindRegistry::instance().intern(NAME);               \
    return kKind;                                                           \
  }                                                                         \
  static_assert(sizeof(NAME) > 1, "message name must be non-empty")
