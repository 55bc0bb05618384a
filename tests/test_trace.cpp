// Unit tests for the typed observability layer: the event-kind registry,
// tracer front-end, text/memory sinks and the lazy detail contract.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/event.hpp"
#include "obs/lifecycle.hpp"
#include "obs/sinks.hpp"
#include "obs/tracer.hpp"

namespace dmx::obs {
namespace {

DMX_REGISTER_EVENT(kEvTestToken, "test.token", "token");
DMX_REGISTER_EVENT(kEvTestCs, "test.cs", "cs");
DMX_REGISTER_EVENT(kEvTestArbiter, "test.arbiter", "arbiter");

Event at(double t, EventKind kind, std::int32_t node, std::uint64_t req = 0,
         std::int64_t arg = 0, double value = 0.0) {
  return Event{sim::SimTime::units(t), kind, node, req, arg, value};
}

TEST(EventKindRegistry, InternIsIdempotent) {
  auto& reg = EventKindRegistry::instance();
  const EventKind again = reg.intern("test.token", "token");
  EXPECT_EQ(again, kEvTestToken);
  EXPECT_EQ(reg.name(kEvTestToken), "test.token");
  EXPECT_EQ(reg.category(kEvTestToken), "token");
}

TEST(EventKindRegistry, FindAndInvalidKinds) {
  auto& reg = EventKindRegistry::instance();
  EXPECT_EQ(reg.find("test.cs"), kEvTestCs);
  EXPECT_FALSE(reg.find("no.such.event").valid());
  EXPECT_FALSE(EventKind{}.valid());
  EXPECT_EQ(reg.name(EventKind{}), "<invalid>");
  EXPECT_EQ(reg.category(EventKind{}), "");
  EXPECT_THROW(reg.intern("", "x"), std::invalid_argument);
}

TEST(EventKindRegistry, DenseIndicesRoundTrip) {
  auto& reg = EventKindRegistry::instance();
  EXPECT_NE(kEvTestToken.index(), kEvTestCs.index());
  EXPECT_EQ(EventKind::from_index(kEvTestCs.index()), kEvTestCs);
  EXPECT_GE(reg.size(), 3u);
  EXPECT_EQ(reg.names().size(), reg.size());
}

TEST(Tracer, DisabledTracerDropsEventsAndNeverFormats) {
  Tracer t;  // no sink
  EXPECT_FALSE(t.enabled());
  bool formatted = false;
  const auto fmt = [&formatted] {
    formatted = true;
    return std::string("detail");
  };
  t.write(at(1.0, kEvTestToken, 0), DetailRef(fmt));
  EXPECT_FALSE(formatted);
}

TEST(Tracer, MachineSinksNeverInvokeDetailFormatters) {
  std::ostringstream os;
  Tracer t(std::make_shared<JsonlSink>(os));
  bool formatted = false;
  const auto fmt = [&formatted] {
    formatted = true;
    return std::string("expensive");
  };
  t.write(at(1.0, kEvTestToken, 2, 7), DetailRef(fmt));
  t.sink()->flush();
  EXPECT_FALSE(formatted);
  EXPECT_NE(os.str().find("\"ev\":\"test.token\""), std::string::npos);
}

TEST(MemorySink, CapturesTypedEvents) {
  auto sink = std::make_shared<MemorySink>();
  Tracer t(sink);
  EXPECT_TRUE(t.enabled());
  const auto fmt = [] { return std::string("passing to node 3"); };
  t.write(at(1.0, kEvTestToken, 2, 5, 3), DetailRef(fmt));
  t.write(at(2.0, kEvTestCs, 3));
  ASSERT_EQ(sink->entries().size(), 2u);
  EXPECT_EQ(sink->entries()[0].event.node, 2);
  EXPECT_EQ(sink->entries()[0].event.req, 5u);
  EXPECT_EQ(sink->entries()[0].event.arg, 3);
  EXPECT_EQ(sink->entries()[0].detail, "passing to node 3");
  EXPECT_EQ(sink->entries()[1].event.time, sim::SimTime::units(2.0));
}

TEST(MemorySink, TypedQueries) {
  auto sink = std::make_shared<MemorySink>();
  Tracer t(sink);
  t.write(at(0.0, kEvTestToken, 0));
  t.write(at(0.0, kEvTestCs, 1));
  t.write(at(0.0, kEvTestToken, 1));
  EXPECT_EQ(sink->count_kind(kEvTestToken), 2u);
  EXPECT_EQ(sink->count_kind(kEvTestCs), 1u);
  EXPECT_EQ(sink->count_kind(kEvTestArbiter), 0u);
  ASSERT_EQ(sink->by_kind(kEvTestToken).size(), 2u);
  EXPECT_EQ(sink->by_kind(kEvTestToken)[1].event.node, 1);
  sink->clear();
  EXPECT_TRUE(sink->entries().empty());
  EXPECT_EQ(sink->count_kind(kEvTestToken), 0u);
}

TEST(TextSink, FormatsEvents) {
  std::ostringstream os;
  TextSink sink(os, 0);  // unbuffered
  const auto fmt = [] { return std::string("became arbiter"); };
  sink.on_event(at(1.5, kEvTestArbiter, 4), DetailRef(fmt));
  const std::string line = os.str();
  EXPECT_NE(line.find("1.5"), std::string::npos);
  EXPECT_NE(line.find("node  4"), std::string::npos);
  EXPECT_NE(line.find("arbiter"), std::string::npos);
  EXPECT_NE(line.find("became arbiter"), std::string::npos);
}

TEST(TextSink, SystemEventsHaveNoNode) {
  std::ostringstream os;
  TextSink sink(os, 0);
  const auto fmt = [] { return std::string("boot"); };
  sink.on_event(at(0.0, kEvTestToken, -1), DetailRef(fmt));
  EXPECT_NE(os.str().find("system"), std::string::npos);
}

TEST(TextSink, RendersNumericFallbackWithoutFormatter) {
  std::ostringstream os;
  TextSink sink(os, 0);
  sink.on_event(at(1.0, kEvTestCs, 2, 12, 0, 0.25), DetailRef{});
  const std::string line = os.str();
  EXPECT_NE(line.find("test.cs"), std::string::npos);
  EXPECT_NE(line.find("req=12"), std::string::npos);
  EXPECT_NE(line.find("val=0.25"), std::string::npos);
}

TEST(TextSink, BuffersUntilExplicitFlush) {
  std::ostringstream os;
  TextSink sink(os);  // default buffering
  const auto fmt = [] { return std::string("hello"); };
  sink.on_event(at(0.0, kEvTestToken, 0), DetailRef(fmt));
  EXPECT_TRUE(os.str().empty());  // nothing written per-record
  sink.flush();
  EXPECT_NE(os.str().find("hello"), std::string::npos);
}

TEST(DetailRef, EmptyRefFormatsToEmptyString) {
  const DetailRef ref;
  EXPECT_FALSE(ref.has_value());
  EXPECT_EQ(ref(), "");
}

TEST(Lifecycle, KindsAreRegisteredUnderStableNames) {
  auto& reg = EventKindRegistry::instance();
  EXPECT_EQ(reg.find("cs.submitted"), kEvCsSubmitted);
  EXPECT_EQ(reg.find("cs.issued"), kEvCsIssued);
  EXPECT_EQ(reg.find("cs.granted"), kEvCsGranted);
  EXPECT_EQ(reg.find("cs.released"), kEvCsReleased);
  EXPECT_EQ(reg.find("cs.aborted"), kEvCsAborted);
  EXPECT_EQ(reg.find("req.queued"), kEvReqQueued);
  EXPECT_EQ(reg.find("req.forwarded"), kEvReqForwarded);
  EXPECT_EQ(reg.category(kEvCsGranted), "cs");
  EXPECT_EQ(reg.category(kEvReqQueued), "request");
}

}  // namespace
}  // namespace dmx::obs
