#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "src/memory/channel.h"
#include "src/memory/mem_types.h"
#include "src/net/fabric.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/engine.h"
#include "src/sim/kernels.h"
#include "src/sim/tap.h"

namespace fpgadp {
namespace {

using obs::MetricsRegistry;
using obs::TraceWriter;
using sim::Engine;
using sim::Stream;
using sim::StreamTap;
using sim::TraceOptions;
using sim::TransformKernel;
using sim::VectorSink;
using sim::VectorSource;

// ---------------------------------------------------------------------------
// MetricsRegistry semantics.

TEST(MetricsRegistryTest, CountersAreStableAndCumulative) {
  MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("foo");
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(reg.GetCounter("foo"), c) << "same name must return same pointer";
  EXPECT_EQ(reg.GetCounter("foo")->value(), 42u);
  EXPECT_EQ(reg.FindCounter("missing"), nullptr);
}

TEST(MetricsRegistryTest, GaugesSetAndSetMax) {
  MetricsRegistry reg;
  obs::Gauge* g = reg.GetGauge("depth");
  g->Set(3);
  g->SetMax(1);
  EXPECT_DOUBLE_EQ(g->value(), 3);
  g->SetMax(7);
  EXPECT_DOUBLE_EQ(g->value(), 7);
}

TEST(MetricsRegistryTest, HistogramBucketsAndQuantiles) {
  MetricsRegistry reg;
  obs::Histogram* h = reg.GetHistogram("lat", {1, 2, 4, 8});
  for (int i = 0; i < 8; ++i) h->Observe(1);   // bucket <=1
  for (int i = 0; i < 2; ++i) h->Observe(100); // overflow bucket
  EXPECT_EQ(h->count(), 10u);
  EXPECT_DOUBLE_EQ(h->max(), 100);
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 1);
  EXPECT_DOUBLE_EQ(h->Quantile(0.99), 100) << "overflow reports observed max";
  EXPECT_EQ(h->bucket_counts().front(), 8u);
  EXPECT_EQ(h->bucket_counts().back(), 2u);
}

TEST(MetricsRegistryTest, ToStringListsInstruments) {
  MetricsRegistry reg;
  reg.GetCounter("a.count")->Inc(5);
  reg.GetGauge("b.gauge")->Set(2.5);
  reg.GetHistogram("c.hist")->Observe(3);
  const std::string s = reg.ToString();
  EXPECT_NE(s.find("a.count: 5"), std::string::npos);
  EXPECT_NE(s.find("b.gauge: 2.5"), std::string::npos);
  EXPECT_NE(s.find("c.hist: count 1"), std::string::npos);
  EXPECT_EQ(reg.size(), 3u);
}

// ---------------------------------------------------------------------------
// Stall attribution.

TEST(StallAttributionTest, BucketsSumToElapsedCyclesPerModule) {
  // A slow kernel (II=4) behind a fast source: the source must block, the
  // sink must starve, and every module's buckets must sum to elapsed cycles.
  std::vector<int> data(64, 1);
  Stream<int> in("in", 4);
  Stream<int> out("out", 4);
  VectorSource<int> src("src", data, &in);
  TransformKernel<int, int> k(
      "slow", &in, &out, [](const int& v) { return std::optional<int>(v); },
      sim::KernelTiming{/*ii=*/4, /*lanes=*/1, /*latency=*/1});
  VectorSink<int> sink("sink", &out);
  Engine e;
  e.AddModule(&src);
  e.AddModule(&k);
  e.AddModule(&sink);
  e.AddStream(&in);
  e.AddStream(&out);
  auto cycles = e.Run(100000);
  ASSERT_TRUE(cycles.ok());
  for (const sim::Module* m :
       std::vector<const sim::Module*>{&src, &k, &sink}) {
    EXPECT_EQ(m->busy_cycles() + m->starved_cycles() + m->blocked_cycles() +
                  m->idle_cycles(),
              cycles.value())
        << m->name();
  }
  EXPECT_GT(src.blocked_cycles(), 0u) << "fast source behind slow kernel";
  EXPECT_GT(sink.starved_cycles(), 0u) << "sink waits on slow kernel";
}

TEST(StallAttributionTest, MemoryChannelAttributesEveryCycle) {
  std::vector<mem::MemRequest> reqs;
  for (uint64_t i = 0; i < 16; ++i) {
    reqs.push_back(mem::MemRequest{i, i * 64, 64, false});
  }
  Stream<mem::MemRequest> req("req", 8);
  Stream<mem::MemResponse> resp("resp", 8);
  VectorSource<mem::MemRequest> src("reqsrc", reqs, &req);
  mem::MemoryChannel chan("ch0", &req, &resp, mem::MemoryChannel::Config{});
  VectorSink<mem::MemResponse> sink("respsink", &resp);
  Engine e;
  e.AddModule(&src);
  e.AddModule(&chan);
  e.AddModule(&sink);
  e.AddStream(&req);
  e.AddStream(&resp);
  auto cycles = e.Run(100000);
  ASSERT_TRUE(cycles.ok());
  EXPECT_EQ(sink.collected().size(), reqs.size());
  EXPECT_EQ(chan.busy_cycles() + chan.starved_cycles() +
                chan.blocked_cycles() + chan.idle_cycles(),
            cycles.value());
  // Bus-busy vs latency-wait breakdown: both phases occur, and together they
  // never exceed the cycles the channel had requests in flight.
  EXPECT_GT(chan.bus_busy_cycles(), 0u);
  EXPECT_GT(chan.latency_wait_cycles(), 0u);
  EXPECT_LE(chan.bus_busy_cycles() + chan.latency_wait_cycles(),
            cycles.value());
}

TEST(StallAttributionTest, FallbackAttributesUnclassifiedModules) {
  // A module that never calls any Mark* still ends up fully attributed
  // (engine backfills idle), keeping report totals consistent.
  class Inert : public sim::Module {
   public:
    Inert() : Module("inert") {}
    void Tick(sim::Cycle) override {}
    bool Idle() const override { return true; }
    sim::Cycle NextEventCycle(sim::Cycle) const override {
      return sim::kNoEventCycle;
    }
  };
  Inert inert;
  Engine e;
  e.AddModule(&inert);
  for (int i = 0; i < 10; ++i) e.Step();
  EXPECT_EQ(inert.idle_cycles(), 10u);
  EXPECT_EQ(inert.attributed_cycles(), 10u);
}

// ---------------------------------------------------------------------------
// Trace export.

// Structural JSON validation: balanced delimiters outside strings, and an
// even number of unescaped quotes. Catches truncation and quoting bugs
// without a full parser.
void ExpectWellFormedJson(const std::string& s) {
  ASSERT_FALSE(s.empty());
  EXPECT_EQ(s.front(), '{');
  int brace = 0, bracket = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;  // skip escaped char
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++brace; break;
      case '}': --brace; break;
      case '[': ++bracket; break;
      case ']': --bracket; break;
      default: break;
    }
    EXPECT_GE(brace, 0);
    EXPECT_GE(bracket, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
}

size_t CountOccurrences(const std::string& s, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = s.find(needle); pos != std::string::npos;
       pos = s.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(TraceTest, TappedPipelineTraceMatchesCounters) {
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  Stream<int> a("a", 4);
  Stream<int> b("b", 4);
  VectorSource<int> src("src", data, &a);
  StreamTap<int> tap("tap", &a, &b);
  VectorSink<int> sink("sink", &b);
  TraceWriter writer;
  Engine e;
  e.EnableTracing(&writer, TraceOptions{/*sample_period=*/1, "tap-test"});
  e.AddModule(&src);
  e.AddModule(&tap);
  e.AddModule(&sink);
  e.AddStream(&a);
  e.AddStream(&b);
  ASSERT_TRUE(e.Run(10000).ok());

  // The tap emits one instant event per forwarded item, so trace event
  // counts line up with the stream and tap counters.
  EXPECT_EQ(tap.forwarded(), data.size());
  EXPECT_EQ(writer.instant_count(), tap.forwarded());
  EXPECT_EQ(writer.instant_count(), a.total_pushed());
  EXPECT_EQ(writer.instant_count(), b.total_pushed());
  EXPECT_GT(writer.span_count(), 0u) << "module-busy spans recorded";
  EXPECT_GT(writer.counter_count(), 0u) << "stream-depth counters recorded";

  std::ostringstream os;
  writer.WriteJson(os);
  const std::string json = os.str();
  ExpectWellFormedJson(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("tap-test"), std::string::npos);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""), writer.span_count());
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"C\""), writer.counter_count());
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"i\""), writer.instant_count());
}

TEST(TraceTest, WriterEscapesNames) {
  TraceWriter writer;
  const int pid = writer.NewProcess("weird \"name\"\nwith\tescapes\\");
  writer.CompleteSpan(pid, writer.NewThread(pid, "t"), "span", 0, 1);
  std::ostringstream os;
  writer.WriteJson(os);
  ExpectWellFormedJson(os.str());
}

TEST(TraceTest, FabricPublishesIncastCounters) {
  net::Fabric fabric("fab", 2, net::Fabric::Config{});
  TraceWriter writer;
  Engine e;
  e.EnableTracing(&writer, TraceOptions{/*sample_period=*/1, "fabric"});
  fabric.RegisterWith(e);
  VectorSink<net::Packet> drain("drain", &fabric.ingress(1));
  e.AddModule(&drain);
  net::Packet p;
  p.src = 0;
  p.dst = 1;
  p.bytes = 4096;
  fabric.egress(0).Write(p);
  auto cycles = e.Run(100000);
  ASSERT_TRUE(cycles.ok());
  std::ostringstream os;
  writer.WriteJson(os);
  const std::string json = os.str();
  ExpectWellFormedJson(json);
  EXPECT_NE(json.find("fab.in_flight"), std::string::npos);
  EXPECT_NE(json.find("fab.incast_q1"), std::string::npos);
  EXPECT_EQ(fabric.packets_delivered(), 1u);
  EXPECT_GT(fabric.tx_busy_cycles(0), 0u);
  EXPECT_GT(fabric.rx_busy_cycles(1), 0u);
}

TEST(TraceTest, IncastDepthAndPortOccupancyPinnedForFourToOne) {
  // Four senders, one receiver, one 4 KiB packet each, offered in the same
  // cycle — the canonical fan-in the gather work optimizes away. This pins
  // the observability the optimization is judged by: the receiver's
  // arriving queue (incast_depth) holds all four packets while its single
  // rx port serializes them one after another.
  net::Fabric fabric("fab", 5, net::Fabric::Config{});
  Engine e;
  fabric.RegisterWith(e);
  VectorSink<net::Packet> drain("drain", &fabric.ingress(4));
  e.AddModule(&drain);
  // 4096 B + 64 B header at 62.5 B/cycle = 67 serialization cycles.
  const uint64_t kSer = fabric.SerializationCycles(4096);
  EXPECT_EQ(kSer, 67u);
  for (uint32_t src = 0; src < 4; ++src) {
    net::Packet p;
    p.src = src;
    p.dst = 4;
    p.bytes = 4096;
    fabric.egress(src).Write(p);
  }
  size_t max_incast = 0;
  std::vector<sim::Cycle> delivery_cycles;
  uint64_t delivered = 0;
  while (delivered < 4 && e.now() < 100000) {
    e.Step();
    max_incast = std::max(max_incast, fabric.incast_depth(4));
    if (fabric.packets_delivered() > delivered) {
      delivered = fabric.packets_delivered();
      delivery_cycles.push_back(e.now());
    }
  }
  e.FlushObservers();
  ASSERT_EQ(delivered, 4u);
  // All four packets sat in the receiver's arriving queue at once.
  EXPECT_EQ(max_incast, 4u);
  EXPECT_EQ(fabric.incast_depth(4), 0u);  // fully drained
  // Each sender's tx port serialized exactly its own packet; the receiver's
  // rx port serialized all four, back to back.
  for (uint32_t src = 0; src < 4; ++src) {
    EXPECT_EQ(fabric.tx_busy_cycles(src), kSer) << "src " << src;
    EXPECT_EQ(fabric.rx_busy_cycles(src), 0u) << "src " << src;
  }
  EXPECT_EQ(fabric.tx_busy_cycles(4), 0u);
  // rx occupancy uses reservation semantics: the port counts busy from the
  // pickup tick (cycle 1) through its reserved horizon — the 200-cycle wire
  // lead time plus four back-to-back serializations.
  EXPECT_EQ(fabric.rx_busy_cycles(4), 1u + 200u + 4 * kSer);
  // Deliveries are spaced by exactly one rx serialization: the port, not
  // the wire, is the bottleneck — the fan-in wall in one assertion.
  ASSERT_EQ(delivery_cycles.size(), 4u);
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(delivery_cycles[i] - delivery_cycles[i - 1], kSer)
        << "delivery " << i;
  }
  // The first delivery pays tx serialization + wire latency (200 cycles)
  // + rx serialization after pickup.
  EXPECT_GE(delivery_cycles[0], 200u + kSer);
}

// ---------------------------------------------------------------------------
// Metrics export from engine runs.

TEST(EngineMetricsTest, ExportsStallAndStreamCounters) {
  std::vector<int> data(50, 3);
  Stream<int> ch("ch", 4);
  VectorSource<int> src("src", data, &ch);
  VectorSink<int> sink("sink", &ch);
  MetricsRegistry reg;
  Engine e;
  e.EnableMetrics(&reg);
  e.AddModule(&src);
  e.AddModule(&sink);
  e.AddStream(&ch);
  auto cycles = e.Run(10000);
  ASSERT_TRUE(cycles.ok());
  ASSERT_NE(reg.FindCounter("module.src.busy_cycles"), nullptr);
  EXPECT_EQ(reg.FindCounter("module.src.busy_cycles")->value(),
            src.busy_cycles());
  EXPECT_EQ(reg.FindCounter("module.sink.starved_cycles")->value(),
            sink.starved_cycles());
  EXPECT_EQ(reg.FindCounter("stream.ch.pushed")->value(), ch.total_pushed());
  EXPECT_EQ(reg.FindCounter("engine.cycles")->value(), cycles.value());
  const obs::Histogram* depth = reg.FindHistogram("stream.ch.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GT(depth->count(), 0u) << "periodic depth snapshots recorded";
}

TEST(EngineMetricsTest, RepeatedRunsDoNotDoubleCount) {
  std::vector<int> data(10, 1);
  Stream<int> ch("ch", 4);
  VectorSource<int> src("src", data, &ch);
  VectorSink<int> sink("sink", &ch);
  MetricsRegistry reg;
  Engine e;
  e.EnableMetrics(&reg);
  e.AddModule(&src);
  e.AddModule(&sink);
  e.AddStream(&ch);
  ASSERT_TRUE(e.Run(1000).ok());
  ASSERT_TRUE(e.Run(1000).ok());  // already quiesced: zero extra cycles
  EXPECT_EQ(reg.FindCounter("module.src.busy_cycles")->value(),
            src.busy_cycles());
  EXPECT_EQ(reg.FindCounter("engine.cycles")->value(), e.now());
}

// ---------------------------------------------------------------------------
// The Step()/FlushObservers contract. Run() flushes observers on exit, but
// a manually Step()-driven engine that quiesces has NOT flushed: its last
// busy spans and metric deltas are missing until FlushObservers() runs.
// These tests pin down both the truncation and the two remedies (explicit
// flush, destructor safety net).

TEST(EngineMetricsTest, ManualSteppingRequiresExplicitFlush) {
  std::vector<int> data(20, 2);
  Stream<int> ch("ch", 4);
  VectorSource<int> src("src", data, &ch);
  VectorSink<int> sink("sink", &ch);
  MetricsRegistry reg;
  Engine e;
  e.EnableMetrics(&reg);
  e.AddModule(&src);
  e.AddModule(&sink);
  e.AddStream(&ch);
  while (!e.QuiescedNow()) e.Step();
  // Step() never exports: nothing in the registry yet, counters truncated.
  const obs::Counter* busy = reg.FindCounter("module.src.busy_cycles");
  EXPECT_TRUE(busy == nullptr || busy->value() < src.busy_cycles())
      << "Step() must not flush observers (per-cycle probes would be "
         "perturbed by partial exports)";
  e.FlushObservers();
  ASSERT_NE(reg.FindCounter("module.src.busy_cycles"), nullptr);
  EXPECT_EQ(reg.FindCounter("module.src.busy_cycles")->value(),
            src.busy_cycles());
  EXPECT_EQ(reg.FindCounter("engine.cycles")->value(), e.now());
  // Flushing is idempotent: a second flush (or Run()'s own exit flush)
  // never double-counts.
  e.FlushObservers();
  EXPECT_EQ(reg.FindCounter("module.src.busy_cycles")->value(),
            src.busy_cycles());
}

TEST(EngineMetricsTest, DestructorFlushesForgottenManualStepper) {
  std::vector<int> data(20, 2);
  Stream<int> ch("ch", 4);
  VectorSource<int> src("src", data, &ch);
  VectorSink<int> sink("sink", &ch);
  MetricsRegistry reg;
  {
    Engine e;  // destroyed before modules/streams/registry, as required
    e.EnableMetrics(&reg);
    e.AddModule(&src);
    e.AddModule(&sink);
    e.AddStream(&ch);
    while (!e.QuiescedNow()) e.Step();
    // No FlushObservers() — the destructor is the safety net.
  }
  ASSERT_NE(reg.FindCounter("module.src.busy_cycles"), nullptr);
  EXPECT_EQ(reg.FindCounter("module.src.busy_cycles")->value(),
            src.busy_cycles());
  EXPECT_GT(reg.FindCounter("engine.cycles")->value(), 0u);
}

TEST(TraceTest, ManualSteppingTruncatesSpansUntilFlushed) {
  std::vector<int> data(50, 1);
  Stream<int> ch("ch", 2);
  VectorSource<int> src("src", data, &ch);
  VectorSink<int> sink("sink", &ch);
  TraceWriter writer;
  Engine e;
  e.EnableTracing(&writer, TraceOptions{/*sample_period=*/1, "steps"});
  e.AddModule(&src);
  e.AddModule(&sink);
  e.AddStream(&ch);
  while (!e.QuiescedNow()) e.Step();
  const size_t spans_before_flush = writer.span_count();
  e.FlushObservers();
  // The final busy span of each module only closes at flush time.
  EXPECT_GT(writer.span_count(), spans_before_flush)
      << "unflushed manual stepper must be missing its trailing spans";
  std::ostringstream os;
  writer.WriteJson(os);
  ExpectWellFormedJson(os.str());
}

TEST(EngineMetricsTest, GlobalRegistryPickedUpByNestedEngines) {
  MetricsRegistry reg;
  obs::SetGlobalMetrics(&reg);
  {
    std::vector<int> data(20, 2);
    Stream<int> ch("g", 4);
    VectorSource<int> src("gsrc", data, &ch);
    VectorSink<int> sink("gsink", &ch);
    Engine e;
    e.AddModule(&src);
    e.AddModule(&sink);
    e.AddStream(&ch);
    ASSERT_TRUE(e.Run(1000).ok());
  }
  obs::SetGlobalMetrics(nullptr);
  ASSERT_NE(reg.FindCounter("module.gsrc.busy_cycles"), nullptr);
  EXPECT_GT(reg.FindCounter("module.gsrc.busy_cycles")->value(), 0u);
}

}  // namespace
}  // namespace fpgadp
