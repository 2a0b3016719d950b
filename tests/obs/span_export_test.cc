// Perfetto span/flow export round-trip: run a span-traced workload, export the Chrome
// trace JSON, parse it back line-by-line (the exporter emits one event per line for
// exactly this purpose), re-derive the span tree from the parsed events alone, and check
// it against the tracer's own records.

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/obs/perfetto.h"
#include "src/obs/span.h"
#include "src/os/system.h"

namespace imax432 {
namespace {

// Pulls `"key":<number>` out of a single JSON event line.
bool ExtractU64(const std::string& line, const std::string& key, uint64_t* out) {
  std::string needle = "\"" + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  *out = std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
  return true;
}

// Strict recursive-descent check that `text` is exactly one JSON value (RFC 8259 grammar),
// so the exporter's escaping is held to the format rather than to a pattern.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  bool IsDigit() const {
    return !AtEnd() && std::isdigit(static_cast<unsigned char>(text_[pos_]));
  }
  void SkipSpace() {
    while (!AtEnd() && text_[pos_] != '\0' && std::strchr(" \t\r\n", text_[pos_]) != nullptr) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    SkipSpace();
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool Value() {
    SkipSpace();
    if (AtEnd()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      default: break;
    }
    for (const char* literal : {"true", "false", "null"}) {
      if (text_.compare(pos_, std::strlen(literal), literal) == 0) {
        pos_ += std::strlen(literal);
        return true;
      }
    }
    return Number();
  }
  bool Object() {
    ++pos_;
    if (Eat('}')) return true;
    do {
      SkipSpace();
      if (!String() || !Eat(':') || !Value()) return false;
    } while (Eat(','));
    return Eat('}');
  }
  bool Array() {
    ++pos_;
    if (Eat(']')) return true;
    do {
      if (!Value()) return false;
    } while (Eat(','));
    return Eat(']');
  }
  bool String() {
    if (AtEnd() || text_[pos_] != '"') return false;
    ++pos_;
    while (!AtEnd()) {
      unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return true;
      if (c < 0x20 || (c == '\\' && !Escape())) return false;
    }
    return false;
  }
  bool Escape() {
    if (AtEnd()) return false;
    char c = text_[pos_++];
    if (c == 'u') {
      for (int i = 0; i < 4; ++i, ++pos_) {
        if (AtEnd() || !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) return false;
      }
      return true;
    }
    return c != '\0' && std::strchr("\"\\/bfnrt", c) != nullptr;
  }
  bool Digits() {
    size_t start = pos_;
    while (IsDigit()) ++pos_;
    return pos_ > start;
  }
  bool Number() {
    if (!AtEnd() && text_[pos_] == '-') ++pos_;
    if (!Digits()) return false;
    if (!AtEnd() && text_[pos_] == '.') {
      ++pos_;
      if (!Digits()) return false;
    }
    if (!AtEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (!AtEnd() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      return Digits();
    }
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

struct ParsedSpan {
  uint64_t parent = 0;
  uint64_t root = 0;
  uint64_t process = 0;
};

void RunSpanWorkload(System& system, int messages) {
  auto port = system.kernel().ports().CreatePort(system.memory().global_heap(), 2,
                                                 QueueDiscipline::kFifo);
  ASSERT_TRUE(port.ok());
  auto carrier = system.memory().CreateObject(system.memory().global_heap(),
                                              SystemType::kGeneric, 8, 2,
                                              rights::kRead | rights::kWrite);
  ASSERT_TRUE(carrier.ok());
  (void)system.machine().addressing().WriteAd(carrier.value(), 0, port.value());
  (void)system.machine().addressing().WriteAd(carrier.value(), 1,
                                              system.memory().global_heap());
  Assembler producer("producer");
  auto send_loop = producer.NewLabel();
  producer.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadAd(3, 1, 1)
      .CreateObject(4, 3, 32)
      .LoadImm(0, 0)
      .LoadImm(1, static_cast<uint64_t>(messages))
      .Bind(send_loop)
      .Send(2, 4)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, send_loop)
      .Halt();
  Assembler consumer("consumer");
  auto recv_loop = consumer.NewLabel();
  consumer.MoveAd(1, kArgAdReg)
      .LoadAd(2, 1, 0)
      .LoadImm(0, 0)
      .LoadImm(1, static_cast<uint64_t>(messages))
      .Bind(recv_loop)
      .Receive(4, 2)
      .Compute(128)
      .AddImm(0, 0, 1)
      .BranchIfLess(0, 1, recv_loop)
      .Halt();
  ProcessOptions options;
  options.initial_arg = carrier.value();
  ASSERT_TRUE(system.Spawn(consumer.Build(), options).ok());
  ASSERT_TRUE(system.Spawn(producer.Build(), options).ok());
  system.Run();
}

TEST(SpanExportTest, RoundTripRederivesTheSpanTree) {
  SystemConfig config;
  config.processors = 2;
  config.machine.memory_bytes = 2 * 1024 * 1024;
  config.span_trace = true;
  System system(config);
  RunSpanWorkload(system, 8);
  SpanTracer& tracer = system.machine().spans();
  tracer.FlushOpen();
  ASSERT_GT(tracer.spans().size(), 0u);

  std::string json = ExportSpanChromeTrace(tracer, &system.kernel().symbols());
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\n]}\n"), std::string::npos);
  EXPECT_TRUE(JsonChecker(json).Valid());

  // Parse: one event per line. Slices carry the span fields; "s"/"f" carry flow ids.
  std::map<uint64_t, ParsedSpan> parsed;
  std::multiset<uint64_t> flow_starts;
  std::multiset<uint64_t> flow_finishes;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"ph\":\"X\"") != std::string::npos) {
      uint64_t id = 0;
      ParsedSpan span;
      ASSERT_TRUE(ExtractU64(line, "span", &id)) << line;
      ASSERT_TRUE(ExtractU64(line, "parent", &span.parent)) << line;
      ASSERT_TRUE(ExtractU64(line, "root", &span.root)) << line;
      ASSERT_TRUE(ExtractU64(line, "process", &span.process)) << line;
      EXPECT_TRUE(parsed.emplace(id, span).second) << "duplicate span " << id;
    } else if (line.find("\"ph\":\"s\"") != std::string::npos) {
      uint64_t id = 0;
      ASSERT_TRUE(ExtractU64(line, "id", &id)) << line;
      flow_starts.insert(id);
    } else if (line.find("\"ph\":\"f\"") != std::string::npos) {
      uint64_t id = 0;
      ASSERT_TRUE(ExtractU64(line, "id", &id)) << line;
      EXPECT_NE(line.find("\"bp\":\"e\""), std::string::npos) << line;
      flow_finishes.insert(id);
    }
  }

  // Every tracer span came back with identical linkage.
  ASSERT_EQ(parsed.size(), tracer.spans().size());
  for (const SpanRecord& span : tracer.spans()) {
    ASSERT_TRUE(parsed.count(span.id)) << "span " << span.id << " missing";
    const ParsedSpan& p = parsed.at(span.id);
    EXPECT_EQ(p.parent, span.parent) << "span " << span.id;
    EXPECT_EQ(p.root, span.root) << "span " << span.id;
    EXPECT_EQ(p.process, span.process) << "span " << span.id;
  }

  // Re-derive each span's root from the parsed parent links alone: walking parents from
  // any span must terminate at a parent-less span whose exported root matches.
  for (const auto& [id, span] : parsed) {
    uint64_t cursor = id;
    int hops = 0;
    while (parsed.at(cursor).parent != 0) {
      uint64_t parent = parsed.at(cursor).parent;
      ASSERT_TRUE(parsed.count(parent)) << "dangling parent of span " << cursor;
      ASSERT_LT(parent, cursor) << "parent links must point backwards";
      ASSERT_EQ(parsed.at(parent).root, span.root) << "root mismatch on chain of " << id;
      cursor = parent;
      ASSERT_LT(++hops, 1000) << "parent cycle";
    }
  }

  // One flow pair per child span, keyed by the child's span id.
  std::multiset<uint64_t> children;
  for (const auto& [id, span] : parsed) {
    if (span.parent != 0) {
      children.insert(id);
    }
  }
  EXPECT_EQ(flow_starts, children);
  EXPECT_EQ(flow_finishes, children);
  EXPECT_GT(children.size(), 0u);
}

// Process names come from user code; a quote or a backslash in one must not break the JSON.
TEST(SpanExportTest, SymbolNamesAreEscaped) {
  SystemConfig config;
  config.processors = 2;
  config.machine.memory_bytes = 2 * 1024 * 1024;
  config.span_trace = true;
  System system(config);
  RunSpanWorkload(system, 2);
  SpanTracer& tracer = system.machine().spans();
  tracer.FlushOpen();
  ASSERT_GT(tracer.spans().size(), 0u);
  for (const SpanRecord& span : tracer.spans()) {
    system.kernel().symbols().Name(span.process, "say \"hi\" \\ bye");
  }

  std::string json = ExportSpanChromeTrace(tracer, &system.kernel().symbols());
  EXPECT_TRUE(JsonChecker(json).Valid());
  EXPECT_NE(json.find("\"args\":{\"name\":\"say \\\"hi\\\" \\\\ bye\"}"), std::string::npos);
}

TEST(SpanExportTest, EmptyTracerProducesValidSkeleton) {
  SpanTracer tracer;
  tracer.Enable();
  std::string json = ExportSpanChromeTrace(tracer, nullptr);
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\n]}\n"), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_TRUE(JsonChecker(json).Valid());
}

}  // namespace
}  // namespace imax432
