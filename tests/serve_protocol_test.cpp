// Protocol robustness for the entk-serve wire layer: the strict JSON
// codec, request parsing, and the live socket listener under hostile
// input (malformed frames, oversized lines, truncated requests,
// mid-request disconnects). Everything here must fail CLEANLY — an
// error reply or a closed connection, never a crash or a wedged
// daemon — and the suite runs under the asan-ubsan preset in CI.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "serve/json.hpp"
#include "serve/listener.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace entk::serve {
namespace {

// ---------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------

TEST(ServeJson, RoundTripsTheProtocolShapes) {
  const std::string doc =
      R"({"verb":"SUBMIT","id":7,"ok":true,"none":null,)"
      R"("list":[1,2.5,-3],"nested":{"a":"b"}})";
  auto parsed = Json::parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const Json& json = parsed.value();
  ASSERT_TRUE(json.is_object());
  EXPECT_EQ(json.find("verb")->as_string(), "SUBMIT");
  EXPECT_EQ(json.find("id")->as_number(), 7.0);
  EXPECT_TRUE(json.find("ok")->as_bool());
  EXPECT_TRUE(json.find("none")->is_null());
  ASSERT_TRUE(json.find("list")->is_array());
  EXPECT_EQ(json.find("list")->items().size(), 3u);
  EXPECT_EQ(json.find("nested")->find("a")->as_string(), "b");
  // dump() -> parse() is the identity on the wire shapes.
  auto reparsed = Json::parse(json.dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().dump(), json.dump());
}

TEST(ServeJson, EscapesRoundTrip) {
  Json json = Json::object();
  json.set("s", Json::string("quote\" slash\\ tab\t nl\n nul\x01 end"));
  auto reparsed = Json::parse(json.dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
  EXPECT_EQ(reparsed.value().find("s")->as_string(),
            "quote\" slash\\ tab\t nl\n nul\x01 end");
}

TEST(ServeJson, EveryTruncationPrefixOfAValidFrameIsRejected) {
  // A balanced object only becomes valid at its final byte, so every
  // proper prefix must be an error — this is exactly the truncated
  // frame a dying client leaves behind.
  const std::string doc =
      R"({"verb":"STATUS","id":12,"x":[true,null,{"u":"\u0041\ud83d\ude00"}],)"
      R"("n":-1.5e3,"s":"tail"})";
  ASSERT_TRUE(Json::parse(doc).ok());
  for (std::size_t len = 0; len < doc.size(); ++len) {
    EXPECT_FALSE(Json::parse(doc.substr(0, len)).ok())
        << "prefix of length " << len << " parsed";
  }
}

TEST(ServeJson, EveryBitFlipOfAValidFrameIsRejectedOrAnswered) {
  // A corrupted frame of each verb: every single-bit flip is either
  // refused by the decoder or answered by the service with a reply
  // that is itself valid JSON. A fresh service per verb, so a flipped
  // SHUTDOWN or a filled queue only affects its own verb's sweep.
  const std::string frames[] = {
      R"({"verb":"SUBMIT","tenant":"alice","name":"sweep",)"
      R"("workload":"backend = sim\nmachine = localhost\ncores = 2\n)"
      R"(pattern = bag\nsimulations = 2\n\n[task]\n)"
      R"(kernel = misc.sleep\nduration = 1\n"})",
      R"({"verb":"STATUS","id":1})",
      R"({"verb":"CANCEL","id":1})",
      R"({"verb":"RESULTS","id":1})",
      R"({"verb":"STATS"})",
      R"({"verb":"SHUTDOWN"})",
  };
  std::size_t answered = 0;
  for (const std::string& frame : frames) {
    ASSERT_TRUE(parse_request(frame).ok()) << frame;
    auto created = Service::create(ServiceConfig{});
    ASSERT_TRUE(created.ok());
    Service& service = *created.value();
    // One workload to answer STATUS, CANCEL and RESULTS about.
    ASSERT_TRUE(Json::parse(service.handle_line(frames[0])).ok());
    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
      std::string flipped = frame;
      flipped[bit / 8] =
          static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      if (!parse_request(flipped).ok()) continue;
      ++answered;
      const std::string reply = service.handle_line(flipped);
      EXPECT_TRUE(Json::parse(reply).ok())
          << "bit " << bit << " of " << frame << " -> " << reply;
    }
  }
  // Flips inside ids, names and the workload text still decode.
  EXPECT_GT(answered, 0u);
}

TEST(ServeJson, DepthBombIsRejectedWithoutRecursionBlowup) {
  std::string bomb(100000, '[');
  EXPECT_FALSE(Json::parse(bomb).ok());
  // A balanced one too: the cap, not the imbalance, must trip first.
  std::string balanced = std::string(64, '[') + std::string(64, ']');
  EXPECT_FALSE(Json::parse(balanced, 16).ok());
  std::string shallow = std::string(8, '[') + std::string(8, ']');
  EXPECT_TRUE(Json::parse(shallow, 16).ok());
}

TEST(ServeJson, MalformedInputsAreRejected) {
  const char* bad[] = {
      "",          "   ",        "{",         "}",        "[1,]",
      "{\"a\":}",  "{\"a\"1}",   "{'a':1}",   "01",       "1.",
      "+1",        "1e",         "-",         "tru",      "nul",
      "\"\\x\"",   "\"\\u12\"",  "\"\\ud800\"",           // lone surrogate
      "\"\tab\"",                                         // bare control char
      "{} trailing",             "{}{}",      "\"open",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(Json::parse(text).ok()) << "accepted: " << text;
  }
}

TEST(ServeJson, NumbersSerializeIntegrallyWhenIntegral) {
  EXPECT_EQ(Json::number(7).dump(), "7");
  EXPECT_EQ(Json::number(-3).dump(), "-3");
  EXPECT_NE(Json::number(2.5).dump().find('.'), std::string::npos);
}

// ---------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------

TEST(ServeProtocol, ParsesEveryVerb) {
  auto submit = parse_request(
      R"({"verb":"SUBMIT","tenant":"alice","workload":"pattern = bag","name":"opt"})");
  ASSERT_TRUE(submit.ok()) << submit.status().to_string();
  EXPECT_EQ(submit.value().verb, Verb::kSubmit);
  EXPECT_EQ(submit.value().tenant, "alice");
  EXPECT_EQ(submit.value().workload, "pattern = bag");
  EXPECT_EQ(submit.value().name, "opt");

  auto status = parse_request(R"({"verb":"STATUS","id":7})");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().verb, Verb::kStatus);
  EXPECT_EQ(status.value().id, 7u);

  EXPECT_EQ(parse_request(R"({"verb":"CANCEL","id":1})").value().verb,
            Verb::kCancel);
  EXPECT_EQ(parse_request(R"({"verb":"RESULTS","id":1})").value().verb,
            Verb::kResults);
  EXPECT_EQ(parse_request(R"({"verb":"STATS"})").value().verb,
            Verb::kStats);
  EXPECT_EQ(parse_request(R"({"verb":"SHUTDOWN"})").value().verb,
            Verb::kShutdown);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  const char* bad[] = {
      "not json at all",
      "[]",                                   // not an object
      "42",
      R"({"id":7})",                          // no verb
      R"({"verb":"FROBNICATE"})",             // unknown verb
      R"({"verb":7})",                        // verb not a string
      R"({"verb":"SUBMIT"})",                 // SUBMIT without tenant
      R"({"verb":"SUBMIT","tenant":"a"})",    // ... without workload
      R"({"verb":"SUBMIT","tenant":"","workload":"x"})",
      R"({"verb":"SUBMIT","tenant":"a","workload":""})",
      R"({"verb":"STATUS"})",                 // id required
      R"({"verb":"STATUS","id":0})",          // ids are positive
      R"({"verb":"STATUS","id":-1})",
      R"({"verb":"STATUS","id":1.5})",        // and integral
      R"({"verb":"STATUS","id":"7"})",        // and numbers
      R"({"verb":"STATUS","id":1e16})",       // and bounded
  };
  for (const char* line : bad) {
    auto parsed = parse_request(line);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << line;
    if (!parsed.ok()) {
      EXPECT_STREQ(error_code_for(parsed.status()), "BAD_REQUEST");
    }
  }
}

TEST(ServeProtocol, ErrorCodesMapFromStatus) {
  EXPECT_STREQ(error_code_for(make_error(Errc::kInvalidArgument, "x")),
               "BAD_REQUEST");
  EXPECT_STREQ(error_code_for(make_error(Errc::kResourceExhausted, "x")),
               "REJECTED");
  EXPECT_STREQ(error_code_for(make_error(Errc::kFailedPrecondition, "x")),
               "QUOTA");
  EXPECT_STREQ(error_code_for(make_error(Errc::kNotFound, "x")),
               "NOT_FOUND");
  EXPECT_STREQ(error_code_for(make_error(Errc::kCancelled, "x")),
               "UNAVAILABLE");
  EXPECT_STREQ(error_code_for(make_error(Errc::kInternal, "x")),
               "INTERNAL");
}

TEST(ServeProtocol, RepliesAreSingleLineJson) {
  const std::string error = error_reply("BAD_REQUEST", "why\nnot");
  EXPECT_EQ(error.find('\n'), std::string::npos);
  auto parsed = Json::parse(error);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().find("ok")->as_bool());
  EXPECT_EQ(parsed.value().find("error")->as_string(), "BAD_REQUEST");

  Json body = Json::object();
  body.set("id", Json::number(7));
  const std::string ok = ok_reply(std::move(body));
  auto ok_parsed = Json::parse(ok);
  ASSERT_TRUE(ok_parsed.ok());
  EXPECT_TRUE(ok_parsed.value().find("ok")->as_bool());
  EXPECT_EQ(ok_parsed.value().members().front().first, "ok");
}

// ---------------------------------------------------------------------
// Live listener under hostile clients
// ---------------------------------------------------------------------

/// A blocking line-protocol client on a raw TCP socket.
class RawClient {
 public:
  explicit RawClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawClient() { close(); }
  bool connected() const { return connected_; }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool send_raw(std::string_view bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads until '\n' or EOF; returns the line without the newline.
  std::string read_line() {
    std::string line;
    char byte = 0;
    while (true) {
      const ssize_t n = ::recv(fd_, &byte, 1, 0);
      if (n <= 0) break;  // EOF / error: return what we have
      if (byte == '\n') break;
      line.push_back(byte);
    }
    return line;
  }

  /// True when the server closed its end (EOF on a blocking read).
  bool at_eof() {
    char byte = 0;
    return ::recv(fd_, &byte, 1, 0) <= 0;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

class ServeListenerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceConfig config;
    auto service = Service::create(config);
    ASSERT_TRUE(service.ok()) << service.status().to_string();
    service_ = service.take();
    Listener::Options options;
    options.tcp_port = 0;  // ephemeral
    auto listener = Listener::start(*service_, options);
    ASSERT_TRUE(listener.ok()) << listener.status().to_string();
    listener_ = listener.take();
    ASSERT_GT(listener_->tcp_port(), 0);
  }

  void TearDown() override {
    if (listener_ != nullptr) listener_->stop();
  }

  /// The liveness probe: a fresh connection must still get a STATS
  /// reply after whatever abuse the test inflicted.
  void expect_still_serving() {
    RawClient client(listener_->tcp_port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_raw("{\"verb\":\"STATS\"}\n"));
    auto parsed = Json::parse(client.read_line());
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(parsed.value().find("ok")->as_bool());
  }

  std::unique_ptr<Service> service_;
  std::unique_ptr<Listener> listener_;
};

TEST_F(ServeListenerTest, MalformedJsonGetsBadRequestNotDisconnect) {
  RawClient client(listener_->tcp_port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_raw("this is not json\n"));
  auto reply = Json::parse(client.read_line());
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply.value().find("ok")->as_bool());
  EXPECT_EQ(reply.value().find("error")->as_string(), "BAD_REQUEST");
  // The connection survives a bad frame: the next request works.
  ASSERT_TRUE(client.send_raw("{\"verb\":\"STATS\"}\n"));
  auto stats = Json::parse(client.read_line());
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.value().find("ok")->as_bool());
}

TEST_F(ServeListenerTest, UnknownVerbGetsBadRequest) {
  RawClient client(listener_->tcp_port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_raw("{\"verb\":\"LAUNCH_MISSILES\"}\n"));
  auto reply = Json::parse(client.read_line());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().find("error")->as_string(), "BAD_REQUEST");
}

TEST_F(ServeListenerTest, OversizedLineIsShedWithReplyAndClose) {
  RawClient client(listener_->tcp_port());
  ASSERT_TRUE(client.connected());
  // One frame over the cap, no newline needed — the listener must
  // shed as soon as the buffer exceeds the bound.
  std::string huge(kMaxLineBytes + 100, 'x');
  client.send_raw(huge);  // may fail mid-send when the server closes
  const std::string reply_line = client.read_line();
  if (!reply_line.empty()) {
    auto reply = Json::parse(reply_line);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().find("error")->as_string(), "BAD_REQUEST");
  }
  EXPECT_TRUE(client.at_eof());
  expect_still_serving();
}

TEST_F(ServeListenerTest, TruncatedFrameThenDisconnectIsClean) {
  {
    RawClient client(listener_->tcp_port());
    ASSERT_TRUE(client.connected());
    // Half a request, no newline, then vanish.
    ASSERT_TRUE(client.send_raw("{\"verb\":\"SUB"));
    client.close();
  }
  expect_still_serving();
}

TEST_F(ServeListenerTest, DisconnectBetweenFramesIsClean) {
  {
    RawClient client(listener_->tcp_port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_raw("{\"verb\":\"STATS\"}\n"));
    (void)client.read_line();
    client.close();  // clean close after a complete exchange
  }
  expect_still_serving();
}

TEST_F(ServeListenerTest, BinaryGarbageGetsErrorsNotCrashes) {
  RawClient client(listener_->tcp_port());
  ASSERT_TRUE(client.connected());
  std::string garbage;
  for (int i = 0; i < 256; ++i) {
    garbage.push_back(static_cast<char>(i == '\n' ? 0 : i));
  }
  garbage.push_back('\n');
  ASSERT_TRUE(client.send_raw(garbage));
  auto reply = Json::parse(client.read_line());
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply.value().find("ok")->as_bool());
  expect_still_serving();
}

TEST_F(ServeListenerTest, ManyFramesOnOneConnection) {
  RawClient client(listener_->tcp_port());
  ASSERT_TRUE(client.connected());
  // Pipelined: several requests in one write; replies come back in
  // order, one line each.
  std::string batch;
  for (int i = 0; i < 8; ++i) batch += "{\"verb\":\"STATS\"}\n";
  ASSERT_TRUE(client.send_raw(batch));
  for (int i = 0; i < 8; ++i) {
    auto reply = Json::parse(client.read_line());
    ASSERT_TRUE(reply.ok()) << "frame " << i;
    EXPECT_TRUE(reply.value().find("ok")->as_bool());
  }
}

TEST_F(ServeListenerTest, CarriageReturnLineEndingsAccepted) {
  RawClient client(listener_->tcp_port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_raw("{\"verb\":\"STATS\"}\r\n"));
  auto reply = Json::parse(client.read_line());
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().find("ok")->as_bool());
}

}  // namespace
}  // namespace entk::serve
