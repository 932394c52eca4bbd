// LineFramer: the one request framer of the stdio and socket
// transports.  Every stream below must frame the same whether it is fed
// whole, cut into two chunks at any point, or fed byte by byte, and the
// events must match a naive reference (split on '\n', strip one '\r',
// drop blank lines, classify by size).  The last case runs one raw byte
// stream through serve_stream and through a socket connection written
// in 1-, 7- and 4096-byte chunks and compares the transcripts.
#include "service/line_framer.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "base/net.h"
#include "service/serve.h"
#include "service/socket_transport.h"
#include "service_test_util.h"

namespace tfa::service {
namespace {

struct Event {
  std::string text;
  std::size_t oversized = 0;
  bool operator==(const Event&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Event& e) {
  if (e.oversized > 0) return os << "oversized(" << e.oversized << ")";
  return os << "line(\"" << e.text << "\")";
}

/// Frames `stream`, feeding it in consecutive chunks of `sizes` (the
/// remainder, if any, as one last chunk).
std::vector<Event> frame(std::string_view stream, std::size_t limit,
                         const std::vector<std::size_t>& sizes) {
  std::vector<Event> events;
  LineFramer framer(limit, [&](const FramedLine& l) {
    events.push_back({std::string(l.text), l.oversized});
  });
  std::size_t at = 0;
  for (const std::size_t n : sizes) {
    const std::size_t take = std::min(n, stream.size() - at);
    framer.feed(stream.data() + at, take);
    at += take;
  }
  framer.feed(stream.data() + at, stream.size() - at);
  framer.finish();
  return events;
}

/// The framing rules written the obvious way, on the whole stream.
std::vector<Event> reference(std::string_view stream, std::size_t limit) {
  std::vector<Event> events;
  for (;;) {
    const std::size_t nl = stream.find('\n');
    std::string_view line = stream.substr(0, nl);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.find_first_not_of(" \t\r") != std::string_view::npos) {
      if (line.size() > limit) {
        events.push_back({"", line.size()});
      } else {
        events.push_back({std::string(line), 0});
      }
    }
    if (nl == std::string_view::npos) break;
    stream.remove_prefix(nl + 1);
  }
  return events;
}

constexpr std::size_t kLimit = 8;

/// Streams covering every rule at kLimit.
std::vector<std::string> streams() {
  const std::string at_limit(kLimit, 'a');
  const std::string past_limit(kLimit + 1, 'b');
  const std::string huge(3 * kLimit + 5, 'x');
  return {
      "",
      "one\r\ntwo\r\n",                            // CRLF lines
      "\r\n\r\n \t \n\t\r\nkept\n\r",              // blank lines only
      at_limit + "\n" + at_limit + "\r\n",         // exactly the limit
      past_limit + "\n" + past_limit + "\r\nok\n",  // one byte past it
      huge + "\nafter\n",                          // oversized, then normal
      huge + "\r\nafter\r\n",                      // oversized CRLF line
      huge + "\r\r\n",                             // only one '\r' stripped
      "first\n" + huge,                            // oversized at EOF
      "first\n" + huge + "\r",                     // ... ending in '\r'
      std::string(3 * kLimit, ' ') + "\r\nnext\n",  // long blank line
      "mid\rdle\nlast",                            // inner '\r' kept
      "\n\n\n",
  };
}

TEST(LineFramer, MatchesTheReferenceForEveryChunking) {
  for (const std::string& s : streams()) {
    SCOPED_TRACE(testing::Message() << "stream \"" << s << "\"");
    const std::vector<Event> expected = reference(s, kLimit);
    EXPECT_EQ(frame(s, kLimit, {}), expected);
    EXPECT_EQ(frame(s, kLimit, std::vector<std::size_t>(s.size(), 1)),
              expected)
        << "byte by byte";
    for (std::size_t cut = 0; cut <= s.size(); ++cut)
      EXPECT_EQ(frame(s, kLimit, {cut}), expected) << "cut at " << cut;
  }
}

TEST(LineFramer, ReportsExactLengths) {
  const std::string huge(3 * kLimit + 5, 'x');
  EXPECT_EQ(frame("one\r\n\r\n  \ntwo", kLimit, {}),
            (std::vector<Event>{{"one", 0}, {"two", 0}}));
  EXPECT_EQ(frame(std::string(kLimit, 'a') + "\r\n", kLimit, {}),
            (std::vector<Event>{{std::string(kLimit, 'a'), 0}}));
  EXPECT_EQ(frame(std::string(kLimit + 1, 'b') + "\r\n", kLimit, {}),
            (std::vector<Event>{{"", kLimit + 1}}));
  EXPECT_EQ(frame(huge + "\r\nok", kLimit, {5, 9}),
            (std::vector<Event>{{"", huge.size()}, {"ok", 0}}));
  EXPECT_EQ(frame("a\n" + huge + "\r", kLimit, {}),
            (std::vector<Event>{{"a", 0}, {"", huge.size()}}));
}

TEST(LineFramer, NeverBuffersMoreThanTheLimitPlusOne) {
  for (const std::string& s : streams()) {
    LineFramer framer(kLimit, [](const FramedLine&) {});
    for (const char c : s) {
      framer.feed(&c, 1);
      EXPECT_LE(framer.buffered(), kLimit + 1) << "stream \"" << s << "\"";
    }
  }
}

TEST(LineFramer, TracksWhetherALineIsOpen) {
  std::vector<Event> events;
  LineFramer framer(kLimit, [&](const FramedLine& l) {
    events.push_back({std::string(l.text), l.oversized});
  });
  framer.feed("ab", 2);
  const std::string huge(2 * kLimit, 'x');
  framer.feed(huge.data(), huge.size());
  framer.feed("\n", 1);
  EXPECT_EQ(events, (std::vector<Event>{{"", 2 + huge.size()}}));
}

/// Raw bytes through serve_stream.  No telemetry: latency never reaches
/// the wire, so the bytes are comparable with the socket's.
std::string stdio_transcript(const std::string& stream, std::size_t limit) {
  ServiceConfig cfg;
  cfg.max_request_bytes = limit;
  Service svc(std::move(cfg));
  std::istringstream in(stream);
  std::ostringstream out;
  serve_stream(in, out, svc);
  return out.str();
}

/// Raw bytes written to a fresh unix-socket server in `chunk`-byte
/// writes, then half-closed; every response until the server closes.
std::string socket_transcript(const std::string& stream, std::size_t limit,
                              std::size_t chunk) {
  const std::string path = testing::TempDir() + "tfa_framer_test_" +
                           std::to_string(::getpid()) + ".sock";
  SocketServerConfig cfg;
  cfg.unix_path = path;
  cfg.executors = 1;
  cfg.service.max_request_bytes = limit;
  SocketServer server(std::move(cfg));
  std::string error;
  EXPECT_TRUE(server.start(&error)) << error;
  net::LineClient client(net::connect_unix(path, &error));
  EXPECT_TRUE(client.connected()) << error;
  for (std::size_t at = 0; at < stream.size(); at += chunk)
    EXPECT_TRUE(client.send_raw(std::string_view(stream).substr(at, chunk)));
  client.half_close();
  std::string out;
  while (const auto r = client.read_line()) {
    out += *r;
    out += '\n';
  }
  server.stop();
  std::remove(path.c_str());
  return out;
}

TEST(TransportParity, RawStreamFramesIdenticallyOverStdioAndSocket) {
  constexpr std::size_t limit = 2048;
  const std::string oversized_line(5000, 'x');
  const std::string stream =
      load_line("p", paper_text()) + "\r\n" + "\r\n" + " \t \n" +
      analyze_line("p") + "\r\n" + oversized_line + "\n" +
      R"({"op":"snapshot","session":"p"})" + "\n" + oversized_line +
      "\r\n" + analyze_line("p", true) + "\n" + analyze_line("p");

  const std::string expected = stdio_transcript(stream, limit);
  const auto count = [&expected](std::string_view needle) {
    std::size_t n = 0;
    for (std::size_t at = expected.find(needle); at != std::string::npos;
         at = expected.find(needle, at + 1))
      ++n;
    return n;
  };
  EXPECT_EQ(count("\n"), 7u);
  EXPECT_EQ(count("\"ok\":false"), 2u);
  EXPECT_EQ(count("\"code\":\"oversized\""), 2u);
  EXPECT_NE(expected.find("request of 5000 bytes exceeds the 2048-byte"),
            std::string::npos)
      << expected;
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{4096}})
    EXPECT_EQ(socket_transcript(stream, limit, chunk), expected)
        << "socket written in " << chunk << "-byte chunks";
}

}  // namespace
}  // namespace tfa::service
