#include "service/serve.h"

#include <istream>
#include <ostream>

#include "service/line_framer.h"

namespace tfa::service {

namespace {

void drain(std::ostream& out, Service& service) {
  bool wrote = false;
  while (auto r = service.next_response()) {
    out << *r << '\n';
    wrote = true;
  }
  if (wrote) out.flush();
}

/// Reads what `in` has buffered, up to `cap` bytes, blocking for one
/// byte when it has nothing buffered.  Returns 0 at EOF.
std::size_t read_chunk(std::istream& in, char* buf, std::size_t cap) {
  const auto want = static_cast<std::streamsize>(cap);
  if (const std::streamsize n = in.readsome(buf, want); n > 0)
    return static_cast<std::size_t>(n);
  if (!in.get(buf[0])) return 0;
  return 1 + static_cast<std::size_t>(in.readsome(buf + 1, want - 1));
}

}  // namespace

ServeResult serve_stream(std::istream& in, std::ostream& out,
                         Service& service) {
  ServeResult result;
  LineFramer framer(service.config().max_request_bytes,
                    [&](const FramedLine& l) {
                      if (l.oversized > 0) {
                        service.submit_oversized(l.oversized);
                      } else {
                        service.submit(l.text);
                      }
                      ++result.requests;
                    });
  char buf[16384];
  while (const std::size_t n = read_chunk(in, buf, sizeof buf)) {
    framer.feed(buf, n);
    drain(out, service);
  }
  framer.finish();
  drain(out, service);
  result.shutdown = service.draining();
  return result;
}

}  // namespace tfa::service
