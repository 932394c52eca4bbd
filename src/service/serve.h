// Stream transport: pump JSON-lines requests from an std::istream into a
// Service and its responses back out — what `tfa_tool serve` runs over
// stdin/stdout.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "service/service.h"

namespace tfa::service {

/// Outcome of one serve loop.
struct ServeResult {
  bool shutdown = false;       ///< A `shutdown` request was served.
  std::uint64_t requests = 0;  ///< Non-blank lines submitted.
};

/// Reads request lines from `in` until EOF, writing each response line
/// (newline-terminated) to `out`.  Requests are framed by LineFramer
/// (service/line_framer.h), the framer the socket transport uses too:
/// blank lines consume no sequence number, and a line longer than
/// ServiceConfig::max_request_bytes is answered with the `oversized`
/// error envelope without being buffered whole.  Every request is
/// answered as soon as its line is complete, so an interactive client
/// never waits on later input.  EOF after `shutdown` is the
/// graceful-drain exit; plain EOF drains the same way.
ServeResult serve_stream(std::istream& in, std::ostream& out,
                         Service& service);

}  // namespace tfa::service
