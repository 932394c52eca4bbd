// Request framing shared by every byte-stream transport: serve_stream
// (stdio) and SocketServer (one framer per connection) push the bytes
// they read through a LineFramer and submit what comes out.  It has no
// clock and does no I/O, so the two transports split a byte stream into
// requests the same way by construction.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

namespace tfa::service {

/// One framing event: a request line to submit, or the length of a line
/// too long to buffer.
struct FramedLine {
  std::string_view text;      ///< The line, one trailing '\r' stripped.
  std::size_t oversized = 0;  ///< Non-zero: a line of this many bytes
                              ///< (trailing '\r' excluded) was discarded.
};

/// Splits a byte stream into newline-terminated request lines:
///
///   * at most `max_request_bytes + 1` bytes of a line are buffered (the
///     +1 absorbs a trailing '\r');
///   * one trailing '\r' is stripped;
///   * blank lines (only ' ', '\t', '\r') produce no event, so they
///     consume no sequence number;
///   * a line longer than `max_request_bytes` becomes one `oversized`
///     event carrying its exact length; past the buffer cap its bytes
///     are only counted, never stored;
///   * finish() delivers a final unterminated line.
///
/// Events reach the sink in input order and do not depend on how the
/// stream is cut into feed() chunks.
class LineFramer {
 public:
  /// Receives each event; `text` is valid only during the call, and the
  /// sink must not feed the framer.
  using Sink = std::function<void(const FramedLine&)>;

  LineFramer(std::size_t max_request_bytes, Sink sink);

  /// Consumes the next `n` bytes of the stream.
  void feed(const char* data, std::size_t n);

  /// Ends the stream: emits the unterminated last line, if any.
  void finish();

  /// Bytes held for the current line; never above max_request_bytes + 1.
  [[nodiscard]] std::size_t buffered() const noexcept { return line_.size(); }

 private:
  void emit(std::string_view line);
  void end_dropped();

  std::size_t limit_;
  Sink sink_;
  std::string line_;           ///< The current line, while it fits.
  std::size_t dropped_ = 0;    ///< Bytes of the oversized line (0: none).
  bool dropped_blank_ = true;  ///< Every one of them was blank.
  bool dropped_cr_ = false;    ///< The latest of them was '\r'.
};

}  // namespace tfa::service
