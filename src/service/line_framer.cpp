#include "service/line_framer.h"

#include <cstring>
#include <utility>

namespace tfa::service {

namespace {

bool blank(std::string_view s) noexcept {
  return s.find_first_not_of(" \t\r") == std::string_view::npos;
}

}  // namespace

LineFramer::LineFramer(std::size_t max_request_bytes, Sink sink)
    : limit_(max_request_bytes), sink_(std::move(sink)) {}

void LineFramer::feed(const char* data, std::size_t n) {
  const char* const end = data + n;
  while (data < end) {
    const auto* nl = static_cast<const char*>(
        std::memchr(data, '\n', static_cast<std::size_t>(end - data)));
    const std::string_view seg(
        data, static_cast<std::size_t>((nl != nullptr ? nl : end) - data));
    data = nl != nullptr ? nl + 1 : end;

    if (dropped_ == 0 && line_.size() + seg.size() <= limit_ + 1) {
      if (nl == nullptr) {
        line_.append(seg);
      } else if (line_.empty()) {
        emit(seg);  // The whole line is in this chunk: no copy.
      } else {
        line_.append(seg);
        emit(line_);
        line_.clear();
      }
      continue;
    }
    if (dropped_ == 0) {
      // The line just outgrew the buffer: from here on, only count.
      dropped_ = line_.size();
      dropped_blank_ = blank(line_);
      line_.clear();
    }
    dropped_ += seg.size();
    if (!seg.empty()) dropped_cr_ = seg.back() == '\r';
    dropped_blank_ = dropped_blank_ && blank(seg);
    if (nl != nullptr) end_dropped();
  }
}

void LineFramer::finish() {
  if (dropped_ > 0) {
    end_dropped();
  } else if (!line_.empty()) {
    emit(line_);
    line_.clear();
  }
}

void LineFramer::emit(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (blank(line)) return;
  if (line.size() > limit_) {
    sink_({{}, line.size()});
  } else {
    sink_({line, 0});
  }
}

void LineFramer::end_dropped() {
  if (!dropped_blank_) sink_({{}, dropped_ - (dropped_cr_ ? 1 : 0)});
  dropped_ = 0;
  dropped_blank_ = true;
  dropped_cr_ = false;
}

}  // namespace tfa::service
