// In-process loopback transport: the service called as a library, with
// the same JSON-lines wire format as `tfa_tool serve`.  Tests and the
// proptest service-roundtrip invariant use it to prove that the wire
// path computes bit-identical bounds to a direct in-process analysis.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "service/service.h"

namespace tfa::service {

class Loopback {
 public:
  explicit Loopback(ServiceConfig cfg = {}, obs::Telemetry* telemetry = nullptr)
      : service_(std::move(cfg), telemetry) {}

  /// Submits every line and returns all completed responses in sequence
  /// order (one per submitted line, plus any that were still queued from
  /// earlier submits).
  std::vector<std::string> roundtrip(const std::vector<std::string>& lines);

  /// Single request/response convenience.  Call on an idle loopback (no
  /// unread responses); returns the response to `line`.
  std::string request(std::string_view line);

  [[nodiscard]] Service& service() noexcept { return service_; }

 private:
  Service service_;
};

}  // namespace tfa::service
