#include "service/loopback.h"

#include "base/contracts.h"

namespace tfa::service {

std::vector<std::string> Loopback::roundtrip(
    const std::vector<std::string>& lines) {
  for (const std::string& line : lines) service_.submit(line);
  std::vector<std::string> out;
  while (auto r = service_.next_response()) out.push_back(std::move(*r));
  return out;
}

std::string Loopback::request(std::string_view line) {
  std::vector<std::string> out = roundtrip({std::string(line)});
  TFA_ASSERT(out.size() == 1);
  return std::move(out.back());
}

}  // namespace tfa::service
