// The one-method surface admission proxies read: the applied STAP timeout
// vector.  A fleet NodeShard implements it; TrafficReplay (the proxy
// stand-in) reads it without depending on the fleet library.
#pragma once

#include <cstddef>

namespace stac::serve {

class TimeoutSource {
 public:
  virtual ~TimeoutSource() = default;

  /// Applied STAP timeout for workload `w` (relative to service time).
  /// Implementations must be lock-free and callable from any producer
  /// thread (a relaxed atomic read in practice).
  [[nodiscard]] virtual double timeout(std::size_t w) const = 0;
};

}  // namespace stac::serve
