#include "node/query.h"

#include <numeric>

namespace deco {

uint64_t ProtocolWindowLength(const WindowSpec& window) {
  if (window.type == WindowType::kSliding) {
    return std::gcd(window.length, window.slide);
  }
  return window.length;
}

}  // namespace deco
