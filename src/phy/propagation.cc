#include "src/phy/propagation.h"

#include <algorithm>

namespace g80211 {

double distance(const Position& a, const Position& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

double Propagation::rx_power_w(double d) const {
  d = std::max(d, 0.1);  // avoid the singularity at zero distance
  if (d <= kCrossoverM) {
    const double denom = 4.0 * kPi * d / kWavelengthM;
    return tx_power_w_ / (denom * denom);
  }
  constexpr double kH2 = kAntennaHeightM * kAntennaHeightM;
  return tx_power_w_ * kH2 * kH2 / (d * d * d * d);
}

}  // namespace g80211
