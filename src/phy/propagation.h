// Radio propagation: two-ray ground reflection with a Friis near field,
// as in ns-2. Produces received signal strength (watts) used for capture
// decisions and RSSI-based detection.
//
// The radio is ns-2's 914 MHz WaveLAN-like default: unity antenna gains
// and 1.5 m antennas, so the Friis/two-ray crossover distance is a
// constant. The transmit power is the one parameter that can change; each
// change bumps a generation counter, which the channel's link-state cache
// (see channel.h) watches to invalidate precomputed rx powers.
#pragma once

#include <cmath>
#include <cstdint>

namespace g80211 {

struct Position {
  double x = 0.0;
  double y = 0.0;

  bool operator==(const Position&) const = default;
};

double distance(const Position& a, const Position& b);

class Propagation {
 public:
  double tx_power_w() const { return tx_power_w_; }
  void set_tx_power_w(double w) {
    tx_power_w_ = w;
    ++generation_;
  }

  // Bumped on every transmit-power change; cached derived quantities
  // elsewhere (the channel's link tables) compare against it. Starts at 1,
  // so a zero-stamped cache entry is always stale.
  std::uint64_t generation() const { return generation_; }

  // Received power in watts at distance d (meters).
  // Friis below the crossover distance, two-ray ground beyond it.
  double rx_power_w(double d) const;
  // Crossover distance between the Friis and two-ray regimes.
  double crossover_m() const { return kCrossoverM; }

 private:
  static constexpr double kPi = 3.14159265358979323846;
  static constexpr double kAntennaHeightM = 1.5;
  static constexpr double kWavelengthM = 0.328227;  // c / 914 MHz
  static constexpr double kCrossoverM =
      4.0 * kPi * kAntennaHeightM * kAntennaHeightM / kWavelengthM;

  double tx_power_w_ = 0.28183815;
  std::uint64_t generation_ = 1;
};

inline double watts_to_dbm(double w) { return 10.0 * std::log10(w * 1000.0); }
inline double dbm_to_watts(double dbm) { return std::pow(10.0, dbm / 10.0) / 1000.0; }
inline double ratio_to_db(double r) { return 10.0 * std::log10(r); }

}  // namespace g80211
