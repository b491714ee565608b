// Radio propagation: two-ray ground reflection with a Friis near field,
// as in ns-2. Produces received signal strength (watts) used for capture
// decisions and RSSI-based detection.
//
// Parameters are set through the setters so the Friis/two-ray crossover
// distance — formerly recomputed from scratch on every rx_power_w call —
// can live in a cached member refreshed only on parameter change. Each
// change also bumps a generation counter, which the channel's link-state
// cache (see channel.h) watches to invalidate precomputed rx powers.
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
  // ns-2 defaults for a 914 MHz WaveLAN-like radio.
  Propagation() { recompute(); }

  double tx_power_w() const { return tx_power_w_; }
  double gain_tx() const { return gain_tx_; }
  double gain_rx() const { return gain_rx_; }
  double antenna_height_m() const { return antenna_height_m_; }
  double wavelength_m() const { return wavelength_m_; }

  void set_tx_power_w(double w) { tx_power_w_ = w; recompute(); }
  void set_gains(double tx, double rx) { gain_tx_ = tx; gain_rx_ = rx; recompute(); }
  void set_antenna_height_m(double h) { antenna_height_m_ = h; recompute(); }
  void set_wavelength_m(double l) { wavelength_m_ = l; recompute(); }

  // Bumped on every parameter change; cached derived quantities elsewhere
  // (the channel's link tables) compare against it.
  std::uint64_t generation() const { return generation_; }

  // Received power in watts at distance d (meters).
  // Friis below the crossover distance, two-ray ground beyond it.
  double rx_power_w(double d) const;
  // Crossover distance between the Friis and two-ray regimes (cached).
  double crossover_m() const { return crossover_m_; }

 private:
  void recompute();

  double tx_power_w_ = 0.28183815;
  double gain_tx_ = 1.0;
  double gain_rx_ = 1.0;
  double antenna_height_m_ = 1.5;
  double wavelength_m_ = 0.328227;  // c / 914 MHz
  double crossover_m_ = 0.0;
  std::uint64_t generation_ = 0;
};

inline double watts_to_dbm(double w) { return 10.0 * std::log10(w * 1000.0); }
inline double dbm_to_watts(double dbm) { return std::pow(10.0, dbm / 10.0) / 1000.0; }
inline double ratio_to_db(double r) { return 10.0 * std::log10(r); }

}  // namespace g80211
