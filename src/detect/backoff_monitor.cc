#include "src/detect/backoff_monitor.h"

#include <utility>

namespace g80211 {

void BackoffMonitor::attach(Mac& mac) {
  mac.set_channel_observer(
      [this, prev = mac.channel_observer()](bool busy) {
        if (prev) prev(busy);
        on_edge(busy);
      });
  auto prev_sniffer = std::move(mac.sniffer);
  mac.sniffer = [this, prev = std::move(prev_sniffer)](const Frame& f,
                                                       const RxInfo& info) {
    if (prev) prev(f, info);
    on_frame(f, info);
  };
}

void BackoffMonitor::on_edge(bool busy) {
  if (!busy) {
    idle_since_ = clock_.now();
  }
}

void BackoffMonitor::on_frame(const Frame& frame, const RxInfo& info) {
  if (info.corrupted || frame.ta < 0) return;
  if (frame.type != FrameType::kRts && frame.type != FrameType::kData) return;
  if (idle_since_ == kNever || info.start < idle_since_) return;

  // Idle gap preceding this transmission. SIFS responses (gap < DIFS) and
  // stale bookkeeping are ignored.
  const Time gap = info.start - idle_since_ - params_.difs;
  if (gap < 0) return;
  const double slots = static_cast<double>(gap) / static_cast<double>(params_.slot);
  if (slots > static_cast<double>(params_.cw_max)) return;

  if (static_cast<std::size_t>(frame.ta) >= profiles_.size()) {
    profiles_.resize(static_cast<std::size_t>(frame.ta) + 1);
  }
  auto& p = profiles_[static_cast<std::size_t>(frame.ta)];
  if (p.ewma_slots < 0) {
    p.ewma_slots = slots;
  } else {
    p.ewma_slots += cfg_.ewma_alpha * (slots - p.ewma_slots);
  }
  if (p.n == 0) ++num_stations_;
  ++p.n;
  ++total_samples_;
}

const BackoffMonitor::Profile* BackoffMonitor::profile(int station) const {
  if (station < 0 || static_cast<std::size_t>(station) >= profiles_.size()) {
    return nullptr;
  }
  const Profile& p = profiles_[static_cast<std::size_t>(station)];
  return p.n > 0 ? &p : nullptr;
}

double BackoffMonitor::observed_backoff(int station) const {
  const Profile* p = profile(station);
  return p == nullptr ? -1.0 : p->ewma_slots;
}

std::int64_t BackoffMonitor::samples(int station) const {
  const Profile* p = profile(station);
  return p == nullptr ? 0 : p->n;
}

double BackoffMonitor::tx_share(int station) const {
  if (total_samples_ == 0) return 0.0;
  return static_cast<double>(samples(station)) /
         static_cast<double>(total_samples_);
}

bool BackoffMonitor::flagged(int station) const {
  const Profile* p = profile(station);
  if (p == nullptr || p->n < cfg_.min_samples) return false;
  const double nominal = static_cast<double>(params_.cw_min) / 2.0;
  if (p->ewma_slots >= cfg_.threshold_fraction * nominal) return false;
  const double fair = 1.0 / static_cast<double>(num_stations_);
  return tx_share(station) > cfg_.share_factor * fair;
}

std::vector<int> BackoffMonitor::cheaters() const {
  std::vector<int> out;
  for (std::size_t s = 0; s < profiles_.size(); ++s) {
    if (profiles_[s].n > 0 && flagged(static_cast<int>(s))) {
      out.push_back(static_cast<int>(s));
    }
  }
  return out;
}

std::vector<int> BackoffMonitor::stations() const {
  std::vector<int> out;
  for (std::size_t s = 0; s < profiles_.size(); ++s) {
    if (profiles_[s].n > 0) out.push_back(static_cast<int>(s));
  }
  return out;
}

}  // namespace g80211
