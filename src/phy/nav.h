// Network Allocation Vector — virtual carrier sense.
//
// IEEE 802.11 update rule (faithfully implemented, since it is what NAV
// inflation exploits): on receiving a valid frame NOT addressed to this
// station, set NAV to the frame's Duration value iff the new expiry is
// later than the current one. Each radio's NAV lives in its channel entry
// (RxState, src/phy/channel.h), where the channel can record an overheard
// frame without calling into the MAC.
#pragma once

#include <algorithm>

#include "src/sim/time.h"

namespace g80211 {

class Nav {
 public:
  // Returns true if the NAV expiry moved (i.e. the update was applied).
  // Duration-0 frames (e.g. final ACKs) never set the NAV.
  bool update(Time now, Time duration) {
    if (duration <= 0) return false;
    const Time end = now + duration;
    if (end > expiry_) {
      expiry_ = end;
      return true;
    }
    return false;
  }

  bool busy(Time now) const { return expiry_ > now; }
  Time expiry() const { return expiry_; }
  void reset() { expiry_ = 0; }

 private:
  Time expiry_ = 0;
};

}  // namespace g80211
