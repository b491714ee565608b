// Table III: bit error rate and the corresponding frame error rate for
// each frame type, from the calibrated analytic error model
// (FER = 1-(1-BER)^L with L = 38/44/112/1136; see src/phy/error_model.h).
#include <cstdio>

#include "bench/common.h"
#include "src/analysis/fer.h"

using namespace g80211;
using namespace g80211::bench;

int main() {
  std::printf("Table III: BER and the corresponding FER\n");
  std::printf("%10s %12s %12s %12s %12s\n", "BER", "ACK/CTS", "RTS", "TCP ACK",
              "TCP Data");
  for (const FerRow& row : table3()) {
    std::printf("%10.2e %12.3e %12.3e %12.3e %12.3e\n", row.ber, row.ack_cts,
                row.rts, row.tcp_ack, row.tcp_data);
  }
  std::printf("\n");
  const FerRow last = table3_row(8e-4);
  print_headlines({{"tcp_data_fer_at_8e-4", last.tcp_data}});
}
