// g80211_monitor — streaming GRC detection over capture journals.
//
//   g80211_monitor [options] <capture.jsonl> [capture2.jsonl ...]
//
// Runs the full offline detector suite (NAV validation, ACK-spoof RSSI
// profiling, fake-ACK probes, DOMINO backoff, cross-layer TCP/MAC
// correlation) over one or more JSONL capture journals, each treated as
// an independent per-BSS stream sharded across a worker pool. Emits one
// JSONL record per closed verdict window and per alert on stdout, and a
// human-readable end-of-run summary per stream on stderr.
//
// Only JSONL journals are accepted: pcap drops the exact ticks, parameters
// and ground truth the detectors need, so a pcap input (including one
// handed to --follow) is rejected on its magic bytes with exit status 1.
//
// Options:
//   --follow          tail growing journals: poll, sleep when idle, exit
//                     when every journal's footer has been written
//   --window SECONDS  verdict window length (default 1.0)
//   --bss-shards N    worker shards; streams are pinned index % N
//                     (default 1; verdicts are identical for any N)
//   --quiet           suppress the stderr summary
//
// Exit status: 0 on success, 1 on malformed input or a truncated journal,
// 2 on usage errors (including a flag value that does not parse whole or
// is out of range).
#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "src/monitor/driver.h"
#include "src/monitor/report.h"
#include "tools/cli_flags.h"

using namespace g80211;

namespace {

constexpr const char* kTool = "g80211_monitor";

void print_stream_output(MonitorDriver& driver) {
  for (const StreamWindow& w : driver.drain_windows()) {
    std::printf("%s\n",
                window_jsonl(driver.status(static_cast<std::size_t>(w.stream)).path,
                             w.window)
                    .c_str());
  }
  for (const StreamAlert& a : driver.drain_alerts()) {
    std::printf("%s\n",
                alert_jsonl(driver.status(static_cast<std::size_t>(a.stream)).path,
                            a.alert)
                    .c_str());
  }
  std::fflush(stdout);
}

void print_summaries(MonitorDriver& driver) {
  for (std::size_t i = 0; i < driver.num_streams(); ++i) {
    const StreamStatus st = driver.status(i);
    std::fprintf(stderr, "stream %s\n", st.path.c_str());
    std::fprintf(stderr,
                 "  vantage station: %d   horizon: %.6f s   frames: %lld\n",
                 st.owner, to_seconds(st.end_time),
                 static_cast<long long>(st.frames));
    print_skip_stats(stderr, st.skipped_unknown, st.first_skipped_offset);
    print_replay_result(stderr, st.owner, driver.verdicts(i));
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: g80211_monitor [--follow] [--window SECONDS] "
               "[--bss-shards N] [--quiet] <capture.jsonl> [...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  MonitorOptions opts;
  bool follow = false;
  bool quiet = false;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      return usage();
    } else if (arg == "--follow") {
      follow = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--window") {
      if (++i >= argc) return usage();
      if (!cli::parse_seconds(kTool, "--window", argv[i], opts.config.window)) {
        return 2;
      }
    } else if (arg == "--bss-shards") {
      if (++i >= argc) return usage();
      if (!cli::parse_count(kTool, "--bss-shards", argv[i], opts.shards)) {
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage();

  try {
    MonitorDriver driver(opts, paths);
    if (follow) {
      // Tail loop: the sleep lives here, not in src/ (simulation code is
      // wall-clock-free; only the tool decides how eagerly to poll). A
      // pass reads about one block per journal, so output is printed once
      // the passes have caught up with every journal: a backlog's windows
      // and alerts come out as one time-ordered batch.
      for (;;) {
        if (driver.pass() > 0) continue;
        print_stream_output(driver);
        if (driver.finished()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      driver.finalize();
    } else {
      driver.drain();
    }
    print_stream_output(driver);
    if (!quiet) print_summaries(driver);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "g80211_monitor: %s\n", e.what());
    return 1;
  }
  return 0;
}
