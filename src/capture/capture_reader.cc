#include "src/capture/capture_reader.h"

#include "src/capture/capture_stream.h"

namespace g80211 {

namespace {

// One-shot read: the stream reader's framing run to the end of the input,
// then the completeness checks a finished stream must pass.
Capture read_whole(CaptureStreamReader&& reader) {
  Capture cap;
  while (reader.poll(cap.frames) > 0) {
  }
  reader.check_complete();
  cap.owner = reader.owner();
  cap.params = reader.params();
  cap.has_params = reader.has_params();
  cap.end_time = reader.end_time();
  cap.skipped_unknown = reader.skipped_unknown();
  cap.first_skipped_offset = reader.first_skipped_offset();
  return cap;
}

}  // namespace

Capture parse_pcap(const std::vector<std::uint8_t>& bytes) {
  return read_whole(CaptureStreamReader(bytes, CaptureFormat::kPcap));
}

Capture parse_jsonl(const std::string& text) {
  return read_whole(CaptureStreamReader(
      std::vector<std::uint8_t>(text.begin(), text.end()),
      CaptureFormat::kJsonl));
}

Capture read_pcap(const std::string& path) {
  return read_whole(CaptureStreamReader(path, CaptureFormat::kPcap));
}

Capture read_jsonl(const std::string& path) {
  return read_whole(CaptureStreamReader(path, CaptureFormat::kJsonl));
}

Capture read_capture(const std::string& path) {
  return read_whole(CaptureStreamReader(path));
}

}  // namespace g80211
