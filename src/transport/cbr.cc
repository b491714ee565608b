#include "src/transport/cbr.h"

#include <utility>

#include "src/net/node.h"
#include "src/sim/check.h"


namespace g80211 {

CbrSource::CbrSource(Scheduler& sched, Config cfg, int flow_id, int src_node,
                     int dst_node, Rng rng)
    : sched_(&sched),
      cfg_(cfg),
      flow_id_(flow_id),
      src_node_(src_node),
      dst_node_(dst_node),
      rng_(rng),
      timer_(sched, [this] { emit(); }) {
  G80211_CHECK(cfg_.rate_mbps > 0.0);
  interval_ = tx_time(8 * static_cast<std::int64_t>(cfg_.payload_bytes),
                      cfg_.rate_mbps);
}

CbrSource::~CbrSource() {
  if (queue_ != nullptr) queue_->release(*this);
}

void CbrSource::feed(Node& node) {
  leave_queue();
  output_ = [&node](PacketPtr p) { node.send_packet(std::move(p)); };
  queue_ = &node.mac().queue();
}

void CbrSource::send_to(std::function<void(PacketPtr)> out) {
  leave_queue();
  output_ = std::move(out);
  queue_ = nullptr;
}

void CbrSource::leave_queue() {
  if (queue_ == nullptr) return;
  const bool was_asleep = asleep();
  queue_->release(*this);
  // A woken source's tick is already scheduled; a sleeper resumes ticking.
  if (was_asleep && next_tick_ != kNever) timer_.start_at(next_tick_);
}

void CbrSource::start(Time at) {
  // Restartable: on/off session controllers (web bursts, churn) stop and
  // later restart one source, so a start clears any previous stop mark.
  // A sleeper first replays its ticks up to now under the old stop mark.
  if (queue_ != nullptr) queue_->release(*this);
  stop_at_ = kNever;
  timer_.start_at(at);
}

void CbrSource::stop(Time at) {
  // Ticks up to now ran under the old mark: a sleeper replays them first.
  if (queue_ != nullptr) queue_->settle(*this);
  stop_at_ = at;
}

std::int64_t CbrSource::generated() const {
  return asleep() ? generated_ + elapsed_ticks() : generated_;
}

Time CbrSource::draw_gap(Rng& rng) const {
  if (cfg_.jitter <= 0.0) return interval_;
  const double factor = 1.0 + cfg_.jitter * (2.0 * rng.uniform() - 1.0);
  return static_cast<Time>(static_cast<double>(interval_) * factor);
}

void CbrSource::emit() {
  const Time now = sched_->now();
  if (woken()) queue_->woke(*this, now < stop_at_);
  if (now >= stop_at_) return;
  auto p = make_packet();
  p->flow_id = flow_id_;
  p->uid = next_uid_++;
  p->seq = generated_++;
  p->size_bytes = cfg_.payload_bytes + cfg_.header_bytes;
  p->src_node = src_node_;
  p->dst_node = dst_node_;
  p->created = now;
  if (output_) output_(std::move(p));
  next_tick_ = now + draw_gap(rng_);
  // Until a slot opens, every tick would only be a drop: sleep instead.
  if (queue_ != nullptr && queue_->full()) {
    queue_->sleep(*this);
  } else {
    timer_.start_at(next_tick_);
  }
}

std::int64_t CbrSource::replay(Time& tick, Rng& rng) const {
  std::int64_t n = 0;
  while (sched_->elapsed(tick) && tick < stop_at_) {
    ++n;
    tick += draw_gap(rng);
  }
  return n;
}

// Each replayed tick is what a tick into the full queue did: one uid, one
// seq, one jitter draw (the queue counts the drop).
std::int64_t CbrSource::catch_up() {
  const std::int64_t n = replay(next_tick_, rng_);
  generated_ += n;
  next_uid_ += static_cast<std::uint64_t>(n);
  // Stopped at an elapsed tick at or past stop_at_: the chain ended there.
  if (sched_->elapsed(next_tick_)) next_tick_ = kNever;
  return n;
}

std::int64_t CbrSource::elapsed_ticks() const {
  Time tick = next_tick_;
  Rng rng = rng_;
  return replay(tick, rng);
}

void CbrSource::wake() { timer_.start_at(next_tick_); }

}  // namespace g80211
