#include "core/cfd.hpp"

#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/tracer.hpp"

namespace prdrb {

CongestionDetector::CongestionDetector(NotificationMode mode) : mode_(mode) {}

void CongestionDetector::on_transmit(Network& net, RouterId r, int port,
                                     Packet& head, SimTime wait,
                                     const std::deque<Packet*>& /*queue*/) {
  detect(net, r, port, head, wait, net.flow_ledger(),
         net.ledger_port(r, port));
}

void CongestionDetector::detect(Network& net, RouterId r, int port,
                                Packet& head, SimTime wait,
                                const FlowLedger& ledger, int ledger_port) {
  if (head.is_ack()) return;  // control traffic is not monitored
  const NetConfig& cfg = net.config();
  if (wait < cfg.router_contention_threshold_s) return;
  ++detections_;

  // The top contributors by queued bytes: the "average of occupation of
  // every unique source" heuristic of §3.2.2, realized as byte shares.
  ledger.top(ledger_port, head, cfg.max_contending_flows, flows_);
  if (tracer_) {
    tracer_->congestion_detected(r, port, wait,
                                 static_cast<int>(flows_.size()),
                                 net.simulator().now());
  }
  if (recorder_) {
    recorder_->record(obs::FlightRecorder::EventKind::kCongestion,
                      net.simulator().now(), r, port,
                      static_cast<std::int32_t>(flows_.size()), wait);
  }
  if (flows_.empty()) return;

  if (mode_ == NotificationMode::kDestinationBased) {
    // Fill the predictive header of the transiting packet; the destination
    // copies it into the ACK (§3.2.2).
    head.congested_router = r;
    for (const ContendingFlow& f : flows_) {
      if (append_flow(head.contending, f, cfg.max_contending_flows) ==
          FlowAppend::kCapped) {
        ++truncated_flows_;
        net.note_header_truncation();
      }
    }
    return;
  }

  // Router-based: early notification via predictive ACKs injected here
  // (GPA module). The P bit tells the destination the flows were already
  // reported, so its ACK carries only the latency (§3.4.2).
  head.predictive_bit = true;
  const SimTime now = net.simulator().now();
  for (const ContendingFlow& f : flows_) {
    const std::uint64_t k =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r)) << 32) |
        static_cast<std::uint32_t>(f.src);
    auto [it, inserted] = last_notify_.try_emplace(k, -1.0);
    if (!inserted && now - it->second < cooldown_) continue;
    it->second = now;

    Packet ack;
    ack.type = PacketType::kPredictiveAck;
    // The predictive ACK notifies the *source* of the contending flow; the
    // `source` field names the flow's destination so the receiver can map
    // the notification onto the right metapath.
    ack.source = f.dst;
    ack.destination = f.src;
    ack.size_bytes = cfg.ack_bytes;
    ack.reported_latency = wait;
    ack.congested_router = r;
    ack.contending.assign(flows_.begin(), flows_.end());
    net.inject_at_router(r, std::move(ack));
    ++predictive_acks_;
    if (tracer_) tracer_->predictive_ack(r, f.src, now);
    if (recorder_) {
      recorder_->record(obs::FlightRecorder::EventKind::kPredictiveAck, now,
                        r, f.src);
    }
  }
}

}  // namespace prdrb
