// Per-output-port tally of queued data bytes per (source, destination) flow
// — the incremental state behind the CFD module's contender selection
// (thesis §3.2.2, Fig. 3.13: notify the flows that contribute most to a
// congested output port).
//
// Network pushes every data packet that enters an output queue and pops it
// when it leaves, so selecting the top-k contributors reads the tally
// instead of rescanning the queue. Each entry also keeps its flow's queued
// packets as a FIFO linked through `Packet::next_in_flow` (the newest packet
// links back to the oldest) and the oldest one's enqueue sequence number,
// which places the flow's first packet in the queue. That reproduces the
// rescan's tie order exactly (see top()) without touching any packet.
//
// Entries live in one arena shared by all ports: fixed-size chunks that are
// never freed, plus a free list, so after warm-up push/pop/top never touch
// the allocator and memory tracks the peak number of live (port, flow)
// pairs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"

namespace prdrb {

class FlowLedger {
 public:
  /// A ledger for `ports` dense port indices. `first_seq` seeds the enqueue
  /// sequence counter (the counter wraps; ordering is wrap-safe).
  explicit FlowLedger(std::size_t ports = 0, std::uint32_t first_seq = 0);

  /// Record data packet `p` entering port `port`'s queue: stamps
  /// `p.queue_seq` and appends `p` to its flow's FIFO. ACKs are ignored.
  void push(int port, Packet& p);

  /// Record the departure of `p`, which must be the oldest queued packet of
  /// its flow at `port` (the queue is FIFO). ACKs are ignored.
  void pop(int port, const Packet& p);

  /// The (at most) `k` flows with the most bytes queued at `port`, counting
  /// the departing data packet `head` as well, largest first. `head` must
  /// have been pushed to `port` before every packet still queued there.
  /// Ties go to `head`'s flow, then to the flow whose oldest queued packet
  /// is nearest the queue front — the order a stable sort of a front-to-back
  /// scan of {head, queue...} by bytes produces.
  void top(int port, const Packet& head, int k,
           std::vector<ContendingFlow>& out) const;

  /// Live (port, flow) entries across all ports.
  std::size_t live() const { return live_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  struct Entry {
    Packet* newest = nullptr;  // FIFO back; its next_in_flow is the front
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    std::int32_t bytes = 0;         // queued bytes of this flow at this port
    std::uint32_t oldest_seq = 0;   // queue_seq of the FIFO front
    std::uint32_t next = kNil;      // next entry of the port or free list
  };

  struct Ranked {
    std::int64_t bytes;
    std::uint32_t order;  // 0 for head's flow, else queue distance from head
    ContendingFlow flow;
  };

  Entry& at(std::uint32_t i) const {
    return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }
  std::uint32_t allocate();

  std::vector<std::uint32_t> heads_;  // per port: first entry, or kNil
  std::vector<std::unique_ptr<Entry[]>> chunks_;
  std::uint32_t used_ = 0;  // entries ever handed out of the chunks
  std::uint32_t free_ = kNil;
  std::size_t live_ = 0;
  std::uint32_t next_seq_;
  mutable std::vector<Ranked> ranked_;  // top() scratch: best k so far
};

}  // namespace prdrb
