#include "net/flow_ledger.hpp"

#include <algorithm>
#include <cassert>

namespace prdrb {

FlowLedger::FlowLedger(std::size_t ports, std::uint32_t first_seq)
    : heads_(ports, kNil), next_seq_(first_seq) {}

std::uint32_t FlowLedger::allocate() {
  ++live_;
  if (free_ != kNil) {
    const std::uint32_t i = free_;
    free_ = at(i).next;
    return i;
  }
  if ((used_ & (kChunkSize - 1)) == 0) {
    chunks_.push_back(std::make_unique<Entry[]>(kChunkSize));
  }
  return used_++;
}

void FlowLedger::push(int port, Packet& p) {
  if (p.is_ack()) return;
  p.queue_seq = next_seq_++;
  std::uint32_t& head = heads_[static_cast<std::size_t>(port)];
  for (std::uint32_t i = head; i != kNil; i = at(i).next) {
    Entry& e = at(i);
    if (e.src == p.source && e.dst == p.destination) {
      p.next_in_flow = e.newest->next_in_flow;  // close the ring on the front
      e.newest->next_in_flow = &p;
      e.newest = &p;
      e.bytes += p.size_bytes;
      return;
    }
  }
  p.next_in_flow = &p;
  const std::uint32_t i = allocate();
  at(i) = Entry{&p, p.source, p.destination, p.size_bytes, p.queue_seq, head};
  head = i;
}

void FlowLedger::pop(int port, const Packet& p) {
  if (p.is_ack()) return;
  std::uint32_t* link = &heads_[static_cast<std::size_t>(port)];
  assert(*link != kNil && "popped packet was never pushed");
  while (at(*link).src != p.source || at(*link).dst != p.destination) {
    link = &at(*link).next;
    assert(*link != kNil && "popped packet was never pushed");
  }
  const std::uint32_t i = *link;
  Entry& e = at(i);
  assert(e.newest->next_in_flow == &p && "pop must take the flow's oldest");
  if (e.newest != &p) {
    Packet* front = p.next_in_flow;
    e.newest->next_in_flow = front;
    e.oldest_seq = front->queue_seq;
    e.bytes -= p.size_bytes;
    return;
  }
  *link = e.next;
  e.next = free_;
  free_ = i;
  --live_;
}

void FlowLedger::top(int port, const Packet& head, int k,
                     std::vector<ContendingFlow>& out) const {
  out.clear();
  if (k <= 0) return;
  // Largest first; ties by queue position. Orders are distinct, so this is
  // a strict total order and the pick is unique.
  const auto better = [](const Ranked& a, const Ranked& b) {
    return a.bytes != b.bytes ? a.bytes > b.bytes : a.order < b.order;
  };
  const auto limit = static_cast<std::size_t>(k);
  ranked_.clear();
  const auto offer = [&](const Ranked& r) {
    if (ranked_.size() == limit) {
      if (!better(r, ranked_.back())) return;
      ranked_.pop_back();
    }
    ranked_.insert(std::upper_bound(ranked_.begin(), ranked_.end(), r, better),
                   r);
  };

  const ContendingFlow head_flow{head.source, head.destination};
  bool head_seen = false;
  for (std::uint32_t i = heads_[static_cast<std::size_t>(port)]; i != kNil;
       i = at(i).next) {
    const Entry& e = at(i);
    if (e.src == head_flow.src && e.dst == head_flow.dst) {
      head_seen = true;
      offer(Ranked{std::int64_t{e.bytes} + head.size_bytes, 0, head_flow});
    } else {
      offer(Ranked{e.bytes, e.oldest_seq - head.queue_seq, {e.src, e.dst}});
    }
  }
  if (!head_seen) offer(Ranked{head.size_bytes, 0, head_flow});
  for (const Ranked& r : ranked_) out.push_back(r.flow);
}

}  // namespace prdrb
