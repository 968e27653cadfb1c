#include "control/channel.hpp"

#include <algorithm>

namespace dejavu::control {

std::string ChannelStats::to_string() const {
  return "sent=" + std::to_string(sent) +
         " delivered=" + std::to_string(delivered) +
         " dropped=" + std::to_string(dropped) +
         " acks_dropped=" + std::to_string(acks_dropped) +
         " duplicated=" + std::to_string(duplicated) +
         " deferred=" + std::to_string(deferred) +
         " late=" + std::to_string(late_delivered) +
         " blackholed=" + std::to_string(blackholed) +
         " partitions=" + std::to_string(partitions);
}

Channel::Channel(sim::FaultPlan plan, Receiver receiver)
    : plan_(std::move(plan)), receiver_(std::move(receiver)) {}

void Channel::deliver_due(std::uint64_t now) {
  // Stable order: by due slot, ties by queue position — deterministic
  // regardless of how many faults piled up.
  std::stable_sort(deferred_.begin(), deferred_.end(),
                   [](const Deferred& a, const Deferred& b) {
                     return a.due < b.due;
                   });
  std::size_t i = 0;
  while (i < deferred_.size()) {
    if (deferred_[i].due > now) {
      ++i;
      continue;
    }
    // A late delivery's ack goes nowhere: the session that sent it has
    // long since timed out and re-sent under the same (eid, seq).
    receiver_(deferred_[i].msg);
    ++stats_.delivered;
    ++stats_.late_delivered;
    deferred_.erase(deferred_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

std::optional<AckMsg> Channel::exchange(const SessionMsg& msg) {
  const std::uint64_t index = next_index_++;
  ++stats_.sent;

  // Deferred (delayed/reordered) messages land first: they were in
  // flight before this send, so they arrive ahead of it.
  deliver_due(index);

  if (manual_partition_ > 0 || plan_partition_ > 0) {
    if (manual_partition_ > 0) {
      --manual_partition_;
    } else {
      --plan_partition_;
    }
    ++stats_.blackholed;
    return std::nullopt;
  }

  bool drop_request = false;
  bool drop_ack = false;
  std::uint32_t extra_copies = 0;
  std::uint32_t defer_slots = 0;
  for (const sim::FaultEvent* ev :
       plan_.channel_events(static_cast<std::uint32_t>(index))) {
    switch (ev->kind) {
      case sim::FaultKind::kChannelPartition:
        // This message is the first of the window.
        plan_partition_ += ev->count > 0 ? ev->count - 1 : 0;
        ++stats_.partitions;
        ++stats_.blackholed;
        return std::nullopt;
      case sim::FaultKind::kChannelDrop:
        (ev->on_ack ? drop_ack : drop_request) = true;
        break;
      case sim::FaultKind::kChannelDup:
        extra_copies += ev->count;
        break;
      case sim::FaultKind::kChannelDelay:
        defer_slots = std::max(defer_slots, ev->count + 1);
        break;
      case sim::FaultKind::kChannelReorder:
        // Swap past the successor: deliver after index+1's send.
        defer_slots = std::max<std::uint32_t>(defer_slots, 2);
        break;
      default:
        break;
    }
  }

  if (drop_request) {
    ++stats_.dropped;
    return std::nullopt;
  }
  if (defer_slots > 0) {
    ++stats_.deferred;
    deferred_.push_back({msg, index + defer_slots});
    return std::nullopt;
  }

  AckMsg ack = receiver_(msg);
  ++stats_.delivered;
  for (std::uint32_t i = 0; i < extra_copies; ++i) {
    receiver_(msg);  // duplicate deliveries; their acks are lost
    ++stats_.delivered;
    ++stats_.duplicated;
  }
  if (drop_ack) {
    ++stats_.acks_dropped;
    return std::nullopt;
  }
  return ack;
}

}  // namespace dejavu::control
