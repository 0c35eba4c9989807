#include "capture/sample.h"

#include <algorithm>
#include <cmath>

namespace tamper::capture {

void ConnectionSample::log(const ObservedPacket& pkt,
                           std::span<const std::uint8_t> payload) {
  const bool first_syn =
      pkt.is_syn() && std::none_of(packets.begin(), packets.end(),
                                   [](const ObservedPacket& p) { return p.is_syn(); });
  if (!packets.push_back(pkt) || payload.empty()) return;
  if (pkt.is_data() && data_payload.empty())
    data_payload.assign(payload.begin(), payload.end());
  else if (first_syn)
    syn_payload.assign(payload.begin(), payload.end());
}

ObservedPacket observe(const net::PacketView& pkt, double time_scale) {
  ObservedPacket out;
  out.ts_sec = static_cast<std::int64_t>(std::floor(pkt.timestamp * time_scale));
  out.flags = pkt.tcp.flags;
  out.seq = pkt.tcp.seq;
  out.ack = pkt.tcp.ack;
  out.window = pkt.tcp.window;
  out.ttl = pkt.ip.ttl;
  out.ip_id = pkt.ip.ip_id;
  out.has_tcp_options = pkt.has_tcp_options;
  out.payload_len = static_cast<std::uint16_t>(pkt.payload.size());
  return out;
}

}  // namespace tamper::capture
