// Single-connection deep dive: a client behind a GFW-style censor requests
// a blocked domain over TLS. Prints the full bidirectional packet trace with
// ground truth, the server-side capture record, the classifier verdict, and
// the IP-ID/TTL injection evidence — then exports the server tap to a pcap
// file you can open in Wireshark.
//
//   ./examples/gfw_simulation [output.pcap]
#include <iostream>

#include "analysis/evidence.h"
#include "appproto/tls.h"
#include "capture/sample.h"
#include "core/classifier.h"
#include "middlebox/catalog.h"
#include "middlebox/middlebox.h"
#include "net/pcap.h"
#include "tcp/session.h"

using namespace tamper;

int main(int argc, char** argv) {
  const std::string pcap_path = argc > 1 ? argv[1] : "gfw_session.pcap";
  const std::string blocked_domain = "falconnews1234.org";

  // Client: an ordinary browser stack requesting the blocked domain.
  tcp::EndpointConfig client_cfg;
  client_cfg.addr = *net::IpAddress::parse("11.64.3.21");
  client_cfg.port = 51544;
  client_cfg.is_client = true;
  client_cfg.isn = 1'000'000;
  common::Rng payload_rng(2024);
  appproto::ClientHelloSpec hello;
  hello.sni = blocked_domain;
  client_cfg.request_segments = {appproto::build_client_hello(hello, payload_rng)};

  // Server: a CDN edge.
  tcp::EndpointConfig server_cfg;
  server_cfg.addr = *net::IpAddress::parse("198.18.0.44");
  server_cfg.port = 443;
  server_cfg.is_client = false;
  server_cfg.isn = 7'000'000;
  server_cfg.response_size = 4096;

  // The censor: GFW-style mixed RST/RST+ACK burst triggered on the SNI.
  tcp::SessionConfig session;
  session.start_time = common::from_civil(2023, 1, 17, 3, 12, 9);
  session.geometry.total_hops = 16;
  session.geometry.middlebox_hop = 4;
  middlebox::TriggerSet triggers;
  triggers.add_domain_suffix(blocked_domain);
  middlebox::Middlebox censor(middlebox::catalog::gfw_mixed_burst(), std::move(triggers),
                              session.geometry, common::Rng(7));

  tcp::TcpEndpoint client(client_cfg, common::Rng(1));
  tcp::TcpEndpoint server(server_cfg, common::Rng(2));
  client.set_peer(server_cfg.addr, server_cfg.port);
  server.set_peer(client_cfg.addr, client_cfg.port);
  common::Rng rng(3);
  const tcp::SessionResult result =
      tcp::simulate_session(client, server, &censor, session, rng);

  std::cout << "=== Full path trace (ground truth view) ===\n";
  for (const auto& traced : result.full_trace) {
    std::cout << (traced.dir == tcp::Direction::kClientToServer ? "  -> " : "  <- ")
              << traced.pkt.summary() << (traced.injected ? "   [INJECTED]" : "")
              << '\n';
  }
  std::cout << "\ncensor triggered: " << (censor.triggered() ? "yes" : "no")
            << ", on domain: " << censor.trigger_domain().value_or("-") << "\n\n";

  // The server-side tap: what the passive detector actually gets to see.
  capture::ConnectionSample sample;
  sample.client_ip = client_cfg.addr;
  sample.server_ip = server_cfg.addr;
  sample.client_port = client_cfg.port;
  sample.server_port = server_cfg.port;
  for (const auto& traced : result.server_inbound) {
    sample.log(capture::observe(traced.pkt), traced.pkt.payload);
  }
  sample.observation_end_sec = static_cast<std::int64_t>(result.end_time);

  std::cout << "=== Server-side capture (inbound only, 1 s timestamps) ===\n";
  for (const auto& pkt : sample.packets) {
    std::cout << "  t=" << pkt.ts_sec << "  " << net::flags_to_string(pkt.flags)
              << "  seq=" << pkt.seq << " ack=" << pkt.ack << " len=" << pkt.payload_len
              << " ttl=" << int(pkt.ttl) << " ipid=" << pkt.ip_id << '\n';
  }

  const core::Classification verdict = core::SignatureClassifier{}.classify(sample);
  std::cout << "\n=== Classifier verdict ===\n"
            << "  possibly tampered: " << (verdict.possibly_tampered ? "yes" : "no")
            << "\n  signature:         "
            << (verdict.signature ? core::name(*verdict.signature) : "(none)")
            << "\n  stage:             " << core::name(verdict.stage)
            << "\n  tear-down packets: " << verdict.rst_count << " RST, "
            << verdict.rst_ack_count << " RST+ACK\n";

  const analysis::EvidenceDeltas evidence = analysis::evidence_deltas(sample, verdict);
  std::cout << "\n=== Injection evidence (Figs. 2-3) ===\n";
  if (evidence.max_ipid_delta)
    std::cout << "  max IP-ID delta vs preceding packet: " << *evidence.max_ipid_delta
              << "  (client counter would be ~1)\n";
  if (evidence.max_ttl_delta)
    std::cout << "  max TTL delta vs preceding packet:   " << int(*evidence.max_ttl_delta)
              << "  (same-stack packets would be ~0)\n";

  std::vector<net::Packet> inbound;
  for (const auto& traced : result.server_inbound) inbound.push_back(traced.pkt);
  net::write_pcap_file(pcap_path, inbound);
  std::cout << "\nserver-side capture written to " << pcap_path << " ("
            << inbound.size() << " packets)\n";
  return 0;
}
