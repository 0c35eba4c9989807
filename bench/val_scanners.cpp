// §4.2 validation: how much scanner/attack noise pollutes the signatures —
// the ZMap share of ⟨SYN → RST⟩, the high-TTL connection share, optionless
// SYNs, and the SYN-with-payload observations from §4.1.
#include <iostream>

#include "appproto/dpi.h"
#include "bench_common.h"
#include "core/scanner.h"

using namespace tamper;

int main(int argc, char** argv) {
  const std::size_t n = bench::bench_connections(argc, argv, 300'000);

  // Run manually so we can also inspect raw samples for SYN payloads.
  world::WorldConfig world_cfg;
  world_cfg.seed = 21;
  world::World world(world_cfg);
  world::TrafficConfig traffic;
  traffic.seed = 0x5ca9;
  world::TrafficGenerator generator(world, traffic);
  analysis::Pipeline pipeline(world);

  std::uint64_t syn80 = 0, syn80_payload = 0, syn443 = 0, syn443_hello = 0;
  generator.generate(n, [&](world::LabeledConnection&& conn) {
    pipeline.ingest(conn.sample);
    for (const auto& pkt : conn.sample.packets) {
      if (!pkt.is_syn()) continue;
      if (conn.sample.server_port == 80) {
        ++syn80;
        if (pkt.payload_len > 0) ++syn80_payload;
      } else if (conn.sample.server_port == 443) {
        ++syn443;
        const auto& payload = conn.sample.syn_payload;
        if (!payload.empty() && appproto::looks_like_client_hello(payload))
          ++syn443_hello;
      }
      break;
    }
  });

  common::print_banner(std::cout, "§4.2 validation — scanners and attack noise");
  const auto& s = pipeline.scanner_stats();
  common::TextTable table({"Check", "Measured", "Paper"});
  table.add_row({"connections with optionless SYN",
                 common::TextTable::pct(common::percent(s.no_tcp_options, s.connections), 3),
                 "0% (none found)"});
  table.add_row({"connections with TTL >= 200",
                 common::TextTable::pct(common::percent(s.high_ttl, s.connections), 3),
                 "~0.05%"});
  table.add_row({"SYN→RST matches attributable to ZMap",
                 common::TextTable::pct(common::percent(s.syn_rst_zmap, s.syn_rst_matches)),
                 "~1%"});
  table.add_row({"port-80 SYNs carrying an HTTP payload",
                 common::TextTable::pct(common::percent(syn80_payload, syn80), 2),
                 "38% (one day; 93% to four domains)"});
  table.add_row({"port-443 SYNs carrying a ClientHello",
                 common::TextTable::pct(common::percent(syn443_hello, syn443), 3),
                 "0.02%"});
  table.print(std::cout);

  std::cout << "\nNote: we do not model SYN-payload TCP-amplification floods, so the\n"
               "port-80 SYN-payload row measures ~0 by construction (documented\n"
               "deviation; the paper attributes its 38% spike to four abusive\n"
               "domains on a single day).\n";
  return 0;
}
