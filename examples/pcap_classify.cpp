// Classify connections from a pcap capture — the path a real deployment
// would use: feed server-side inbound packets through the connection
// sampler and run the signature classifier over the assembled flows.
//
//   ./examples/pcap_classify <capture.pcap> [server_port]
//
// With no arguments it synthesizes a demo capture first (a mix of clean and
// tampered sessions) so the example is runnable out of the box.
#include <fstream>
#include <iostream>

#include "appproto/dpi.h"
#include "capture/sampler.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/classifier.h"
#include "net/pcap.h"
#include "world/traffic.h"

using namespace tamper;

namespace {

/// Build a small demo capture: every inbound packet of 400 simulated
/// connections, written as one pcap (as a span-port tap would record them).
std::string make_demo_capture() {
  const std::string path = "demo_capture.pcap";
  world::World world;
  world::TrafficConfig traffic;
  traffic.seed = 0xdeca4;
  traffic.keep_raw_inbound = true;  // the wire packets, not the capture record
  world::TrafficGenerator generator(world, traffic);

  std::ofstream out(path, std::ios::binary);
  net::PcapWriter writer(out);
  generator.generate(400, [&](world::LabeledConnection&& conn) {
    for (const auto& pkt : conn.raw_inbound) writer.write(pkt);
  });
  std::cout << "wrote demo capture: " << path << " (" << writer.packets_written()
            << " packets)\n\n";
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : make_demo_capture();

  capture::ConnectionSampler::Config config;
  config.sample_one_in = 1;  // classify every flow in the capture
  capture::ConnectionSampler sampler(config);

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot open " << path << '\n';
    return 1;
  }
  net::PcapReader reader(in);
  double last_ts = 0.0;
  while (auto pkt = reader.next()) {
    last_ts = pkt->timestamp;
    sampler.on_packet(*pkt, pkt->timestamp);
  }
  auto samples = sampler.flush_all(last_ts + 60.0);

  core::SignatureClassifier classifier;
  common::LabelCounter verdicts;
  std::uint64_t tampered_with_domain = 0;
  common::LabelCounter domains;
  for (const auto& sample : samples) {
    const auto verdict = classifier.classify(sample);
    if (verdict.signature) {
      verdicts.add(std::string(core::name(*verdict.signature)));
      if (const auto* payload = sample.first_data_payload()) {
        const auto dpi = appproto::inspect_payload(*payload);
        if (dpi.domain) {
          ++tampered_with_domain;
          domains.add(*dpi.domain);
        }
      }
    } else {
      verdicts.add(verdict.possibly_tampered ? "(possibly tampered, unmatched)"
                                             : "Not Tampering");
    }
  }

  std::cout << "frames read: " << reader.frames_read() << ", flows assembled: "
            << samples.size() << "\n\n";
  common::TextTable table({"Verdict", "Flows"});
  for (const auto& [label, count] : verdicts.top(25))
    table.add_row({label, common::TextTable::num(count)});
  table.print(std::cout);

  if (tampered_with_domain > 0) {
    std::cout << "\nmost-tampered domains visible in this capture:\n";
    for (const auto& [domain, count] : domains.top(8))
      std::cout << "  " << domain << "  (" << count << " flows)\n";
  }
  return 0;
}
