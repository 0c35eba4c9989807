// Extension study: the §6 evasive censor vs every detector in this repo.
//
// Expected result: both the signature taxonomy and the Weaver forgery tests
// score ~0% against a censor that drops server->client traffic and
// impersonates the client toward the server — while a conventional censor
// on identical traffic is caught essentially always. The asymmetry is the
// paper's closing argument for why such censors are (fortunately) rare:
// they must hold per-flow state fully in-path.
#include <iostream>

#include "appproto/tls.h"
#include "bench_common.h"
#include "core/weaver.h"
#include "middlebox/catalog.h"
#include "middlebox/evasive.h"
#include "middlebox/middlebox.h"
#include "tcp/session.h"

using namespace tamper;

namespace {

struct Outcome {
  std::uint64_t sessions = 0;
  std::uint64_t taxonomy_detected = 0;
  std::uint64_t weaver_detected = 0;
  std::uint64_t client_got_content = 0;
};

Outcome run_sessions(std::size_t count, bool evasive, std::uint64_t seed) {
  Outcome outcome;
  core::SignatureClassifier classifier;
  common::Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    tcp::EndpointConfig client_cfg;
    client_cfg.addr = net::IpAddress::v4(11, 0, 0, 2);
    client_cfg.port = static_cast<std::uint16_t>(rng.range(1025, 65500));
    client_cfg.is_client = true;
    client_cfg.isn = static_cast<std::uint32_t>(rng.next());
    appproto::ClientHelloSpec hello;
    hello.sni = "blocked-target.example";
    common::Rng payload_rng(rng.next());
    client_cfg.request_segments = {appproto::build_client_hello(hello, payload_rng)};

    tcp::EndpointConfig server_cfg;
    server_cfg.addr = net::IpAddress::v4(198, 18, 0, 1);
    server_cfg.port = 443;
    server_cfg.is_client = false;
    server_cfg.isn = static_cast<std::uint32_t>(rng.next());
    server_cfg.response_size = static_cast<std::size_t>(rng.range(800, 6000));

    tcp::SessionConfig session;
    session.start_time = 1'673'600'000.0 + static_cast<double>(i) * 40.0;
    middlebox::TriggerSet triggers;
    triggers.add_exact_domain("blocked-target.example");

    std::unique_ptr<tcp::PathHook> censor;
    if (evasive) {
      censor = std::make_unique<middlebox::EvasiveCensor>(
          std::move(triggers), session.geometry, rng.fork(i));
    } else {
      censor = std::make_unique<middlebox::Middlebox>(
          middlebox::catalog::gfw_mixed_burst(), std::move(triggers), session.geometry,
          rng.fork(i));
    }

    tcp::TcpEndpoint client(client_cfg, rng.fork(i * 2 + 1));
    tcp::TcpEndpoint server(server_cfg, rng.fork(i * 2 + 2));
    client.set_peer(server_cfg.addr, server_cfg.port);
    server.set_peer(client_cfg.addr, client_cfg.port);
    common::Rng session_rng(rng.next());
    const tcp::SessionResult result =
        tcp::simulate_session(client, server, censor.get(), session, session_rng);

    capture::ConnectionSample sample;
    sample.client_ip = client_cfg.addr;
    sample.server_ip = server_cfg.addr;
    sample.client_port = client_cfg.port;
    sample.server_port = server_cfg.port;
    for (const auto& traced : result.server_inbound) {
      sample.log(capture::observe(traced.pkt), traced.pkt.payload);
    }
    sample.observation_end_sec = static_cast<std::int64_t>(result.end_time);

    ++outcome.sessions;
    if (classifier.classify(sample).possibly_tampered) ++outcome.taxonomy_detected;
    if (core::weaver_detect(sample).forged_rst_detected) ++outcome.weaver_detected;
    // Did censored content actually reach the client?
    for (const auto& traced : result.full_trace) {
      if (traced.dir == tcp::Direction::kServerToClient && !traced.injected &&
          !traced.pkt.payload.empty()) {
        ++outcome.client_got_content;
        break;
      }
    }
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = bench::bench_connections(argc, argv, 3000);
  common::print_banner(std::cout, "Extension — the §6 evasive censor");
  std::cout << "workload: " << n << " censored sessions per censor type\n\n";

  const Outcome conventional = run_sessions(n, /*evasive=*/false, 0xc0);
  const Outcome evasive = run_sessions(n, /*evasive=*/true, 0xe0);

  common::TextTable table({"Censor", "sessions", "taxonomy detection",
                           "Weaver detection", "content reached client"});
  auto row = [&](const std::string& label, const Outcome& o) {
    table.add_row({label, common::TextTable::num(o.sessions),
                   common::TextTable::pct(common::percent(o.taxonomy_detected, o.sessions)),
                   common::TextTable::pct(common::percent(o.weaver_detected, o.sessions)),
                   common::TextTable::pct(common::percent(o.client_got_content, o.sessions))});
  };
  row("GFW-style RST burst", conventional);
  row("evasive MITM (§6)", evasive);
  table.print(std::cout);

  std::cout << "\nBoth censors block the content (last column ~0%), but the evasive\n"
               "design is invisible to every server-side passive detector — the\n"
               "paper's point about the limits of the technique, and why the\n"
               "required in-path, stateful capability is rarely deployed (§2.1).\n";
  return 0;
}
