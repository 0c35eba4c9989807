// Ablation studies for the design choices DESIGN.md §5 calls out. Not a
// paper table — this quantifies why the paper's methodology decisions
// matter, using ground truth the real deployment never had:
//
//   A1  order reconstruction: classify scrambled 1-second logs with and
//       without flag/seq-based reconstruction
//   A2  the 3-second inactivity threshold: sweep 1..10 s
//   A3  the 10-packet budget: sweep first-N packets logged
//   A4  timestamp granularity: 1 s vs millisecond logging
//   A5  upstream DDoS scrubbing: Post-SYN inflation when floods reach the tap
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "capture/sample.h"
#include "common/rng.h"
#include "core/classifier.h"

using namespace tamper;

namespace {

struct Corpus {
  std::vector<world::LabeledConnection> connections;
};

Corpus make_corpus(std::size_t n, world::World& world, world::TrafficConfig traffic) {
  Corpus corpus;
  corpus.connections.reserve(n);
  world::TrafficGenerator generator(world, traffic);
  generator.generate(n, [&](world::LabeledConnection&& conn) {
    corpus.connections.push_back(std::move(conn));
  });
  return corpus;
}

std::optional<core::Signature> classify_sig(const core::SignatureClassifier& classifier,
                                            const capture::ConnectionSample& sample) {
  return classifier.classify(sample).signature;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = bench::bench_connections(argc, argv, 60'000);
  world::WorldConfig world_cfg;
  world_cfg.seed = 0xab1a;
  world::World world(world_cfg);

  common::print_banner(std::cout, "Ablation studies (design-choice validation)");
  std::cout << "workload: " << n << " connections per arm\n";

  // ---- A1: order reconstruction under scrambled logs ----
  {
    world::TrafficConfig traffic;
    traffic.seed = 1;
    Corpus corpus = make_corpus(n / 4, world, traffic);
    core::SignatureClassifier reconstructing;
    core::ClassifierConfig no_reconstruct_cfg;
    no_reconstruct_cfg.reconstruct_order = false;
    core::SignatureClassifier arrival_order(no_reconstruct_cfg);
    common::Rng rng(99);

    std::uint64_t total = 0, stable_reconstructed = 0, stable_arrival = 0;
    for (auto& conn : corpus.connections) {
      if (conn.sample.packets.size() < 2) continue;
      const auto reference = classify_sig(reconstructing, conn.sample);
      auto scrambled = conn.sample;
      // Scramble the log order — the degradation the paper's 1 s-granularity
      // logging pipeline exhibits (§3.2). Timestamps stay intact, so the
      // reconstructing classifier can only lose within-second information.
      std::shuffle(scrambled.packets.begin(), scrambled.packets.end(), rng);
      ++total;
      if (classify_sig(reconstructing, scrambled) == reference) ++stable_reconstructed;
      if (classify_sig(arrival_order, scrambled) == reference) ++stable_arrival;
    }
    common::TextTable table({"A1: classifier variant", "agreement with in-order log"});
    table.add_row({"flag/seq reconstruction (paper)",
                   common::TextTable::pct(common::percent(stable_reconstructed, total))});
    table.add_row({"raw arrival order",
                   common::TextTable::pct(common::percent(stable_arrival, total))});
    table.print(std::cout);
    std::cout << "\n";
  }

  // ---- A2: inactivity threshold sweep ----
  {
    world::TrafficConfig traffic;
    traffic.seed = 2;
    Corpus corpus = make_corpus(n / 4, world, traffic);
    common::TextTable table({"A2: inactivity threshold", "possibly tampered %",
                             "ground-truth recall", "timeout false flags on clean"});
    for (std::int64_t threshold : {1, 2, 3, 5, 10}) {
      core::ClassifierConfig cfg;
      cfg.inactivity_seconds = threshold;
      core::SignatureClassifier classifier(cfg);
      std::uint64_t total = 0, possibly = 0, tampered = 0, recalled = 0, clean = 0,
                    clean_timeout = 0;
      for (const auto& conn : corpus.connections) {
        if (conn.sample.packets.empty()) continue;
        ++total;
        const auto c = classifier.classify(conn.sample);
        if (c.possibly_tampered) ++possibly;
        if (conn.truth.tampered) {
          ++tampered;
          if (c.possibly_tampered) ++recalled;
        } else if (conn.truth.client_kind == tcp::ClientKind::kNormal) {
          ++clean;
          if (c.possibly_tampered && c.timeout) ++clean_timeout;
        }
      }
      table.add_row({std::to_string(threshold) + " s",
                     common::TextTable::pct(common::percent(possibly, total)),
                     common::TextTable::pct(common::percent(recalled, tampered)),
                     common::TextTable::pct(common::percent(clean_timeout, clean), 2)});
    }
    table.print(std::cout);
    std::cout << "(the paper's 3 s keeps recall at 100% while clean-connection\n"
                 " timeout flags stay near the keep-alive floor)\n\n";
  }

  // ---- A3: packet budget sweep ----
  {
    common::TextTable table({"A3: packets logged", "possibly tampered %",
                             "signature coverage of possibly tampered"});
    constexpr std::size_t kBudgets[] = {2, 4, 6, 8, capture::kMaxLoggedPackets};
    for (std::size_t budget : kBudgets) {
      world::TrafficConfig traffic;
      traffic.seed = 3;  // same traffic, different logging depth
      traffic.max_logged_packets = budget;
      Corpus corpus = make_corpus(n / 6, world, traffic);
      core::ClassifierConfig cfg;
      cfg.max_packets = budget;
      core::SignatureClassifier classifier(cfg);
      std::uint64_t total = 0, possibly = 0, matched = 0;
      for (const auto& conn : corpus.connections) {
        if (conn.sample.packets.empty()) continue;
        ++total;
        const auto c = classifier.classify(conn.sample);
        if (c.possibly_tampered) ++possibly;
        if (c.signature) ++matched;
      }
      table.add_row({std::to_string(budget),
                     common::TextTable::pct(common::percent(possibly, total)),
                     common::TextTable::pct(common::percent(matched, possibly))});
    }
    table.print(std::cout);
    std::cout << "(the share flagged grows quickly up to ~8 packets and barely moves\n"
                 " from 8 to 10: tampering decides connections early, which is why the\n"
                 " paper's budget suffices; the record holds at most 10 packets)\n\n";
  }

  // ---- A4: timestamp granularity ----
  {
    world::TrafficConfig coarse;
    coarse.seed = 4;
    world::TrafficConfig fine = coarse;
    fine.timestamp_scale = 1000.0;  // millisecond ticks
    Corpus corpus_coarse = make_corpus(n / 4, world, coarse);
    Corpus corpus_fine = make_corpus(n / 4, world, fine);
    core::SignatureClassifier second_clf;
    core::ClassifierConfig ms_cfg;
    ms_cfg.inactivity_seconds = 3000;  // 3 s in millisecond ticks
    core::SignatureClassifier ms_clf(ms_cfg);
    std::uint64_t total = 0, agree = 0;
    for (std::size_t i = 0; i < corpus_coarse.connections.size(); ++i) {
      const auto& a = corpus_coarse.connections[i].sample;
      const auto& b = corpus_fine.connections[i].sample;
      if (a.packets.empty() || b.packets.empty()) continue;
      ++total;
      if (classify_sig(second_clf, a) == classify_sig(ms_clf, b)) ++agree;
    }
    common::TextTable table({"A4: granularity comparison", "value"});
    table.add_row({"verdict agreement, 1 s vs 1 ms logs",
                   common::TextTable::pct(common::percent(agree, total))});
    table.print(std::cout);
    std::cout << "(1-second timestamps lose almost nothing — the paper's §3.2\n"
                 " claim that coarse logging is not a limitation)\n\n";
  }

  // ---- A5: DDoS scrubbing off ----
  {
    world::TrafficConfig scrubbed;
    scrubbed.seed = 5;
    world::TrafficConfig unscrubbed = scrubbed;
    unscrubbed.syn_only_rate = 0.30;  // flood residue reaching the tap
    common::TextTable table(
        {"A5: upstream scrubbing", "Post-SYN share of possibly tampered"});
    for (const auto& [label, cfg] :
         std::vector<std::pair<std::string, world::TrafficConfig>>{
             {"on (paper pipeline)", scrubbed}, {"off (floods reach tap)", unscrubbed}}) {
      Corpus corpus = make_corpus(n / 4, world, cfg);
      core::SignatureClassifier classifier;
      std::uint64_t possibly = 0, post_syn = 0;
      for (const auto& conn : corpus.connections) {
        const auto c = classifier.classify(conn.sample);
        if (!c.possibly_tampered) continue;
        ++possibly;
        if (c.stage == core::Stage::kPostSyn) ++post_syn;
      }
      table.add_row({label, common::TextTable::pct(common::percent(post_syn, possibly))});
    }
    table.print(std::cout);
    std::cout << "(without scrubbing, Post-SYN noise swamps the taxonomy — the\n"
                 " reason §4.2 restricts several analyses to Post-ACK/Post-PSH)\n";
  }
  return 0;
}
