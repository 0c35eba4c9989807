#include "analysis/report.h"

#include <map>
#include <ostream>

#include "common/json.h"
#include "common/sim_clock.h"
#include "common/stats.h"
#include "obs/timeseries.h"

namespace tamper::analysis {

void write_radar_report(std::ostream& out, const Pipeline& pipeline,
                        const ReportOptions& options) {
  const SignatureMatrix& matrix = pipeline.signatures();
  common::JsonWriter json(out, options.pretty);

  json.begin_object();
  json.kv("schema", "tamper-radar/1");
  json.kv("privacy", "aggregates only: no client addresses, no domain names");

  json.key("global");
  json.begin_object();
  json.kv("connections", matrix.total_connections());
  json.kv("possibly_tampered_pct",
          common::percent(matrix.possibly_tampered(), matrix.total_connections()));
  json.kv("signature_match_pct",
          common::percent(matrix.matched(), matrix.total_connections()));
  json.kv("signature_coverage_of_possibly_tampered_pct",
          common::percent(matrix.matched(), matrix.possibly_tampered()));
  json.key("stage_share_of_possibly_tampered_pct");
  json.begin_object();
  for (core::Stage stage : {core::Stage::kPostSyn, core::Stage::kPostAck,
                            core::Stage::kPostPsh, core::Stage::kPostData,
                            core::Stage::kOther}) {
    json.kv(core::name(stage),
            common::percent(matrix.stage_possibly(stage), matrix.possibly_tampered()));
  }
  json.end_object();
  json.end_object();

  // Degraded-input accounting: how much hostile/corrupt input the ingest
  // path dropped or force-closed — without this, aggregate consumers cannot
  // tell a quiet day from a day where half the tap was garbage.
  const DegradedStats degraded = pipeline.degraded();
  json.key("degraded_input");
  json.begin_object();
  for (const DegradedField& f : kDegradedFields)
    json.kv(f.json_key.empty() ? f.label : f.json_key, degraded.*f.member);
  json.kv("total", degraded.total());
  json.end_object();

  // Fleet coverage (merged reports only): which PoPs are inside these
  // aggregates, per closed epoch. pops_reporting < pops_expected marks the
  // epoch explicitly degraded — the consumer sees reduced coverage instead
  // of silently-wrong totals.
  if (options.fleet != nullptr) {
    const FleetCoverage& fleet = *options.fleet;
    json.key("fleet");
    json.begin_object();
    json.kv("pops_expected", static_cast<std::uint64_t>(fleet.pops_expected));
    json.kv("pops_reporting", static_cast<std::uint64_t>(fleet.pops_reporting));
    json.kv("watermark_epoch", fleet.watermark);
    json.kv("max_epoch", fleet.max_epoch);
    json.kv("degraded", fleet.degraded);
    json.key("pops");
    json.begin_array();
    for (const FleetPopStatus& pop : fleet.pops) {
      json.begin_object();
      json.kv("pop", static_cast<std::uint64_t>(pop.pop.value()));
      json.kv("status", pop.status);
      json.kv("last_epoch", pop.last_epoch.value());
      json.kv("samples", pop.samples);
      json.kv("overload", pop.overload);
      json.kv("shed_samples", pop.shed_samples);
      json.end_object();
    }
    json.end_array();
    json.key("epochs");
    json.begin_array();
    for (const FleetEpochCoverage& epoch : fleet.epochs) {
      json.begin_object();
      json.kv("epoch", epoch.epoch.value());
      json.kv("pops_reporting", static_cast<std::uint64_t>(epoch.pops_reporting));
      json.kv("pops_expected", static_cast<std::uint64_t>(epoch.pops_expected));
      json.kv("pops_shedding", static_cast<std::uint64_t>(epoch.pops_shedding));
      json.kv("degraded", epoch.degraded());
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }

  // Per-signature global totals with country composition.
  json.key("signatures");
  json.begin_array();
  for (core::Signature sig : core::all_signatures()) {
    json.begin_object();
    json.kv("name", core::name(sig));
    json.kv("ascii_name", core::ascii_name(sig));
    json.kv("stage", core::name(core::stage_of(sig)));
    json.kv("matches", matrix.signature_total(sig));
    json.key("top_countries");
    json.begin_array();
    std::multimap<std::uint64_t, std::string, std::greater<>> ranked;
    for (const auto& cc : matrix.countries()) {
      const std::uint64_t count = matrix.count(cc, sig);
      if (count > 0 && cc != "??") ranked.emplace(count, cc);
    }
    int emitted = 0;
    for (const auto& [count, cc] : ranked) {
      if (++emitted > 5) break;
      json.begin_object();
      json.kv("country", cc);
      json.kv("share_pct", common::percent(count, matrix.signature_total(sig)));
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();

  // Per-country rows (aggregation floor applied).
  json.key("countries");
  json.begin_array();
  for (const auto& cc : matrix.countries()) {
    const std::uint64_t connections = matrix.country_connections(cc);
    if (cc == "??" || connections < options.min_country_connections) continue;
    json.begin_object();
    json.kv("country", cc);
    json.kv("connections", connections);
    json.kv("match_pct", common::percent(matrix.country_matches(cc), connections));
    json.key("by_signature_pct");
    json.begin_object();
    for (core::Signature sig : core::all_signatures()) {
      const std::uint64_t count = matrix.count(cc, sig);
      if (count > 0) json.kv(core::ascii_name(sig), common::percent(count, connections));
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();

  // Longitudinal trends: the sampled epoch ring, with per-epoch coverage
  // annotations so a degraded epoch (PoPs missing or shedding) is never
  // read as a real rate drop, plus the watchdog's deterministic anomaly
  // events.
  if (options.include_trends && !pipeline.trends().empty()) {
    const obs::EpochRing& ring = pipeline.trends();
    json.key("trends");
    json.begin_object();
    json.kv("epoch_length_sec", ring.config().epoch_length_sec);
    json.kv("min_epoch", ring.min_epoch());
    json.kv("max_epoch", ring.max_epoch());
    obs::TimeseriesScope scope;
    scope.ring = &ring;
    if (options.trend_epochs != nullptr) scope.epochs = *options.trend_epochs;
    if (options.trend_anomalies != nullptr)
      scope.anomalies = *options.trend_anomalies;
    obs::write_timeseries_scope_fields(json, scope);
    json.end_object();
  }

  if (options.include_timeseries) {
    json.key("daily_timeseries");
    json.begin_array();
    for (const auto& cc : pipeline.timeseries().countries()) {
      if (cc == "??") continue;
      if (matrix.country_connections(cc) < options.min_country_connections) continue;
      // Collapse hourly buckets to days.
      std::map<std::int64_t, std::pair<std::uint64_t, std::uint64_t>> days;
      for (const auto& [hour, bucket] : pipeline.timeseries().country_hours(cc)) {
        auto& day = days[hour / 24];
        day.first += bucket.connections;
        day.second += bucket.post_ack_psh_matches;
      }
      json.begin_object();
      json.kv("country", cc);
      json.key("days");
      json.begin_array();
      for (const auto& [day, counts] : days) {
        json.begin_object();
        json.kv("date", common::format_date(static_cast<double>(day) * 86400.0));
        json.kv("connections", counts.first);
        json.kv("post_ack_psh_match_pct", common::percent(counts.second, counts.first));
        json.end_object();
      }
      json.end_array();
      json.end_object();
    }
    json.end_array();
  }

  json.end_object();
  out << '\n';
}

}  // namespace tamper::analysis
