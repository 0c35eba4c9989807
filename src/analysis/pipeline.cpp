#include "analysis/pipeline.h"

#include <tuple>

#include "common/codec.h"
#include "obs/families.h"

namespace tamper::analysis {

Pipeline::Pipeline(const world::World& world)
    : world_(world),
      categories_([&world](const std::string& domain) -> std::optional<world::Category> {
        const auto rank = world.domains().rank_of(domain);
        if (!rank) return std::nullopt;
        return world.domains().by_rank(*rank).category;
      }) {}

Pipeline::~Pipeline() {
  if (obs_metrics_ != nullptr) obs_metrics_->remove_collector(obs_collector_);
}

void Pipeline::set_obs(obs::Registry* metrics, obs::Tracer* tracer,
                       const obs::Clock* clock) {
  if (obs_metrics_ != nullptr) obs_metrics_->remove_collector(obs_collector_);
  obs_metrics_ = metrics;
  tracer_ = tracer;
  obs_clock_ = clock != nullptr ? clock : &obs::monotonic_clock();
  obs_samples_ = nullptr;
  obs_classify_seconds_ = nullptr;
  class_connections_c_ = class_possibly_c_ = class_matched_c_ = nullptr;
  class_signature_fam_ = class_country_conn_fam_ = class_country_match_fam_ = nullptr;
  class_signature_mirror_.fill(nullptr);
  class_country_conn_mirror_.clear();
  class_country_match_mirror_.clear();
  ts_points_c_ = ts_dropped_c_ = nullptr;
  ts_series_g_ = ts_latest_epoch_g_ = nullptr;
  if (metrics == nullptr) return;

  obs_samples_ = &metrics->counter(obs::family("tamper_pipeline_samples_total"));
  obs_classify_seconds_ = &metrics->histogram(
      obs::family("tamper_pipeline_classify_seconds"));
  auto& degraded_family = metrics->counter_family(
      obs::family("tamper_pipeline_degraded_total"));
  std::array<obs::Counter*, kDegradedFields.size()> mirrors{};
  for (std::size_t i = 0; i < kDegradedFields.size(); ++i)
    mirrors[i] = &degraded_family.with({std::string(kDegradedFields[i].label)});
  obs_collector_ = metrics->add_collector([this, mirrors] {
    const DegradedStats d = degraded();
    for (std::size_t i = 0; i < kDegradedFields.size(); ++i)
      mirrors[i]->increment_to(d.*kDegradedFields[i].member);
  });

  // Classification mirrors + trends bookkeeping. Registered here, written
  // only by sample_trends() on the worker thread — a collector would race
  // with the worker on the aggregates (they are worker-owned, unlocked).
  class_connections_c_ = &metrics->counter(obs::family("tamper_class_connections_total"));
  class_possibly_c_ = &metrics->counter(
      obs::family("tamper_class_possibly_tampered_total"));
  class_matched_c_ = &metrics->counter(obs::family("tamper_class_matched_total"));
  class_signature_fam_ = &metrics->counter_family(
      obs::family("tamper_class_signature_matches_total"));
  class_country_conn_fam_ = &metrics->counter_family(
      obs::family("tamper_class_country_connections_total"));
  class_country_match_fam_ = &metrics->counter_family(
      obs::family("tamper_class_country_matches_total"));
  ts_points_c_ = &metrics->counter(obs::family("tamper_timeseries_points_total"));
  ts_dropped_c_ = &metrics->counter(obs::family("tamper_timeseries_dropped_total"));
  ts_series_g_ = &metrics->gauge(obs::family("tamper_timeseries_series"));
  ts_latest_epoch_g_ = &metrics->gauge(obs::family("tamper_timeseries_latest_epoch"));
}

void Pipeline::sample_trends() {
  const std::int64_t epoch = trends_.epoch_of(latest_ts_sec_);
  const DegradedStats d = degraded();
  const bool mirror = obs_metrics_ != nullptr;

  // The aggregate sources have tamper_class_* registry mirrors, which this
  // pass updates alongside the ring (increment_to keeps them idempotent
  // across crash-resume re-derivation). One fused pass per aggregate — the
  // country loops walk matrix rows, mirror-handle maps, and the ring in
  // lockstep (all sorted by country), so each per-label sample costs
  // amortized-constant lookups (rollup cost: DESIGN.md §12).
  if (mirror) {
    class_connections_c_->increment_to(matrix_.total_connections());
    class_possibly_c_->increment_to(matrix_.possibly_tampered());
    class_matched_c_->increment_to(matrix_.matched());
  }

  for (const obs::SeriesSpec& spec : obs::default_series_catalog()) {
    const auto record = [&](double value) {
      trends_.record_epoch(spec.family, "", spec.merge, epoch, value);
    };
    // Registry sources; an absent family (e.g. overload control disabled)
    // is simply not sampled.
    const auto record_metric = [&](std::string_view metric) {
      double value = 0.0;
      if (mirror && obs_metrics_->read_family_total(metric, &value)) record(value);
    };
    switch (spec.source) {
      case obs::SeriesSource::kConnections:
        record(static_cast<double>(matrix_.total_connections()));
        break;
      case obs::SeriesSource::kPossiblyTampered:
        record(static_cast<double>(matrix_.possibly_tampered()));
        break;
      case obs::SeriesSource::kSignatureMatched:
        record(static_cast<double>(matrix_.matched()));
        break;
      case obs::SeriesSource::kSignatureMatches:
        for (std::size_t s = 0; s < core::kSignatureCount; ++s) {
          const auto sig = static_cast<core::Signature>(s);
          const std::uint64_t total = matrix_.signature_total(sig);
          if (total == 0) continue;
          if (mirror) {
            obs::Counter*& h = class_signature_mirror_[s];
            if (h == nullptr)
              h = &class_signature_fam_->with({std::string(core::name(sig))});
            h->increment_to(total);
          }
          trends_.record_epoch(spec.family, core::name(sig), spec.merge, epoch,
                               static_cast<double>(total));
        }
        break;
      case obs::SeriesSource::kCountryConnections:
      case obs::SeriesSource::kCountryMatches: {
        const bool matches = spec.source == obs::SeriesSource::kCountryMatches;
        auto& handles = matches ? class_country_match_mirror_ : class_country_conn_mirror_;
        obs::CounterFamily* family =
            matches ? class_country_match_fam_ : class_country_conn_fam_;
        obs::EpochRing::Cursor cursor(trends_);
        auto handle = handles.begin();
        for (const auto& [cc, row] : matrix_.rows()) {
          const std::uint64_t value = matches ? row.matches : row.connections;
          if (matches && value == 0) continue;
          if (mirror) {
            while (handle != handles.end() && handle->first < cc) ++handle;
            if (handle == handles.end() || handle->first != cc)
              handle = handles.emplace_hint(handle, cc, &family->with({cc}));
            handle->second->increment_to(value);
          }
          cursor.record_epoch(spec.family, cc, spec.merge, epoch,
                              static_cast<double>(value));
        }
        break;
      }
      case obs::SeriesSource::kDegraded:
        // Coverage loss only (not d.total()): noise counters like a single
        // empty flow must not mark the whole epoch degraded and suppress
        // the watchdog scan for it.
        record(static_cast<double>(d.coverage_loss()));
        break;
      case obs::SeriesSource::kOverloadLevel:
        record_metric(obs::family("tamper_overload_level").name);
        break;
      case obs::SeriesSource::kOverloadShed:
        record_metric(obs::family("tamper_overload_shed_total").name);
        break;
    }
  }

  if (obs_metrics_ != nullptr) {
    ts_points_c_->increment_to(trends_.recorded_points());
    ts_dropped_c_->increment_to(trends_.dropped_points());
    ts_series_g_->set(static_cast<double>(trends_.series().size()));
    ts_latest_epoch_g_->set(
        trends_.empty() ? 0.0 : static_cast<double>(trends_.max_epoch()));
  }
}

// tamperlint: nothrow-path
void Pipeline::ingest(const capture::ConnectionSample& sample) noexcept {
  obs::Tracer::Span ingest_span(tracer_, obs::stage::kIngest, obs::stage::kCategory);
  std::uint64_t seq = 0;
  if (obs_samples_ != nullptr) seq = obs_samples_->add();
  // A flow with no packets was never actually observed at the tap (e.g. the
  // SYN itself was lost upstream).
  if (sample.packets.empty()) {
    common::MutexLock lock(stats_mu_);
    ++degraded_.empty_samples;
    return;
  }
  if (sample.observation_end_sec > latest_ts_sec_)
    latest_ts_sec_ = sample.observation_end_sec;
  // Sampled latency probe: 1 in 64 keeps the steady-state cost of the
  // instrumentation to two relaxed fetch_adds per sample.
  const bool timed = obs_classify_seconds_ != nullptr && (seq & 63) == 1;
  const std::uint64_t t0 = timed ? obs_clock_->now_ns() : 0;
  try {
    obs::Tracer::Span classify_span(tracer_, obs::stage::kClassify,
                                    obs::stage::kCategory);
    // Ordered once: the classifier and the evidence collector read the
    // same view (both use the default ClassifierConfig).
    const core::OrderedPackets ordered = core::order_packets(sample, classifier_.config());
    const ConnectionRecord record =
        analyze(sample, ordered, world_.geo(), classifier_,
                /*parse_app_proto=*/!evidence_only_.load(std::memory_order_relaxed));
    classify_span.finish();
    obs::Tracer::Span aggregate_span(tracer_, obs::stage::kAggregate,
                                     obs::stage::kCategory);
    matrix_.add(record);
    asns_.add(record);
    timeseries_.add(record);
    version_protocol_.add(record);
    categories_.add(record);
    overlap_.add(record);
    evidence_.add(sample, record, ordered);

    ++scanner_.connections;
    const core::ScannerIndicators indicators = core::scanner_indicators(sample);
    if (indicators.no_tcp_options) ++scanner_.no_tcp_options;
    if (indicators.high_ttl) ++scanner_.high_ttl;
    if (record.classification.signature == core::Signature::kSynRst) {
      ++scanner_.syn_rst_matches;
      if (indicators.likely_zmap()) ++scanner_.syn_rst_zmap;
    }
  } catch (...) {
    // One hostile sample must not take down the service; count and move on.
    common::MutexLock lock(stats_mu_);
    ++degraded_.ingest_errors;
  }
  if (timed)
    obs_classify_seconds_->observe(
        static_cast<double>(obs_clock_->now_ns() - t0) * 1e-9);
}

void Pipeline::run(world::TrafficGenerator& generator, std::size_t connections) {
  generator.generate(connections,
                     [this](world::LabeledConnection&& conn) { ingest(conn.sample); });
}

void Pipeline::snapshot(common::BinWriter& w) const {
  const std::size_t start = w.size();
  const std::size_t last = snapshot_bytes_.load(std::memory_order_relaxed);
  w.reserve(start + last + last / 4);
  {
    common::MutexLock lock(stats_mu_);
    for (const DegradedField& f : kDegradedFields) w.u64(degraded_.*f.member);
  }
  common::codec::write(w, std::tie(scanner_, latest_ts_sec_));

  std::apply([&](auto... part) { ((this->*part).snapshot(w), ...); }, kParts);
  snapshot_bytes_.store(w.size() - start, std::memory_order_relaxed);
}

void Pipeline::restore(common::BinReader& r) {
  {
    common::MutexLock lock(stats_mu_);
    for (const DegradedField& f : kDegradedFields) degraded_.*f.member = r.u64();
  }
  common::codec::read(r, std::tie(scanner_, latest_ts_sec_));

  std::apply([&](auto... part) { ((this->*part).restore(r), ...); }, kParts);

  // A restored process reads fresh sources whose cumulative counters start
  // at zero again; the delta baselines must follow.
  {
    common::MutexLock lock(stats_mu_);
    baseline_ = {};
  }
}

void Pipeline::merge_from(const Pipeline& other) {
  {
    // Lock ordering: this->stats_mu_ before other.stats_mu_. The merger
    // only ever folds decoded partials (never two live pipelines that could
    // merge into each other), so the order cannot invert.
    common::MutexLock lock(stats_mu_);
    const DegradedStats od = other.degraded();
    for (const DegradedField& f : kDegradedFields) degraded_.*f.member += od.*f.member;
  }
  common::codec::add_into(scanner_, other.scanner_);
  if (other.latest_ts_sec_ > latest_ts_sec_) latest_ts_sec_ = other.latest_ts_sec_;

  std::apply([&](auto... part) { ((this->*part).merge(other.*part), ...); }, kParts);
}

}  // namespace tamper::analysis
