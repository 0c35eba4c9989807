// The metric-family catalog: every tamper_* family libtamper and tamperscope
// export, with its kind, help text and label key. Registration sites name an
// entry through obs::family("..."), which is consteval, so a misspelled or
// uncatalogued name does not compile, and the static_asserts below reject a
// malformed or duplicated entry. Every family has at most one label key, and
// every histogram uses duration_buckets().
//
// The grouping comments name the code that registers each group and the
// label values it writes.
#pragma once

#include <cstddef>
#include <iterator>
#include <string_view>

#include "obs/metrics.h"

namespace tamper::obs {

struct Family {
  std::string_view name;
  MetricKind kind;
  std::string_view help;
  std::string_view label;  ///< the one label key, or empty
};

inline constexpr Family kFamilies[] = {
    // Supervisor worker, checkpoint path and watchdog (service/supervisor).
    {"tamper_ingest_samples_total", MetricKind::kCounter,
     "Samples ingested by the worker (includes checkpoint-restored samples)", ""},
    {"tamper_checkpoint_writes_total", MetricKind::kCounter,
     "Checkpoints written successfully", ""},
    {"tamper_checkpoint_failures_total", MetricKind::kCounter,
     "Checkpoint writes that failed (fault hook or I/O error)", ""},
    {"tamper_reports_emitted_total", MetricKind::kCounter,
     "Radar reports handed to the emitter", ""},
    {"tamper_worker_crashes_total", MetricKind::kCounter,
     "Worker stage crashes caught by the supervisor", ""},
    {"tamper_worker_restarts_total", MetricKind::kCounter,
     "Worker stage restarts (crash or stall recycle)", ""},
    {"tamper_worker_stalls_total", MetricKind::kCounter,
     "Worker stalls detected by the watchdog", ""},
    {"tamper_checkpoint_save_seconds", MetricKind::kHistogram,
     "Checkpoint save duration", ""},
    {"tamper_checkpoint_restore_seconds", MetricKind::kHistogram,
     "Checkpoint restore duration at start()", ""},
    {"tamper_supervisor_heartbeat_age_seconds", MetricKind::kGauge,
     "Seconds since the worker last made progress", ""},

    // BoundedQueue mirror (service/supervisor collector). Shed reasons:
    // embryonic, forced.
    {"tamper_queue_depth", MetricKind::kGauge, "Samples currently queued", ""},
    {"tamper_queue_capacity", MetricKind::kGauge, "Bounded ingest queue capacity", ""},
    {"tamper_queue_pushed_total", MetricKind::kCounter,
     "Samples accepted into the queue", ""},
    {"tamper_queue_popped_total", MetricKind::kCounter, "Samples popped by the worker",
     ""},
    {"tamper_queue_push_waits_total", MetricKind::kCounter,
     "Producer pushes that had to wait (kBlock)", ""},
    {"tamper_queue_shed_total", MetricKind::kCounter, "Samples shed under backpressure",
     "reason"},

    // ReportEmitter mirror (service/supervisor collector; registered only
    // when the service has an emitter). replay_failures counts quarantined
    // spool entries, spool_dropped the spool-cap evictions.
    {"tamper_emitter_reports_total", MetricKind::kCounter, "Reports submitted to emit()",
     ""},
    {"tamper_emitter_delivered_total", MetricKind::kCounter,
     "Reports the sink accepted (including spool replays)", ""},
    {"tamper_emitter_attempts_total", MetricKind::kCounter,
     "Individual sink deliver() calls", ""},
    {"tamper_emitter_retries_total", MetricKind::kCounter,
     "Delivery attempts beyond the first, per report", ""},
    {"tamper_emitter_spooled_total", MetricKind::kCounter, "Reports parked on disk", ""},
    {"tamper_emitter_spool_replayed_total", MetricKind::kCounter,
     "Spooled reports later delivered", ""},
    {"tamper_emitter_lost_total", MetricKind::kCounter,
     "Reports lost (spool write itself failed)", ""},
    {"tamper_emitter_spool_depth", MetricKind::kGauge, "Spooled reports awaiting replay",
     ""},
    {"tamper_sink_spool_replay_failures_total", MetricKind::kCounter,
     "Spool entries unreadable at replay (quarantined; data loss)", ""},
    {"tamper_emitter_spool_dropped_total", MetricKind::kCounter,
     "Oldest spool entries evicted to honor the spool cap", ""},

    // Pipeline::ingest and its collector (analysis/pipeline). Causes: the
    // labels of analysis::kDegradedFields. The histogram samples 1 in 64.
    {"tamper_pipeline_samples_total", MetricKind::kCounter,
     "Samples presented to Pipeline::ingest", ""},
    {"tamper_pipeline_classify_seconds", MetricKind::kHistogram,
     "Classify+aggregate latency per sample, sampled 1 in 64", ""},
    {"tamper_pipeline_degraded_total", MetricKind::kCounter,
     "Degraded-input events by cause (mirrors DegradedStats)", "cause"},

    // Pipeline::sample_trends: aggregate mirrors of the Fig. 1/4/6 counts
    // and the epoch-ring accounting (analysis/pipeline). Labels: signature
    // names, country codes.
    {"tamper_class_connections_total", MetricKind::kCounter,
     "Connections classified (aggregate mirror)", ""},
    {"tamper_class_possibly_tampered_total", MetricKind::kCounter,
     "Possibly-tampered connections (aggregate mirror)", ""},
    {"tamper_class_matched_total", MetricKind::kCounter,
     "Connections matching a tamper signature (aggregate mirror)", ""},
    {"tamper_class_signature_matches_total", MetricKind::kCounter,
     "Signature matches by signature (aggregate mirror)", "signature"},
    {"tamper_class_country_connections_total", MetricKind::kCounter,
     "Connections by country (aggregate mirror)", "country"},
    {"tamper_class_country_matches_total", MetricKind::kCounter,
     "Signature matches by country (aggregate mirror)", "country"},
    {"tamper_timeseries_points_total", MetricKind::kCounter,
     "Points offered to the trends epoch ring", ""},
    {"tamper_timeseries_dropped_total", MetricKind::kCounter,
     "Points the trends ring refused (history window or series cap)", ""},
    {"tamper_timeseries_series", MetricKind::kGauge,
     "Distinct series held in the trends ring", ""},
    {"tamper_timeseries_latest_epoch", MetricKind::kGauge,
     "Newest epoch with a recorded point", ""},

    // OverloadController collector (control/overload). Shed reasons:
    // rate_limited, sampled_down, embryonic, rejected. Directions: escalate,
    // deescalate.
    {"tamper_overload_level", MetricKind::kGauge,
     "Current degradation-ladder level (0=normal .. 4=shedding)", ""},
    {"tamper_overload_peak_level", MetricKind::kGauge,
     "Highest ladder level reached this run", ""},
    {"tamper_overload_offered_total", MetricKind::kCounter,
     "Samples presented to admission control", ""},
    {"tamper_overload_admitted_total", MetricKind::kCounter,
     "Samples admitted past the controller", ""},
    {"tamper_overload_shed_total", MetricKind::kCounter,
     "Samples refused at admission, by reason", "reason"},
    {"tamper_overload_transitions_total", MetricKind::kCounter,
     "Ladder transitions, by direction", "direction"},
    {"tamper_overload_breaker_open", MetricKind::kGauge,
     "1 while the report circuit breaker is tripped", ""},
    {"tamper_overload_breaker_trips_total", MetricKind::kCounter,
     "Circuit breaker trips (incl. failed probes)", ""},
    {"tamper_overload_reports_skipped_total", MetricKind::kCounter,
     "Periodic report emissions skipped while the breaker was open", ""},

    // Fleet Merger collector (fleet/merger). Results: received, accepted,
    // duplicate, stale, late, rejected.
    {"tamper_fleet_partials_total", MetricKind::kCounter,
     "Partial aggregates by disposition at the merger", "result"},
    {"tamper_fleet_skew_detected_total", MetricKind::kCounter,
     "Bounded-skew guard trips (PoP clock suspect)", ""},
    {"tamper_fleet_pops_reporting", MetricKind::kGauge, "PoPs with any partial received",
     ""},
    {"tamper_fleet_pops_expected", MetricKind::kGauge, "PoPs configured", ""},
    {"tamper_fleet_watermark_epoch", MetricKind::kGauge,
     "Newest epoch considered closed", ""},
    {"tamper_fleet_pops_shedding", MetricKind::kGauge,
     "PoPs whose newest partial reports overload-control admission sheds", ""},

    // AnomalyWatchdog (obs/anomaly). Suppression reasons: degraded, gap.
    {"tamper_anomaly_events_total", MetricKind::kCounter,
     "Rate-shift anomaly events detected (high-water across rescans)", ""},
    {"tamper_anomaly_points_scanned_total", MetricKind::kCounter,
     "Per-epoch deltas evaluated by the watchdog (high-water across rescans)", ""},
    {"tamper_anomaly_suppressed_total", MetricKind::kCounter,
     "Deltas the watchdog refused to score (high-water across rescans)", "reason"},
    {"tamper_anomaly_exemplars", MetricKind::kGauge,
     "Anomaly exemplars held in the bounded ring", ""},

    // PcapReader and ConnectionSampler mirrors, registered only by
    // `tamperscope classify`. Skip reasons: unparseable, oversize, truncated.
    {"tamper_reader_frames_total", MetricKind::kCounter, "Frames read from the capture",
     ""},
    {"tamper_reader_skipped_total", MetricKind::kCounter, "Frames the reader skipped",
     "reason"},
    {"tamper_reader_resyncs_total", MetricKind::kCounter, "Successful record resyncs",
     ""},
    {"tamper_reader_resync_failures_total", MetricKind::kCounter,
     "Resync scans that found no plausible header", ""},
    {"tamper_sampler_packets_total", MetricKind::kCounter,
     "Packets offered to the sampler", ""},
    {"tamper_sampler_malformed_total", MetricKind::kCounter,
     "Hostile/garbage packets dropped before flow lookup", ""},
    {"tamper_sampler_evicted_total", MetricKind::kCounter,
     "Flows force-closed at the max_flows overload limit", ""},
    {"tamper_sampler_connections_total", MetricKind::kCounter, "Connections assembled",
     ""},
    {"tamper_sampler_sampled_total", MetricKind::kCounter, "Connections sampled", ""},
    {"tamper_classify_flows_total", MetricKind::kCounter, "Flows classified", ""},
};

namespace internal {

[[nodiscard]] constexpr bool catalog_names_valid() {
  for (const Family& f : kFamilies)
    if (!f.name.starts_with("tamper_") || !valid_metric_name(f.name) ||
        (!f.label.empty() && !valid_metric_name(f.label)))
      return false;
  return true;
}

[[nodiscard]] constexpr bool catalog_names_unique() {
  for (std::size_t i = 0; i < std::size(kFamilies); ++i)
    for (std::size_t j = 0; j < i; ++j)
      if (kFamilies[i].name == kFamilies[j].name) return false;
  return true;
}

}  // namespace internal

static_assert(internal::catalog_names_valid(),
              "every family name is tamper_ + snake_case, every label snake_case");
static_assert(internal::catalog_names_unique(), "a family name appears twice");

/// The catalog entry called `name`. consteval: a name missing from the
/// catalog is a compile error ("... is not a constant expression").
consteval const Family& family(std::string_view name) {
  for (const Family& f : kFamilies)
    if (f.name == name) return f;
  throw "not a catalogued metric family";
}

}  // namespace tamper::obs
