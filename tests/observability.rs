//! Integration: the observability layer sees the real Algorithm-1 stage
//! sequence.
//!
//! Builds a quick-profile service, switches span timing on, and drives
//! one full `SaccsService::rank_request` call (utterance → search API →
//! extraction → index probe → aggregation → padding) under a
//! `TraceContext`, asserting the trace records every stage enter and
//! exit with the right nesting — names and order, not timings, which
//! are machine-dependent — and that the timed spans and probe counters
//! landed in the registry, the extraction sub-spans (`extract.encode`,
//! `.emit`, `.viterbi`, `.pair`) among them.
//!
//! Span timing is process-global, so this file keeps exactly one
//! `#[test]`; Cargo gives each integration-test file its own process.

use saccs::core::{RankRequest, SaccsBuilder, SearchApi};
use saccs::data::yelp::{YelpConfig, YelpCorpus};
use saccs::obs::trace::install;
use saccs::obs::{TraceContext, TraceEvent};
use saccs::text::{Domain, Lexicon};
use std::sync::Arc;

#[test]
fn rank_call_produces_the_five_stage_span_tree() {
    let corpus = YelpCorpus::generate(
        Lexicon::new(Domain::Restaurants),
        &YelpConfig {
            n_entities: 16,
            n_reviews: 260,
            seed: 42,
            ..Default::default()
        },
    );
    // Build BEFORE switching timing on, so only the rank call below is
    // timed: training emits its own spans (tagger.train, pairing.fit,
    // ...).
    let trained = SaccsBuilder::quick().build(&corpus);
    assert!(
        !saccs::obs::enabled(),
        "span timing leaked in from elsewhere"
    );

    // Registry-only spans inside extraction. Assert that their sample
    // counts rise rather than their values: the switch is process-wide.
    const EXTRACT_SPANS: [&str; 4] = [
        "extract.encode",
        "extract.emit",
        "extract.viterbi",
        "extract.pair",
    ];
    let samples = |name: &str| saccs::obs::registry().histogram(name).count();
    let before: Vec<u64> = EXTRACT_SPANS.iter().map(|n| samples(n)).collect();

    saccs::obs::set_enabled(true);
    let api = SearchApi::new(&corpus.entities);
    let ctx = TraceContext::new(1);
    let ranked = {
        let _scope = install(Arc::clone(&ctx));
        trained.service.rank_request(
            &RankRequest::utterance("I want a restaurant with delicious food and a nice staff"),
            &api,
        )
    };
    saccs::obs::set_enabled(false);
    assert!(
        !ranked.results.is_empty(),
        "rank returned nothing to observe"
    );
    assert!(ranked.is_full_fidelity(), "{:?}", ranked.degradation.events);

    // Stage names and nesting: the five Algorithm-1 stages entered and
    // exited in execution order as direct children of the root span,
    // which exits last.
    let stages: Vec<String> = ctx
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::StageEnter { .. } | TraceEvent::StageExit { .. }
            )
        })
        .map(TraceEvent::normal)
        .collect();
    let mut expected = vec!["stage_enter:algo1.rank".to_string()];
    for stage in ["search_api", "extract", "probe", "aggregate", "pad"] {
        expected.push(format!("stage_enter:algo1.{stage}"));
        expected.push(format!("stage_exit:algo1.{stage}"));
    }
    expected.push("stage_exit:algo1.rank".to_string());
    assert_eq!(stages, expected, "unexpected stage sequence");

    // They stay out of the request trace (no `algo1.`/`serve.` prefix)
    // but reach the registry.
    for (name, was) in EXTRACT_SPANS.iter().zip(&before) {
        assert!(samples(name) > *was, "{name} recorded no samples");
    }

    // The probe stage really hit the index: per-stage histograms and the
    // exact-hit/fallback counters landed in the global registry.
    let histograms = saccs::obs::registry().histogram_snapshots();
    for stage in [
        "algo1.rank",
        "algo1.search_api",
        "algo1.extract",
        "algo1.probe",
        "algo1.aggregate",
        "algo1.pad",
    ] {
        let snap = histograms
            .iter()
            .find(|(name, _)| name == stage)
            .map(|(_, s)| s)
            .unwrap_or_else(|| panic!("no histogram for {stage}"));
        assert!(snap.count >= 1, "{stage} recorded no samples");
    }
    let counters = saccs::obs::registry().counter_values();
    let probes: u64 = counters
        .iter()
        .filter(|(name, _)| name == "index.probe.exact" || name == "index.probe.fallback")
        .map(|(_, v)| v)
        .sum();
    assert!(
        probes >= 1,
        "index probe counters never moved: {counters:?}"
    );
}
