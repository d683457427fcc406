//! Integration: the observability layer sees the real Algorithm-1 span
//! tree.
//!
//! Builds a quick-profile service, installs the in-memory collector, and
//! drives one full `SaccsService::rank_request` call (utterance → search
//! API → extraction → index probe → aggregation → padding), asserting the
//! collector records every stage with the right nesting — names and
//! structure, not timings, which are machine-dependent.
//!
//! The exporter slot is process-global, so this file keeps exactly one
//! `#[test]`; Cargo gives each integration-test file its own process.

use saccs::core::{RankRequest, SaccsBuilder, SearchApi};
use saccs::data::yelp::{YelpConfig, YelpCorpus};
use saccs::obs::{InMemoryCollector, SpanEvent};
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
    // Build BEFORE installing the exporter: training emits its own spans
    // (tagger.train, pairing.fit, ...) and the assertion below wants the
    // tree of one rank call only.
    let trained = SaccsBuilder::quick().build(&corpus);
    assert!(!saccs::obs::enabled(), "exporter leaked in from elsewhere");

    let collector = Arc::new(InMemoryCollector::new());
    saccs::obs::install(collector.clone());
    let api = SearchApi::new(&corpus.entities);
    let ranked = trained.service.rank_request(
        &RankRequest::utterance("I want a restaurant with delicious food and a nice staff"),
        &api,
    );
    saccs::obs::uninstall();
    assert!(
        !ranked.results.is_empty(),
        "rank returned nothing to observe"
    );
    assert!(ranked.is_full_fidelity(), "{:?}", ranked.degradation.events);

    // Stage names and nesting: the five Algorithm-1 stages as direct
    // children of the root span, in execution order.
    let tree = collector.enter_tree();
    assert_eq!(
        tree,
        vec![
            ("algo1.rank", 0),
            ("algo1.search_api", 1),
            ("algo1.extract", 1),
            ("algo1.probe", 1),
            ("algo1.aggregate", 1),
            ("algo1.pad", 1),
        ],
        "unexpected span tree"
    );

    // Every enter has a matching exit at the same depth, innermost first.
    let events = collector.events();
    let enters = events
        .iter()
        .filter(|e| matches!(e, SpanEvent::Enter { .. }))
        .count();
    let exits: Vec<(&str, usize)> = events
        .iter()
        .filter_map(|e| match e {
            SpanEvent::Exit { name, depth, .. } => Some((*name, *depth)),
            _ => None,
        })
        .collect();
    assert_eq!(enters, exits.len(), "unbalanced span events: {events:?}");
    assert_eq!(
        exits.last(),
        Some(&("algo1.rank", 0)),
        "root span must exit last"
    );

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
