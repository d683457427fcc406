//! Criterion benchmarks for the subjective-tag index: construction
//! (Equation 1 over a quarter-scale corpus), exact probes, similarity-
//! fallback probes, and the re-indexing round.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use saccs_bench::{gold_index, table2_corpus};
use saccs_index::index::IndexConfig;
use saccs_text::SubjectiveTag;

fn bench_index(c: &mut Criterion) {
    // A quarter-scale corpus keeps construction benches fast while
    // preserving realistic posting-list sizes.
    let corpus = table2_corpus(0.25);

    c.bench_function("index/build_18_tags", |b| {
        b.iter(|| gold_index(&corpus, IndexConfig::default(), 18))
    });

    let index = gold_index(&corpus, IndexConfig::default(), 18).pin();
    let known = SubjectiveTag::new("delicious", "food");
    c.bench_function("index/probe_known_tag", |b| {
        b.iter(|| index.probe_readonly(&known))
    });

    let unknown = SubjectiveTag::new("scrumptious", "lasagna");
    c.bench_function("index/probe_unknown_tag_similarity_fallback", |b| {
        b.iter(|| index.probe_readonly(&unknown))
    });

    c.bench_function("index/reindex_round_one_new_tag", |b| {
        b.iter_batched(
            || {
                let idx = gold_index(&corpus, IndexConfig::default(), 18);
                let _ = idx.pin().probe(&SubjectiveTag::new("dreamy", "vibe"));
                idx
            },
            |idx| idx.reindex_pending(),
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_index
}
criterion_main!(benches);
