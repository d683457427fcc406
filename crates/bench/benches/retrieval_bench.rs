//! Criterion benchmarks for the retrieval layer: BM25 search with query
//! expansion, the SIM attribute oracle, conceptual similarity, NDCG, and
//! the end-to-end Algorithm-1 ranking path.

use criterion::{criterion_group, criterion_main, Criterion};
use saccs_bench::{gold_index, query_gains, table2_corpus};
use saccs_core::{RankRequest, SaccsConfig, SaccsService, SearchApi};
use saccs_data::queries::query_sets;
use saccs_data::CrowdSimulator;
use saccs_eval::ndcg::ndcg;
use saccs_index::index::IndexConfig;
use saccs_ir::{Bm25Config, Bm25Index, SimBaseline};
use saccs_text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};

fn bench_retrieval(c: &mut Criterion) {
    let corpus = table2_corpus(0.25);
    let docs_owned: Vec<(usize, Vec<String>)> = (0..corpus.entities.len())
        .map(|e| {
            (
                e,
                corpus
                    .reviews_of(e)
                    .iter()
                    .map(|&ri| corpus.reviews[ri].text())
                    .collect(),
            )
        })
        .collect();
    let docs: Vec<(usize, Vec<&str>)> = docs_owned
        .iter()
        .map(|(e, t)| (*e, t.iter().map(|x| x.as_str()).collect()))
        .collect();
    let bm25 = Bm25Index::build(
        docs,
        corpus.entities.len(),
        Lexicon::new(Domain::Restaurants),
        Bm25Config::default(),
    );
    c.bench_function("ir/bm25_two_tag_query", |b| {
        b.iter(|| bm25.search("delicious food friendly waiters"))
    });

    let sim = SimBaseline::new(&corpus.entities);
    let crowd = CrowdSimulator::default();
    let sets = query_sets(5, 1);
    let query = &sets[1].1[0]; // a medium query
    let gains = query_gains(query, &crowd, &corpus);
    c.bench_function("ir/sim_oracle_2_attributes", |b| {
        b.iter(|| sim.best_ndcg(&gains, 10, 2))
    });

    let similarity = ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants));
    let t1 = SubjectiveTag::new("delicious", "food");
    let t2 = SubjectiveTag::new("creative", "cooking");
    c.bench_function("similarity/tag_pair", |b| {
        b.iter(|| similarity.tag_similarity(&t1, &t2))
    });

    c.bench_function("eval/ndcg_at_10_over_70_entities", |b| {
        let ranked: Vec<f32> = gains.iter().copied().take(10).collect();
        b.iter(|| ndcg(&ranked, &gains, 10))
    });

    let live = gold_index(&corpus, IndexConfig::default(), 18);
    let index = live.pin();
    let known = SubjectiveTag::new("delicious", "food");
    c.bench_function("index/exact_lookup_btreemap", |b| {
        b.iter(|| index.lookup(&known))
    });
    let service = SaccsService::with_live_index(live, SaccsConfig::default());
    let api = SearchApi::new(&corpus.entities);
    let tags: Vec<SubjectiveTag> = query.tags.iter().map(|t| t.tag()).collect();
    let request = RankRequest::tags(tags);
    c.bench_function("saccs/algorithm1_rank_medium_query", |b| {
        b.iter(|| service.rank_request(&request, &api))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_retrieval
}
criterion_main!(benches);
