//! A multi-turn conversational search session (§3's architecture end to
//! end): intent recognition → slot filling → objective search API →
//! subjective filtering → dynamic index adaptation via the user tag
//! history (Figure 1).
//!
//! Run with: `cargo run --release --example conversational_search`

use saccs::core::{Intent, RankRequest, RuleNlu, SaccsBuilder, SearchApi};
use saccs::data::yelp::{YelpConfig, YelpCorpus};
use saccs::text::{Domain, Lexicon};

fn main() {
    println!("== Conversational subjective search ==\n");
    let corpus = YelpCorpus::generate(
        Lexicon::new(Domain::Restaurants),
        &YelpConfig {
            n_entities: 25,
            n_reviews: 350,
            seed: 21,
            ..Default::default()
        },
    );
    println!("Training SACCS (quick profile)...");
    let saccs = SaccsBuilder::quick().build(&corpus);
    let nlu = RuleNlu::new();
    let api = SearchApi::new(&corpus.entities);

    let turns = [
        "hello there",
        "I want an Italian restaurant in Montreal with quick service",
        // "scrumptious" food is not an index tag: similarity fallback +
        // user tag history.
        "any place with scrumptious food and friendly waiters?",
        "I am looking for a restaurant with a romantic ambiance",
    ];

    for utterance in turns {
        println!("\nUser: \"{utterance}\"");
        let (intent, slots) = nlu.parse(utterance);
        match intent {
            Intent::SmallTalk => {
                println!("Bot:  Hi! Ask me for a restaurant.");
                continue;
            }
            Intent::Unknown => {
                println!("Bot:  Sorry, I only know restaurants.");
                continue;
            }
            Intent::SearchRestaurant => {}
        }
        println!("  intent: SearchRestaurant, slots: {slots:?}");
        let tags = saccs
            .service
            .extract_tags(utterance)
            .expect("quick profile always trains an extractor");
        println!(
            "  subjective tags: [{}]",
            tags.iter()
                .map(|t| t.phrase())
                .collect::<Vec<_>>()
                .join(", ")
        );
        let request = RankRequest::utterance(utterance).with_slots(slots);
        let response = saccs.service.rank_request(&request, &api);
        println!("Bot:  Here is what I found:");
        for (rank, (entity, score)) in response.results.iter().take(3).enumerate() {
            println!("        {}. {} ({score:.2})", rank + 1, api.name(*entity));
        }
    }

    // Figure 1's adaptation loop: unknown tags asked during the session
    // become first-class index tags at the next indexing round.
    let pending = saccs.service.index().history().len();
    println!("\nUnknown tags collected in the user tag history: {pending}");
    let added = saccs.service.live_index().reindex_pending();
    println!(
        "Re-indexing round added {added} new tags; index now has {} tags.",
        saccs.service.index().len()
    );
}
