//! Figure 1 walkthrough, reproduced literally: three entities (E1, E3, E5)
//! with one review each, an index holding {good food, great atmosphere},
//! and the extractor → similarity checker → indexer flow, followed by the
//! romantic-ambiance adaptation round.
//!
//! Run with: `cargo run --example indexing_walkthrough`
//! (uses gold extraction, so it is instant — the point is the index logic).

use saccs::index::index::IndexConfig;
use saccs::index::{LiveConfig, LiveIndex};
use saccs::text::{ConceptualSimilarity, Domain, Lexicon, SubjectiveTag};

fn tag(op: &str, asp: &str) -> SubjectiveTag {
    SubjectiveTag::new(op, asp)
}

fn main() {
    println!("== Figure 1: subjective tag indexing ==\n");
    let lexicon = Lexicon::new(Domain::Restaurants);
    // Memory-only: every review stays in the one mem-segment.
    let index = LiveIndex::new(
        ConceptualSimilarity::new(lexicon),
        IndexConfig::default(),
        LiveConfig {
            seal_every: 0,
            max_segments: 0,
        },
    );

    // The figure's three reviews and their extracted tags.
    println!("E1 review: \"This restaurant serves good food\"   -> {{good food}}");
    println!("E3 review: \"Superb atmosphere in this place\"    -> {{superb atmosphere}}");
    println!("E5 review: \"Amazing pizza!\"                     -> {{amazing pizza}}");
    index.add_review(1, &[tag("good", "food")]);
    index.add_review(3, &[tag("superb", "atmosphere")]);
    index.add_review(5, &[tag("amazing", "pizza")]);

    println!("\nIndex tags: {{good food, great atmosphere}}");
    index.add_tags(&[tag("good", "food"), tag("great", "atmosphere")]);
    let view = index.pin();
    println!("\n{}", view.render_table(5, |id| format!("E{id}")));
    println!("E1 and E5 both map to 'good food' (pizza is-a food, amazing ~ good);");
    println!("E3 maps only to 'great atmosphere', exactly as in the figure.\n");

    // The adaptation mechanism.
    let query = tag("romantic", "ambiance");
    println!("User asks for \"romantic ambiance\" — unknown to the index.");
    let mut results = index.probe_pinned(&view, &query);
    // A probe answers in slot order; rank by score to show it.
    results.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    println!("Real-time answer from similar tags: {results:?}");
    println!(
        "User tag history now holds {} pending tag(s).",
        index.pending_count()
    );

    let added = index.reindex_pending();
    println!("\nNext indexing round: {added} tag(s) added.");
    println!("{}", index.pin().render_table(5, |id| format!("E{id}")));
}
