//! Interactive subjective-search chatbot.
//!
//! A REPL over the full SACCS stack: type utterances like
//! *"I want an Italian restaurant in Montreal with a romantic ambiance"*
//! and get subjectively re-ranked results; unknown tags accumulate in the
//! user tag history and `:reindex` runs an adaptation round (Figure 1).
//! A user profile builds up across the session and personalizes ranking.
//!
//! Run with: `cargo run --release --example chat`
//! (with no terminal attached, a scripted demo conversation plays instead).
//!
//! Commands: `:index` (show the tag index), `:profile` (your interests),
//! `:reindex` (adaptation round), `:quit`.

use saccs::core::{
    Conversation, Intent, RankRequest, RuleNlu, SaccsBuilder, SearchApi, UserProfile,
};
use saccs::data::yelp::{YelpConfig, YelpCorpus};
use saccs::text::{ConceptualSimilarity, Domain, Lexicon};
use std::io::{BufRead, IsTerminal};

fn main() {
    println!("Booting SACCS (quick profile, ~1 min of training)...");
    let corpus = YelpCorpus::generate(
        Lexicon::new(Domain::Restaurants),
        &YelpConfig {
            n_entities: 30,
            n_reviews: 450,
            seed: 1234,
            ..Default::default()
        },
    );
    let saccs = SaccsBuilder::quick().build(&corpus);
    let nlu = RuleNlu::new();
    let api = SearchApi::new(&corpus.entities);
    let mut profile = UserProfile::new();
    let mut conversation = Conversation::new();
    let similarity = ConceptualSimilarity::new(Lexicon::new(Domain::Restaurants));

    println!("Ready. Ask for a restaurant; refinements accumulate across turns");
    println!("(\"forget the …\" retracts a filter; \":new\" starts over; \":quit\" exits).\n");

    let stdin = std::io::stdin();
    let interactive = stdin.is_terminal();
    // Piped stdin is real input; the scripted demo only plays when there
    // is no terminal AND nothing was piped in.
    let mut piped: Vec<String> = Vec::new();
    if !interactive {
        for line in stdin.lock().lines() {
            match line {
                Ok(l) => piped.push(l),
                Err(_) => break,
            }
        }
    }
    let demo = [
        "I want an Italian restaurant in Montreal with delicious food",
        "somewhere with a romantic ambiance please",
        "actually forget the romantic ambiance",
        ":profile",
        ":reindex",
        ":quit",
    ];
    let mut scripted: Vec<String> = if interactive {
        Vec::new()
    } else if piped.is_empty() || piped.iter().all(|l| l.trim().is_empty()) {
        demo.iter().map(|s| s.to_string()).collect()
    } else {
        piped
    };
    let mut script_iter = scripted.drain(..);

    loop {
        let line = if interactive {
            let mut buf = String::new();
            if stdin.lock().read_line(&mut buf).unwrap_or(0) == 0 {
                break;
            }
            buf.trim().to_string()
        } else {
            match script_iter.next() {
                Some(l) => {
                    println!("you> {}", l.trim());
                    l.trim().to_string()
                }
                None => break,
            }
        };
        if line.is_empty() {
            continue;
        }
        match line.as_str() {
            ":quit" | ":q" => break,
            ":index" => {
                print!(
                    "{}",
                    saccs
                        .service
                        .index()
                        .render_table(3, |id| api.name(id).to_string())
                );
                continue;
            }
            ":profile" => {
                let top = profile.top_interests(5);
                if top.is_empty() {
                    println!("bot> no interests recorded yet.");
                } else {
                    println!("bot> your standing interests:");
                    for (t, mass) in top {
                        println!("       {t} (weight {mass:.0})");
                    }
                }
                continue;
            }
            ":new" => {
                conversation.reset();
                println!("bot> fresh search — what are you looking for?");
                continue;
            }
            ":reindex" => {
                let pending = saccs.service.index().history().len();
                let added = saccs.service.live_index().reindex_pending();
                println!(
                    "bot> adaptation round: {added} of {pending} pending tags indexed; \
                     {} tags total.",
                    saccs.service.index().len()
                );
                continue;
            }
            _ => {}
        }

        let (intent, slots) = nlu.parse(&line);
        match intent {
            Intent::SmallTalk => {
                println!("bot> hi! ask me for a restaurant.");
                continue;
            }
            // Mid-conversation, unrecognized utterances default to search
            // refinements ("actually forget the romantic ambiance").
            Intent::Unknown if conversation.turns() == 0 => {
                println!("bot> I only know restaurants, sorry.");
                continue;
            }
            Intent::Unknown | Intent::SearchRestaurant => {}
        }
        let turn_tags = saccs.service.extract_tags(&line).unwrap_or_default();
        let effect = conversation.absorb(&line, slots, turn_tags, &similarity);
        if !effect.added().is_empty() {
            println!(
                "bot> added filters: {}",
                effect
                    .added()
                    .iter()
                    .map(|t| t.phrase())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            profile.observe(effect.added());
        }
        if !effect.removed().is_empty() {
            println!(
                "bot> dropped filters: {}",
                effect
                    .removed()
                    .iter()
                    .map(|t| t.phrase())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        let candidates = api.search(conversation.slots());
        if candidates.is_empty() {
            println!(
                "bot> no {} places in {} here — I only cover Italian Montreal.",
                conversation.slots().cuisine.as_deref().unwrap_or("such"),
                conversation
                    .slots()
                    .location
                    .as_deref()
                    .unwrap_or("that area"),
            );
            continue;
        }
        let active = conversation.tags().to_vec();
        if !active.is_empty() {
            println!(
                "bot> active filters: {}",
                active
                    .iter()
                    .map(|t| t.phrase())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        let request = RankRequest::tags(active)
            .with_slots(conversation.slots().clone())
            .with_profile(profile.clone(), 0.4);
        let response = saccs.service.rank_request(&request, &api);
        println!("bot> top matches:");
        for (rank, (entity, score)) in response.results.iter().take(3).enumerate() {
            println!("       {}. {} ({score:.2})", rank + 1, api.name(*entity));
        }
    }
    println!("bot> bye!");
}
