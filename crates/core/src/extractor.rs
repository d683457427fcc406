//! The subjective-tag extraction pipeline (Figure 2: tagging → pairing).

use saccs_pairing::FrozenPairer;
use saccs_tagger::FrozenTagger;
use saccs_text::iob::spans_from_tags;
use saccs_text::sentence::split_sentences;
use saccs_text::{tokenize_lower, Lexicon, Span, SpanKind, SubjectiveTag};

/// Extracts subjective tags from free text by tagging aspect/opinion spans
/// (§4) and pairing them (§5). This is the `extract_tags` function of
/// Algorithm 1 and the extractor box of Figure 1. Its models are frozen
/// off the autograd tape, so one `Send + Sync` instance serves every
/// thread.
pub struct TagExtractor {
    tagger: FrozenTagger,
    pairing: FrozenPairer,
    /// The gazetteer behind span repair and the dictionary fallback.
    lexicon: Lexicon,
}

impl TagExtractor {
    /// An extractor over a frozen tagger and pairer, with `lexicon` as
    /// its gazetteer. Lexicon-guided span repair splits a
    /// decoded multiword span whose prefix is a known opinion phrase and
    /// whose suffix is a known aspect term into the two spans. This is
    /// standard gazetteer-constrained decoding; it fixes the frequent
    /// neural-tagger failure of fusing an adjacent opinion+aspect bigram
    /// ("delicious food") into one span. A sentence the neural pipeline
    /// extracts nothing from falls back to dictionary matching over the
    /// same lexicon. Each sentence is encoded once, by the tagger's
    /// encoder, and the pairer reads those features: the two must share
    /// the encoder they were trained over, as
    /// [`SaccsBuilder`](crate::SaccsBuilder)'s do.
    pub fn new(tagger: FrozenTagger, pairing: FrozenPairer, lexicon: Lexicon) -> Self {
        TagExtractor {
            tagger,
            pairing,
            lexicon,
        }
    }

    /// Deterministic gazetteer extraction, used as a fallback when the
    /// neural pipeline extracts nothing from a sentence so the user-facing
    /// hot path (utterances, §3.2) degrades to high-precision dictionary
    /// matching instead of silence. Two surface orders are recognized:
    /// opinion-then-aspect ("delicious food", optionally over one filler
    /// token) and aspect-then-opinion across a short gap ("the food is
    /// delicious").
    fn lexicon_fallback(&self, tokens: &[String]) -> Vec<SubjectiveTag> {
        let mut out = self.fallback_opinion_first(tokens);
        if out.is_empty() {
            out = self.fallback_aspect_first(tokens);
        }
        out
    }

    /// "the food is delicious": known aspect term, then a known opinion
    /// phrase within a 3-token window.
    fn fallback_aspect_first(&self, tokens: &[String]) -> Vec<SubjectiveTag> {
        let lex = &self.lexicon;
        let mut out = Vec::new();
        let n = tokens.len();
        let mut i = 0usize;
        while i < n {
            let mut asp_end = None;
            for len in (1..=2usize.min(n - i)).rev() {
                if lex.aspect_concept(&tokens[i..i + len].join(" ")).is_some() {
                    asp_end = Some(i + len);
                    break;
                }
            }
            let Some(asp_end) = asp_end else {
                i += 1;
                continue;
            };
            let mut found = None;
            'gap: for skip in 0..=2usize {
                let o_start = asp_end + skip;
                for len in (1..=3usize.min(n.saturating_sub(o_start))).rev() {
                    if lex
                        .opinion_group(&tokens[o_start..o_start + len].join(" "))
                        .is_some()
                    {
                        found = Some((o_start, o_start + len));
                        break 'gap;
                    }
                }
            }
            if let Some((o_start, o_end)) = found {
                out.push(SubjectiveTag::new(
                    &tokens[o_start..o_end].join(" "),
                    &tokens[i..asp_end].join(" "),
                ));
                i = o_end;
            } else {
                i = asp_end;
            }
        }
        out
    }

    /// "delicious food": known opinion phrase, then a known aspect term.
    fn fallback_opinion_first(&self, tokens: &[String]) -> Vec<SubjectiveTag> {
        let lex = &self.lexicon;
        let mut out = Vec::new();
        let n = tokens.len();
        let mut i = 0usize;
        while i < n {
            // Longest opinion phrase starting at i.
            let mut op_end = None;
            for len in (1..=3usize.min(n - i)).rev() {
                let phrase = tokens[i..i + len].join(" ");
                if lex.opinion_group(&phrase).is_some() {
                    op_end = Some(i + len);
                    break;
                }
            }
            let Some(op_end) = op_end else {
                i += 1;
                continue;
            };
            // Aspect directly after, optionally skipping one filler token.
            let mut found = None;
            for skip in 0..=1usize {
                let a_start = op_end + skip;
                for len in (1..=2usize.min(n.saturating_sub(a_start))).rev() {
                    let phrase = tokens[a_start..a_start + len].join(" ");
                    if lex.aspect_concept(&phrase).is_some() {
                        found = Some((a_start, a_start + len));
                        break;
                    }
                }
                if found.is_some() {
                    break;
                }
            }
            if let Some((a_start, a_end)) = found {
                out.push(SubjectiveTag::new(
                    &tokens[i..op_end].join(" "),
                    &tokens[a_start..a_end].join(" "),
                ));
                i = a_end;
            } else {
                i = op_end;
            }
        }
        out
    }

    /// Apply the gazetteer split rule to one span list.
    fn repair(&self, tokens: &[String], spans: Vec<Span>) -> Vec<Span> {
        let lex = &self.lexicon;
        let mut out = Vec::with_capacity(spans.len());
        for s in spans {
            if s.len() < 2 {
                out.push(s);
                continue;
            }
            let mut split_at = None;
            for cut in s.start + 1..s.end {
                let prefix = tokens[s.start..cut].join(" ");
                let suffix = tokens[cut..s.end].join(" ");
                if lex.opinion_group(&prefix).is_some() && lex.aspect_concept(&suffix).is_some() {
                    split_at = Some(cut);
                    break;
                }
            }
            match split_at {
                Some(cut) => {
                    out.push(Span::opinion(s.start, cut));
                    out.push(Span::aspect(cut, s.end));
                }
                None => out.push(s),
            }
        }
        out
    }

    pub fn tagger(&self) -> &FrozenTagger {
        &self.tagger
    }

    pub fn pairing(&self) -> &FrozenPairer {
        &self.pairing
    }

    /// Inert, `f(self)`: every thread shares this one `Sync` extractor.
    /// Kept so existing callers compile.
    pub fn with_replica<R>(&self, f: impl FnOnce(&TagExtractor) -> R) -> R {
        f(self)
    }

    /// Extract subjective tags from one sentence's tokens. The sentence
    /// is encoded once; the tagger and the pairer read the same features.
    pub fn extract_from_tokens(&self, tokens: &[String]) -> Vec<SubjectiveTag> {
        if tokens.is_empty() {
            return Vec::new();
        }
        let features = self.tagger.bert().features(tokens);
        let tags = self.tagger.model().predict(&features);
        let spans = self.repair(tokens, spans_from_tags(&tags));
        let aspects: Vec<Span> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Aspect)
            .copied()
            .collect();
        let opinions: Vec<Span> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Opinion)
            .copied()
            .collect();
        if aspects.is_empty() || opinions.is_empty() {
            return self.lexicon_fallback(tokens);
        }
        let tags: Vec<SubjectiveTag> = self
            .pairing
            .pair_spans_with(&features, tokens, &aspects, &opinions)
            .into_iter()
            .map(|(a, o)| SubjectiveTag::new(&o.text(tokens), &a.text(tokens)))
            // Spans over punctuation-only tokens normalize to empty parts;
            // an empty-sided tag is meaningless downstream.
            .filter(|t| !t.opinion.is_empty() && !t.aspect.is_empty())
            .collect();
        if tags.is_empty() {
            // Neural spans existed but every pairing was rejected or
            // degenerate: same dictionary fallback as the no-span case.
            return self.lexicon_fallback(tokens);
        }
        tags
    }

    /// Inert: extraction encodes each sentence once and keeps no memo to
    /// warm. Kept so existing callers compile.
    pub fn warm_features(&self, _sentences: &[Vec<String>]) {}

    /// Extract subjective tags from free text (reviews or utterances):
    /// sentence-split, tokenize, then tag and pair per sentence.
    pub fn extract(&self, text: &str) -> Vec<SubjectiveTag> {
        sentence_tokens(text)
            .iter()
            .flat_map(|tokens| self.extract_from_tokens(tokens))
            .collect()
    }

    /// Fallible [`TagExtractor::extract`] behind the `algo1.extract`
    /// failpoint, for the resilient service path: a deployed extractor
    /// sits on a model server that can go away mid-request.
    pub fn try_extract(&self, text: &str) -> Result<Vec<SubjectiveTag>, saccs_fault::FaultError> {
        saccs_fault::failpoint!("algo1.extract")?;
        Ok(self.extract(text))
    }
}

/// The exact sentence-splitting + tokenization [`TagExtractor::extract`]
/// performs on an utterance, exposed so callers can run (or time) the
/// per-sentence stages themselves.
pub fn sentence_tokens(text: &str) -> Vec<Vec<String>> {
    split_sentences(text)
        .into_iter()
        .map(|sentence| {
            tokenize_lower(&sentence)
                .into_iter()
                .map(|t| t.text)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use saccs_data::{Dataset, DatasetId};
    use saccs_embed::{build_vocab, FrozenMiniBert, MiniBert, MiniBertConfig};
    use saccs_pairing::{PairingPipeline, PipelineConfig};
    use saccs_tagger::{Tagger, TrainConfig};
    use saccs_text::Domain;
    use std::sync::Arc;

    /// A (barely trained) tagger and pairing pipeline over one frozen
    /// encoder, and that encoder.
    fn tiny_models() -> (Arc<FrozenMiniBert>, Tagger, PairingPipeline) {
        let vocab = build_vocab(&[Domain::Restaurants, Domain::Electronics, Domain::Hotels]);
        let bert = MiniBert::new(
            vocab,
            MiniBertConfig {
                dim: 16,
                heads: 2,
                layers: 2,
                max_len: 48,
                seed: 21,
            },
        );
        let bert = Arc::new(bert.freeze());
        let data = Dataset::generate_scaled(DatasetId::S4, 0.03);
        let tagger = Tagger::train(
            Arc::clone(&bert),
            &data.train,
            &TrainConfig {
                epochs: 1,
                ..Default::default()
            },
        );
        let dev: Vec<_> = data.test.iter().take(5).cloned().collect();
        let pairing = PairingPipeline::fit(
            Arc::clone(&bert),
            &data.train,
            &dev,
            PipelineConfig {
                discriminative: saccs_pairing::DiscriminativeConfig {
                    epochs: 1,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        (bert, tagger, pairing)
    }

    /// Minimal (barely trained) extractor — these tests exercise the
    /// deterministic fallback paths, not model quality.
    fn tiny_extractor() -> TagExtractor {
        let (_, tagger, pairing) = tiny_models();
        let lexicon = Lexicon::new(Domain::Restaurants);
        TagExtractor::new(tagger.freeze(), pairing.into_pairer(), lexicon)
    }

    #[test]
    fn models_trained_over_one_encoder_share_it() {
        let (bert, tagger, pairing) = tiny_models();
        assert!(Arc::ptr_eq(tagger.bert(), &bert));
        assert!(Arc::ptr_eq(pairing.pairer().bert(), &bert));
    }

    fn toks(s: &str) -> Vec<String> {
        saccs_text::tokenize_lower(s)
            .into_iter()
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn fallback_recognizes_both_surface_orders() {
        let ex = tiny_extractor();
        // Force the fallback by calling it directly on in-lexicon phrases.
        let opinion_first = ex.fallback_opinion_first(&toks("any place with delicious food"));
        assert!(
            opinion_first.contains(&SubjectiveTag::new("delicious", "food")),
            "{opinion_first:?}"
        );
        let aspect_first = ex.fallback_aspect_first(&toks("the food is really good here"));
        assert!(
            aspect_first
                .iter()
                .any(|t| t.aspect == "food" && t.opinion.contains("good")),
            "{aspect_first:?}"
        );
    }

    #[test]
    fn fallback_ignores_out_of_lexicon_junk() {
        let ex = tiny_extractor();
        assert!(ex
            .fallback_opinion_first(&toks("zorgle blarf wibble"))
            .is_empty());
        assert!(ex
            .fallback_aspect_first(&toks("zorgle blarf wibble"))
            .is_empty());
    }

    #[test]
    fn extraction_never_returns_empty_sided_tags() {
        let ex = tiny_extractor();
        for text in [
            "🤖 !!! ~~~",
            "the food is delicious",
            "I want a restaurant with a nice staff",
            "",
        ] {
            for t in ex.extract(text) {
                assert!(
                    !t.opinion.is_empty() && !t.aspect.is_empty(),
                    "{t:?} from {text:?}"
                );
            }
        }
    }

    #[test]
    fn pool_threads_extract_identically() {
        const PROBES: [&str; 3] = [
            "the food is delicious and the staff is friendly",
            "I want a cozy place with a great atmosphere",
            "somewhere with tasty pizza and quick service",
        ];
        let ex = tiny_extractor();
        let expected: Vec<_> = PROBES.iter().map(|p| ex.extract(p)).collect();
        // Widen the pool so the probes run on its worker threads, all
        // reading the one shared extractor.
        saccs_rt::set_threads(saccs_rt::threads().max(2));
        let results: Vec<Vec<_>> =
            saccs_rt::parallel_map(PROBES.len(), 1, |i| ex.extract(PROBES[i]));
        assert_eq!(results, expected, "pool threads diverged");
    }

    #[test]
    fn multiword_fallback_matches() {
        let ex = tiny_extractor();
        // "really good" is a 2-token opinion variant; "wine list" a 2-token
        // aspect member.
        let tags = ex.fallback_opinion_first(&toks("really good wine list"));
        assert!(
            tags.contains(&SubjectiveTag::new("really good", "wine list")),
            "{tags:?}"
        );
    }
}
