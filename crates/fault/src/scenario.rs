//! The scenario DSL: a declarative, printable fault schedule.
//!
//! Grammar (whitespace around tokens is ignored):
//!
//! ```text
//! scenario := rule (';' rule)*
//! rule     := site '=' effect ('@' trigger)?
//! effect   := 'err' | 'err(' kind ')' | 'delay(' millis 'ms)'
//! kind     := 'unavailable' | 'timeout' | 'corrupt'
//! trigger  := call | call '..' call | 'p=' probability
//! ```
//!
//! Examples:
//!
//! ```text
//! algo1.probe=err@2..4               # fail probe calls 2 and 3
//! algo1.search_api=delay(30ms)       # delay every objective search
//! embed.features_batch=err(corrupt)@p=0.25   # fail ~25% of batches
//! index.persist=err(timeout)@1       # fail only the first segment write
//! ```
//!
//! `Display` prints the canonical form of the same grammar, so a test
//! failure can log `(seed, scenario)` and the exact schedule replays
//! from that pair alone.

use std::fmt;
use std::time::Duration;

use crate::error::FaultKind;
use crate::rng::{splitmix, Xoshiro};

/// When a rule fires, as a function of the site's 1-based call index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire on every call.
    Always,
    /// Fire on exactly the given 1-based call.
    Call(u64),
    /// Fire on calls in the half-open range `[start, end)` (1-based).
    Calls(u64, u64),
    /// Fire independently per call with this probability, drawn from a
    /// per-rule deterministic stream (see [`Trigger::fires`]).
    Probability(f64),
}

impl Trigger {
    /// Whether this trigger fires for the given 1-based call index.
    ///
    /// Probability triggers derive their coin flip purely from
    /// `(rule_seed, call)` — a fresh xoshiro256++ stream per call, not a
    /// shared advancing stream — so the *set* of firing call indices is
    /// identical regardless of how many threads interleave at the site.
    pub fn fires(self, call: u64, rule_seed: u64) -> bool {
        match self {
            Trigger::Always => true,
            Trigger::Call(n) => call == n,
            Trigger::Calls(start, end) => call >= start && call < end,
            Trigger::Probability(p) => {
                let mut rng =
                    Xoshiro::seed_from_u64(splitmix(rule_seed ^ call.wrapping_mul(0x9E37_79B9)));
                rng.next_f64() < p
            }
        }
    }
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::Always => write!(f, "always"),
            Trigger::Call(n) => write!(f, "{n}"),
            Trigger::Calls(start, end) => write!(f, "{start}..{end}"),
            Trigger::Probability(p) => write!(f, "p={p}"),
        }
    }
}

/// What a firing rule does to the call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Effect {
    /// Return an injected [`crate::FaultError`] of this kind.
    Error(FaultKind),
    /// Sleep for this long, then let the call proceed normally.
    Delay(Duration),
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Effect::Error(FaultKind::Unavailable) => write!(f, "err"),
            Effect::Error(kind) => write!(f, "err({})", kind.label()),
            Effect::Delay(d) => write!(f, "delay({}ms)", d.as_millis()),
        }
    }
}

/// One site's `(trigger, effect)` rule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// The failpoint site this rule watches, e.g. `algo1.probe`.
    pub site: String,
    /// What happens when the trigger fires.
    pub effect: Effect,
    /// When the rule fires.
    pub trigger: Trigger,
}

impl fmt::Display for FaultRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.site, self.effect)?;
        match self.trigger {
            Trigger::Always => Ok(()),
            trigger => write!(f, "@{trigger}"),
        }
    }
}

/// A parseable, printable, seed-reproducible fault schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scenario {
    /// The rules, in declaration order. Multiple rules may target the
    /// same site; the first rule whose trigger fires wins for errors,
    /// and every firing delay rule sleeps.
    pub rules: Vec<FaultRule>,
}

/// Error from [`Scenario::parse`], carrying the offending rule text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioParseError {
    /// The rule fragment that failed to parse.
    pub rule: String,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault rule `{}`: {}", self.rule, self.reason)
    }
}

impl std::error::Error for ScenarioParseError {}

fn bad(rule: &str, reason: impl Into<String>) -> ScenarioParseError {
    ScenarioParseError {
        rule: rule.to_string(),
        reason: reason.into(),
    }
}

fn parse_effect(rule: &str, text: &str) -> Result<Effect, ScenarioParseError> {
    if text == "err" {
        return Ok(Effect::Error(FaultKind::Unavailable));
    }
    if let Some(kind) = text.strip_prefix("err(").and_then(|r| r.strip_suffix(')')) {
        return FaultKind::parse(kind.trim())
            .map(Effect::Error)
            .ok_or_else(|| bad(rule, format!("unknown fault kind `{kind}`")));
    }
    if let Some(ms) = text
        .strip_prefix("delay(")
        .and_then(|r| r.strip_suffix("ms)"))
    {
        let ms: u64 = ms
            .trim()
            .parse()
            .map_err(|_| bad(rule, format!("bad delay millis `{ms}`")))?;
        return Ok(Effect::Delay(Duration::from_millis(ms)));
    }
    Err(bad(rule, format!("unknown effect `{text}`")))
}

fn parse_trigger(rule: &str, text: &str) -> Result<Trigger, ScenarioParseError> {
    if let Some(p) = text.strip_prefix("p=") {
        let p: f64 = p
            .trim()
            .parse()
            .map_err(|_| bad(rule, format!("bad probability `{p}`")))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(bad(rule, format!("probability {p} outside [0, 1]")));
        }
        return Ok(Trigger::Probability(p));
    }
    if let Some((start, end)) = text.split_once("..") {
        let start: u64 = start
            .trim()
            .parse()
            .map_err(|_| bad(rule, format!("bad range start `{start}`")))?;
        let end: u64 = end
            .trim()
            .parse()
            .map_err(|_| bad(rule, format!("bad range end `{end}`")))?;
        if start == 0 || end <= start {
            return Err(bad(
                rule,
                "call ranges are 1-based and half-open, start < end",
            ));
        }
        return Ok(Trigger::Calls(start, end));
    }
    let call: u64 = text
        .parse()
        .map_err(|_| bad(rule, format!("unknown trigger `{text}`")))?;
    if call == 0 {
        return Err(bad(rule, "call indices are 1-based"));
    }
    Ok(Trigger::Call(call))
}

impl Scenario {
    /// An empty scenario (no rules; arming it still counts calls).
    pub fn new() -> Scenario {
        Scenario::default()
    }

    /// Append a rule, builder style.
    pub fn rule(mut self, site: impl Into<String>, effect: Effect, trigger: Trigger) -> Scenario {
        self.rules.push(FaultRule {
            site: site.into(),
            effect,
            trigger,
        });
        self
    }

    /// Shorthand: fail `site` on every call with [`FaultKind::Unavailable`].
    pub fn fail(self, site: impl Into<String>) -> Scenario {
        self.rule(site, Effect::Error(FaultKind::Unavailable), Trigger::Always)
    }

    /// Parse the DSL described in the module docs.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioParseError> {
        let mut rules = Vec::new();
        for rule_text in text.split(';') {
            let rule_text = rule_text.trim();
            if rule_text.is_empty() {
                continue;
            }
            let (site, rest) = rule_text
                .split_once('=')
                .ok_or_else(|| bad(rule_text, "expected `site=effect[@trigger]`"))?;
            let site = site.trim();
            if site.is_empty() {
                return Err(bad(rule_text, "empty site name"));
            }
            let (effect_text, trigger_text) = match rest.split_once('@') {
                Some((e, t)) => (e.trim(), Some(t.trim())),
                None => (rest.trim(), None),
            };
            let effect = parse_effect(rule_text, effect_text)?;
            let trigger = match trigger_text {
                Some(t) => parse_trigger(rule_text, t)?,
                None => Trigger::Always,
            };
            rules.push(FaultRule {
                site: site.to_string(),
                effect,
                trigger,
            });
        }
        Ok(Scenario { rules })
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, rule) in self.rules.iter().enumerate() {
            if i > 0 {
                write!(f, ";")?;
            }
            write!(f, "{rule}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_through_display() {
        let text = "algo1.probe=err@2..4;algo1.search_api=delay(30ms);\
                    embed.features_batch=err(corrupt)@p=0.25;index.persist=err(timeout)@1";
        let scenario = Scenario::parse(text).expect("parses");
        assert_eq!(scenario.rules.len(), 4);
        let printed = scenario.to_string();
        assert_eq!(Scenario::parse(&printed).expect("reparses"), scenario);
        assert_eq!(printed, text.replace(" ", ""));
    }

    #[test]
    fn parse_rejects_malformed_rules() {
        for text in [
            "algo1.probe",     // no '='
            "=err",            // empty site
            "x=explode",       // unknown effect
            "x=err(gremlins)", // unknown kind
            "x=delay(5s)",     // wrong unit
            "x=err@0",         // 0 is not a valid 1-based call
            "x=err@4..2",      // inverted range
            "x=err@p=1.5",     // probability out of range
            "x=err@soon",      // unknown trigger
        ] {
            assert!(Scenario::parse(text).is_err(), "{text} should not parse");
        }
    }

    #[test]
    fn empty_rules_between_separators_are_skipped() {
        let s = Scenario::parse("; a=err ;; b=delay(1ms) ;").expect("parses");
        assert_eq!(s.rules.len(), 2);
    }

    #[test]
    fn call_and_range_triggers_fire_on_exact_indices() {
        assert!(Trigger::Call(3).fires(3, 0));
        assert!(!Trigger::Call(3).fires(2, 0));
        let range = Trigger::Calls(2, 4);
        let fired: Vec<u64> = (1..=5).filter(|&c| range.fires(c, 0)).collect();
        assert_eq!(fired, vec![2, 3]);
        assert!(Trigger::Always.fires(1, 0) && Trigger::Always.fires(999, 0));
    }

    #[test]
    fn probability_trigger_is_a_pure_function_of_seed_and_call() {
        let t = Trigger::Probability(0.5);
        let a: Vec<bool> = (1..=64).map(|c| t.fires(c, 7)).collect();
        let b: Vec<bool> = (1..=64).map(|c| t.fires(c, 7)).collect();
        let c: Vec<bool> = (1..=64).map(|c| t.fires(c, 8)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let fired = a.iter().filter(|&&f| f).count();
        assert!((10..=54).contains(&fired), "p=0.5 fired {fired}/64 times");
    }

    #[test]
    fn probability_extremes_never_and_always_fire() {
        for call in 1..=100 {
            assert!(!Trigger::Probability(0.0).fires(call, 1));
            assert!(Trigger::Probability(1.0).fires(call, 1));
        }
    }

    #[test]
    fn builder_matches_parsed_form() {
        let built = Scenario::new().fail("algo1.probe").rule(
            "algo1.search_api",
            Effect::Delay(Duration::from_millis(30)),
            Trigger::Calls(1, 3),
        );
        let parsed =
            Scenario::parse("algo1.probe=err;algo1.search_api=delay(30ms)@1..3").expect("parses");
        assert_eq!(built, parsed);
    }
}
