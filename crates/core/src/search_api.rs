//! The objective search API stand-in (§3.2's `search_api`).
//!
//! "The chatbot then delegates the search intent to a search API that
//! retrieves a list of restaurants filtered by objective criteria." The
//! synthetic corpus models one city's Italian restaurants (the paper's
//! Yelp slice is exactly that), so the objective filter matches every
//! entity unless the slots rule some out — mirroring the evaluation setup
//! where S_api is the full candidate pool and the subjective re-ranking is
//! what is measured.

use crate::dialog::Slots;
use saccs_data::entity::ATTRIBUTE_SCHEMA;
use saccs_data::Entity;
use saccs_query::ObjectiveCatalog;

/// Objective search over the entity database.
pub struct SearchApi<'a> {
    entities: &'a [Entity],
    /// The corpus city and cuisine (all entities share them).
    pub city: &'static str,
    pub cuisine: &'static str,
}

impl<'a> SearchApi<'a> {
    pub fn new(entities: &'a [Entity]) -> Self {
        SearchApi {
            entities,
            city: "montreal",
            cuisine: "italian",
        }
    }

    /// Entities matching the objective slots. Unknown locations/cuisines
    /// return the empty set (the API genuinely has nothing there); missing
    /// slots do not constrain.
    pub fn search(&self, slots: &Slots) -> Vec<usize> {
        if let Some(c) = &slots.cuisine {
            if c != self.cuisine {
                return Vec::new();
            }
        }
        if let Some(l) = &slots.location {
            if l != self.city {
                return Vec::new();
            }
        }
        self.entities.iter().map(|e| e.id).collect()
    }

    /// Fallible [`SearchApi::search`] behind the `algo1.search_api`
    /// failpoint. The in-memory stand-in cannot fail on its own, but a
    /// network-backed API will; the service's rank path
    /// (`SaccsService::rank_request`) calls this so chaos tests can
    /// exercise retries and degradation today.
    pub fn try_search(&self, slots: &Slots) -> Result<Vec<usize>, saccs_fault::FaultError> {
        saccs_fault::failpoint!("algo1.search_api")?;
        Ok(self.search(slots))
    }

    /// Entity display name.
    pub fn name(&self, id: usize) -> &str {
        &self.entities[id].name
    }

    pub fn len(&self) -> usize {
        self.entities.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }
}

/// The search API doubles as the planner's objective catalog: `price<=2`
/// and friends are answered from the same entity database the slots
/// search, so a compiled filter and the objective candidates can never
/// disagree about an entity's attributes.
impl ObjectiveCatalog for SearchApi<'_> {
    fn universe(&self) -> usize {
        // Entity ids, not slice positions: a sliced or reordered corpus
        // (tests gate candidates that way) keeps its original ids.
        self.entities.iter().map(|e| e.id + 1).max().unwrap_or(0)
    }

    fn attribute(&self, id: usize, name: &str) -> Option<&str> {
        self.entity(id)?.attributes.get(name).copied()
    }

    fn stars(&self, id: usize) -> Option<f32> {
        self.entity(id).map(|e| e.stars)
    }

    fn has_attribute(&self, name: &str) -> bool {
        ATTRIBUTE_SCHEMA.iter().any(|(n, _)| *n == name)
    }
}

impl SearchApi<'_> {
    /// Entity by id. Full corpora sit at their id's position; sliced or
    /// reordered ones fall back to a scan.
    fn entity(&self, id: usize) -> Option<&Entity> {
        self.entities
            .get(id)
            .filter(|e| e.id == id)
            .or_else(|| self.entities.iter().find(|e| e.id == id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use saccs_text::{Domain, Lexicon};

    fn entities() -> Vec<Entity> {
        let lex = Lexicon::new(Domain::Restaurants);
        let mut rng = StdRng::seed_from_u64(3);
        (0..5).map(|i| Entity::sample(i, &lex, &mut rng)).collect()
    }

    #[test]
    fn unconstrained_search_returns_all() {
        let ents = entities();
        let api = SearchApi::new(&ents);
        assert_eq!(api.search(&Slots::default()).len(), 5);
    }

    #[test]
    fn matching_slots_return_all() {
        let ents = entities();
        let api = SearchApi::new(&ents);
        let slots = Slots {
            cuisine: Some("italian".into()),
            location: Some("montreal".into()),
        };
        assert_eq!(api.search(&slots).len(), 5);
    }

    #[test]
    fn mismatching_slots_return_none() {
        let ents = entities();
        let api = SearchApi::new(&ents);
        assert!(api
            .search(&Slots {
                cuisine: Some("thai".into()),
                location: None
            })
            .is_empty());
        assert!(api
            .search(&Slots {
                cuisine: None,
                location: Some("lyon".into())
            })
            .is_empty());
    }
}
