//! The objective search API stand-in (§3.2's `search_api`).
//!
//! "The chatbot then delegates the search intent to a search API that
//! retrieves a list of restaurants filtered by objective criteria." The
//! synthetic corpus models one city's Italian restaurants (the paper's
//! Yelp slice is exactly that), so the objective filter matches every
//! entity unless the slots rule some out — mirroring the evaluation setup
//! where S_api is the full candidate pool and the subjective re-ranking is
//! what is measured.
//!
//! The API doubles as the filter planner's objective catalog, and
//! [`SearchApi::new`] builds that catalog's columns once: an id → entity
//! table, one [`EntityBitmap`](saccs_query::EntityBitmap) per observed
//! attribute value, and the star ratings by id beside a presence bitmap.
//! An objective filter leaf (`price<=2`, `NoiseLevel!=loud`, `rating>4`)
//! then answers by combining a few bitmaps instead of testing each
//! admitted id, and `name`, `attribute` and `stars` find an id's entity
//! without a scan.

use crate::dialog::Slots;
use saccs_data::entity::ATTRIBUTE_SCHEMA;
use saccs_data::Entity;
use saccs_query::{EntityBitmap, ObjectiveCatalog, ObjectivePred};
use std::collections::BTreeMap;

/// Objective search over the entity database.
pub struct SearchApi<'a> {
    entities: &'a [Entity],
    /// The corpus city and cuisine (all entities share them).
    pub city: &'static str,
    pub cuisine: &'static str,
    /// Each id's entity, over ids `0..universe` (largest id + 1): the
    /// one at the id's own slice position when it has that id, else the
    /// first in the slice that does. Entity ids, not slice positions: a
    /// sliced or reordered corpus (tests gate candidates that way) keeps
    /// its original ids.
    by_id: Vec<Option<&'a Entity>>,
    /// The ids `by_id` holds an entity for.
    present: EntityBitmap,
    /// Star rating by id, meaningful where `present` is set.
    stars: Vec<f32>,
    /// Attribute name → observed value → the ids whose entity has it.
    values: BTreeMap<&'static str, BTreeMap<&'static str, EntityBitmap>>,
}

impl<'a> SearchApi<'a> {
    pub fn new(entities: &'a [Entity]) -> Self {
        let universe = entities.iter().map(|e| e.id + 1).max().unwrap_or(0);
        let mut by_id = vec![None; universe];
        for (pos, e) in entities.iter().enumerate() {
            let slot = &mut by_id[e.id];
            if e.id == pos || slot.is_none() {
                *slot = Some(e);
            }
        }
        let mut present = EntityBitmap::empty(universe);
        let mut stars = vec![0.0; universe];
        let mut values: BTreeMap<_, BTreeMap<_, EntityBitmap>> = BTreeMap::new();
        for (id, e) in by_id.iter().enumerate() {
            let Some(e) = e else { continue };
            present.insert(id);
            stars[id] = e.stars;
            for (&name, &value) in &e.attributes {
                values
                    .entry(name)
                    .or_default()
                    .entry(value)
                    .or_insert_with(|| EntityBitmap::empty(universe))
                    .insert(id);
            }
        }
        SearchApi {
            entities,
            city: "montreal",
            cuisine: "italian",
            by_id,
            present,
            stars,
            values,
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

    /// Display name of the entity with id `id`; empty if no entity has it.
    pub fn name(&self, id: usize) -> &str {
        self.entity(id).map_or("", |e| &e.name)
    }

    pub fn len(&self) -> usize {
        self.entities.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Entity by id, through the id table.
    fn entity(&self, id: usize) -> Option<&'a Entity> {
        self.by_id.get(id).copied().flatten()
    }

    /// The OR of attribute `name`'s observed-value bitmaps whose value
    /// `keep` accepts. An entity without the attribute is in none of
    /// them, so it fails every predicate on it, negations included.
    fn union_of(&self, name: &str, keep: impl Fn(&str) -> bool) -> EntityBitmap {
        let mut b = EntityBitmap::empty(self.universe());
        for (value, ids) in self.values.get(name).into_iter().flatten() {
            if keep(value) {
                b.or_assign(ids);
            }
        }
        b
    }
}

/// The search API doubles as the planner's objective catalog: `price<=2`
/// and friends are answered from the same entity database the slots
/// search, so a compiled filter and the objective candidates can never
/// disagree about an entity's attributes.
impl ObjectiveCatalog for SearchApi<'_> {
    fn universe(&self) -> usize {
        self.by_id.len()
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

    /// From the columns: the per-id meaning (`attribute` and `stars`
    /// tested id by id) as bitmap algebra, one bitmap per observed value.
    fn matching(&self, pred: &ObjectivePred, within: Option<&EntityBitmap>) -> EntityBitmap {
        let mut b = match pred {
            // A price is the `PriceRange` value parsed as `u8`; a value
            // that does not parse matches no comparison.
            ObjectivePred::Price { op, value } => self.union_of("PriceRange", |v| {
                v.parse::<u8>().is_ok_and(|p| op.holds(p, *value))
            }),
            ObjectivePred::Attribute {
                name,
                value,
                negated,
            } => self.union_of(name, |v| (v == value) != *negated),
            ObjectivePred::Stars { op, value } => {
                let mut b = EntityBitmap::empty(self.universe());
                for id in self.present.iter() {
                    if op.holds(self.stars[id], *value) {
                        b.insert(id);
                    }
                }
                b
            }
        };
        if let Some(w) = within {
            b.and_assign(w);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use saccs_text::{Domain, Lexicon};

    fn entities() -> Vec<Entity> {
        corpus(5)
    }

    fn corpus(n: usize) -> Vec<Entity> {
        let lex = Lexicon::new(Domain::Restaurants);
        let mut rng = StdRng::seed_from_u64(3);
        (0..n).map(|i| Entity::sample(i, &lex, &mut rng)).collect()
    }

    /// `name`, `attribute` and `stars` read an id's own entity on a
    /// reversed corpus (ids away from their positions) and on a slice
    /// (ids past its end), where reading an id as a slice position gets
    /// another entity's name or falls off the slice.
    #[test]
    fn lookups_follow_ids_on_reversed_and_sliced_corpora() {
        let ents = corpus(1500);
        let reversed: Vec<Entity> = ents.iter().rev().cloned().collect();
        for slice in [&reversed[..], &ents[100..1500]] {
            let api = SearchApi::new(slice);
            assert_eq!(api.universe(), 1500);
            for e in slice {
                assert_eq!(api.name(e.id), e.name);
                assert_eq!(
                    api.attribute(e.id, "PriceRange"),
                    e.attributes.get("PriceRange").copied()
                );
                assert_eq!(api.stars(e.id).map(f32::to_bits), Some(e.stars.to_bits()));
            }
        }
        let api = SearchApi::new(&ents[100..1500]);
        assert_eq!(api.name(99), "");
        assert_eq!(api.stars(99), None);
        assert_eq!(api.attribute(99, "PriceRange"), None);
    }

    /// A duplicated id resolves to the entity at the id's own position
    /// when that entity has it, else to the first entity that has it.
    #[test]
    fn a_duplicated_id_reads_its_own_position_else_its_first_copy() {
        let mut ents = corpus(5);
        for (e, id) in ents.iter_mut().zip([2, 0, 2, 1, 1]) {
            e.id = id;
        }
        let api = SearchApi::new(&ents);
        assert_eq!(api.universe(), 3);
        assert_eq!(api.name(2), "Trattoria 002");
        assert_eq!(api.name(0), "Trattoria 001");
        assert_eq!(api.name(1), "Trattoria 003");
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
