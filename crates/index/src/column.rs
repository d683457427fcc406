//! Posting columns laid out by entity slot.
//!
//! The writer gives each entity a *slot*, its position in first-seen
//! order, and stores each index tag's postings as one [`PostingColumn`]
//! over those slots, cut into chunks of [`CHUNK`] slots, each behind its
//! own `Arc`. A chunk is *dense* — one `f32` per slot plus a presence
//! bitmask — unless that takes more bytes than its postings as sorted
//! `(slot, degree)` pairs, in which case it is *sparse*. The fill alone
//! picks the form, so a column is a pure function of its postings,
//! whether a review wrote it one entry at a time or a build wrote it
//! whole.
//!
//! A column's chunk table is itself one `Arc<[Chunk]>`, so writing one
//! entry copies the table (a pointer per chunk) and the one chunk that
//! holds the slot; every snapshot that shares the old table keeps the
//! old chunk. [`SlotIds`] maps slots back to entity ids, chunked the
//! same way; it changes only when an entity arrives, and every snapshot
//! in between shares it.
//!
//! [`Matches`] is the θ_filter fallback's fold over the columns a probe
//! matched. It accumulates into one `f32` per slot, starting at `-0.0`:
//! `-0.0 + v` is `v` bit for bit, so the first contribution lands
//! unchanged and later ones add in tag order. A dense chunk folds in a
//! branch-free loop the compiler vectorizes, and its absent slots never
//! move whatever the sign of the similarity (see [`fold_dense`]).

use std::sync::Arc;

/// Entity slots per chunk: the unit a review copies and the fold's
/// inner loop.
pub(crate) const CHUNK: usize = 256;
/// Presence words per dense chunk.
const WORDS: usize = CHUNK / 64;

/// A full chunk: the degree of every slot, and which slots hold a
/// posting. Absent slots hold `-0.0` (see [`fold_dense`]).
#[derive(Clone)]
struct Dense {
    /// The chunk covers slots `number · CHUNK ..`.
    number: u32,
    present: [u64; WORDS],
    degrees: [f32; CHUNK],
}

/// One chunk of a column: at least one posting, all in slots
/// `number · CHUNK ..` for one `number`.
#[derive(Clone)]
enum Chunk {
    Dense(Arc<Dense>),
    /// `(slot, degree)`, ascending by slot.
    Sparse(Arc<[(u32, f32)]>),
}

/// Whether `n` postings take at least as many bytes as a dense chunk.
fn dense_fits(n: usize) -> bool {
    n * std::mem::size_of::<(u32, f32)>() >= std::mem::size_of::<([u64; WORDS], [f32; CHUNK])>()
}

impl Chunk {
    /// A chunk holding `run` (non-empty, ascending by slot, one chunk's
    /// slots), in the form its fill picks.
    fn of(run: &[(u32, f32)]) -> Chunk {
        if !dense_fits(run.len()) {
            return Chunk::Sparse(run.into());
        }
        let mut dense = Dense {
            number: run[0].0 / CHUNK as u32,
            present: [0; WORDS],
            degrees: [-0.0; CHUNK],
        };
        for &(slot, degree) in run {
            let at = slot as usize % CHUNK;
            dense.present[at / 64] |= 1 << (at % 64);
            dense.degrees[at] = degree;
        }
        Chunk::Dense(Arc::new(dense))
    }

    fn number(&self) -> u32 {
        match self {
            Chunk::Dense(d) => d.number,
            Chunk::Sparse(s) => s[0].0 / CHUNK as u32,
        }
    }

    /// Write `slot`'s degree, copying the chunk if a snapshot shares
    /// it. Returns whether the slot is new to the chunk.
    fn set(&mut self, slot: usize, degree: f32) -> bool {
        match self {
            Chunk::Dense(d) => {
                let d = Arc::make_mut(d);
                let at = slot % CHUNK;
                let bit = 1 << (at % 64);
                let fresh = d.present[at / 64] & bit == 0;
                d.present[at / 64] |= bit;
                d.degrees[at] = degree;
                fresh
            }
            Chunk::Sparse(s) => match s.binary_search_by_key(&(slot as u32), |e| e.0) {
                Ok(at) => {
                    Arc::make_mut(s)[at].1 = degree;
                    false
                }
                Err(at) => {
                    let mut run = Vec::with_capacity(s.len() + 1);
                    run.extend_from_slice(&s[..at]);
                    run.push((slot as u32, degree));
                    run.extend_from_slice(&s[at..]);
                    *self = Chunk::of(&run);
                    true
                }
            },
        }
    }
}

/// The indices of the set bits of `words`, ascending.
fn set_bits(words: &[u64]) -> SetBits<'_> {
    SetBits {
        words,
        word: 0,
        bits: words.first().copied().unwrap_or(0),
    }
}

struct SetBits<'a> {
    words: &'a [u64],
    /// The word `bits` came from.
    word: usize,
    /// That word's bits not yet yielded.
    bits: u64,
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.bits = *self.words.get(self.word + 1)?;
            self.word += 1;
        }
        let at = self.word * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(at)
    }
}

/// One chunk as tests compare it: its number, whether it is dense, and
/// its `(slot, degree bits)` postings.
#[cfg(test)]
pub(crate) type ChunkLayout = (u32, bool, Vec<(usize, u32)>);

/// One index tag's postings by entity slot: its non-empty chunks,
/// ascending by chunk number.
#[derive(Clone)]
pub(crate) struct PostingColumn {
    chunks: Arc<[Chunk]>,
    len: usize,
}

impl Default for PostingColumn {
    fn default() -> Self {
        PostingColumn {
            chunks: Arc::new([]),
            len: 0,
        }
    }
}

impl PostingColumn {
    /// The column holding `postings`: `(slot, degree)` ascending by
    /// slot, each slot once.
    pub(crate) fn from_slots(postings: impl IntoIterator<Item = (usize, f32)>) -> Self {
        let mut chunks = Vec::new();
        let mut len = 0;
        let mut run: Vec<(u32, f32)> = Vec::new();
        for (slot, degree) in postings {
            if run
                .last()
                .is_some_and(|&(last, _)| last as usize / CHUNK != slot / CHUNK)
            {
                chunks.push(Chunk::of(&run));
                len += run.len();
                run.clear();
            }
            run.push((slot as u32, degree));
        }
        if !run.is_empty() {
            chunks.push(Chunk::of(&run));
            len += run.len();
        }
        PostingColumn {
            chunks: chunks.into(),
            len,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Write `slot`'s degree, inserting the posting if the slot has
    /// none. A table or chunk a snapshot shares is copied first; every
    /// other chunk stays shared.
    pub(crate) fn set(&mut self, slot: usize, degree: f32) {
        let number = (slot / CHUNK) as u32;
        match self.chunks.binary_search_by_key(&number, Chunk::number) {
            Ok(at) => {
                let fresh = Arc::make_mut(&mut self.chunks)[at].set(slot, degree);
                self.len += usize::from(fresh);
            }
            Err(at) => {
                let mut chunks = Vec::with_capacity(self.chunks.len() + 1);
                chunks.extend_from_slice(&self.chunks[..at]);
                chunks.push(Chunk::of(&[(slot as u32, degree)]));
                chunks.extend_from_slice(&self.chunks[at..]);
                self.chunks = chunks.into();
                self.len += 1;
            }
        }
    }

    /// The column's layout, one entry per chunk.
    #[cfg(test)]
    pub(crate) fn layout(&self) -> Vec<ChunkLayout> {
        self.chunks
            .iter()
            .map(|chunk| match chunk {
                Chunk::Dense(d) => {
                    let base = d.number as usize * CHUNK;
                    let postings =
                        set_bits(&d.present).map(|at| (base + at, d.degrees[at].to_bits()));
                    (d.number, true, postings.collect())
                }
                Chunk::Sparse(s) => {
                    let postings = s.iter().map(|&(slot, d)| (slot as usize, d.to_bits()));
                    (chunk.number(), false, postings.collect())
                }
            })
            .collect()
    }

    /// Whether `self` and `other` share the chunk holding `slot`.
    #[cfg(test)]
    pub(crate) fn shares_chunk(&self, other: &PostingColumn, slot: usize) -> bool {
        let number = (slot / CHUNK) as u32;
        let find = |c: &PostingColumn| {
            let at = c.chunks.binary_search_by_key(&number, Chunk::number).ok()?;
            Some(match &c.chunks[at] {
                Chunk::Dense(d) => Arc::as_ptr(d) as *const u8,
                Chunk::Sparse(s) => s.as_ptr() as *const u8,
            })
        };
        find(self).is_some() && find(self) == find(other)
    }
}

/// Entity ids by slot, in chunks of [`CHUNK`] behind `Arc`: appending
/// copies only the last chunk.
#[derive(Clone, Default)]
pub(crate) struct SlotIds {
    chunks: Vec<Arc<[usize; CHUNK]>>,
    len: usize,
}

impl SlotIds {
    /// Give `entity_id` the next slot.
    pub(crate) fn push(&mut self, entity_id: usize) {
        let at = self.len % CHUNK;
        if at == 0 {
            self.chunks.push(Arc::new([0; CHUNK]));
        }
        if let Some(last) = self.chunks.last_mut() {
            Arc::make_mut(last)[at] = entity_id;
        }
        self.len += 1;
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The entity in `slot` (`slot < len`).
    #[cfg(test)]
    pub(crate) fn get(&self, slot: usize) -> usize {
        self.chunks[slot / CHUNK][slot % CHUNK]
    }

    /// The ids of the slots in chunk `number`.
    fn chunk(&self, number: u32) -> &[usize; CHUNK] {
        &self.chunks[number as usize]
    }
}

/// One index tag's postings, read in place: `(entity id, degree of
/// truth)` pairs in entity-slot order, the order the entities first
/// reached the index (an index bulk-loaded by
/// [`install_postings`](crate::SubjectiveIndex::install_postings) gives
/// slots in ascending entity id).
#[derive(Clone, Copy)]
pub struct Postings<'a> {
    column: &'a PostingColumn,
    ids: &'a SlotIds,
}

impl<'a> Postings<'a> {
    pub(crate) fn new(column: &'a PostingColumn, ids: &'a SlotIds) -> Self {
        Postings { column, ids }
    }

    /// Entities under the tag.
    pub fn len(&self) -> usize {
        self.column.len
    }

    pub fn is_empty(&self) -> bool {
        self.column.len == 0
    }

    /// `(entity id, degree)` in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f32)> + 'a {
        // No chunk yet: `bits` and `pairs` are empty, so the first
        // `next` loads the first chunk before it reads the arrays.
        Iter {
            chunks: self.column.chunks.iter(),
            ids: self.ids,
            slot_ids: &[0; CHUNK],
            degrees: &[0.0; CHUNK],
            bits: set_bits(&[]),
            pairs: [].iter(),
        }
    }

    /// Table 1's rows, `(entity id, degree, normalized degree)`: a
    /// stable sort by descending degree (`total_cmp`), so ties keep slot
    /// order, with each degree rescaled against the largest (`0.0` when
    /// that is not positive).
    pub fn table(&self) -> Vec<(usize, f32, f32)> {
        let mut ranked: Vec<(usize, f32)> = self.iter().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        let max = ranked.first().map_or(0.0, |&(_, degree)| degree);
        ranked
            .into_iter()
            .map(|(id, degree)| {
                let normalized = if max > 0.0 { degree / max } else { 0.0 };
                (id, degree, normalized)
            })
            .collect()
    }
}

/// [`Postings::iter`]: a dense chunk's presence bits or a sparse
/// chunk's pairs, read in place, chunk by chunk.
struct Iter<'a> {
    chunks: std::slice::Iter<'a, Chunk>,
    ids: &'a SlotIds,
    /// The entity ids of the current chunk's slots.
    slot_ids: &'a [usize; CHUNK],
    /// A dense chunk's degrees and unread presence bits.
    degrees: &'a [f32; CHUNK],
    bits: SetBits<'a>,
    /// A sparse chunk's unread pairs.
    pairs: std::slice::Iter<'a, (u32, f32)>,
}

impl Iterator for Iter<'_> {
    type Item = (usize, f32);

    #[inline]
    fn next(&mut self) -> Option<(usize, f32)> {
        loop {
            if let Some(at) = self.bits.next() {
                return Some((self.slot_ids[at % CHUNK], self.degrees[at % CHUNK]));
            }
            if let Some(&(slot, degree)) = self.pairs.next() {
                return Some((self.slot_ids[slot as usize % CHUNK], degree));
            }
            let chunk = self.chunks.next()?;
            self.slot_ids = self.ids.chunk(chunk.number());
            match chunk {
                Chunk::Dense(d) => {
                    self.degrees = &d.degrees;
                    self.bits = set_bits(&d.present);
                }
                Chunk::Sparse(s) => self.pairs = s.iter(),
            }
        }
    }

    /// `next`'s walk, but after the rest of the current chunk each
    /// chunk runs its own loop, so the dense/sparse test runs once per
    /// chunk rather than once per posting.
    #[inline]
    fn fold<B, F>(mut self, mut acc: B, mut f: F) -> B
    where
        F: FnMut(B, (usize, f32)) -> B,
    {
        let chunks = std::mem::replace(&mut self.chunks, [].iter());
        for posting in self.by_ref() {
            acc = f(acc, posting);
        }
        for chunk in chunks {
            let ids = self.ids.chunk(chunk.number());
            match chunk {
                Chunk::Dense(d) => {
                    for at in set_bits(&d.present) {
                        acc = f(acc, (ids[at % CHUNK], d.degrees[at % CHUNK]));
                    }
                }
                Chunk::Sparse(s) => {
                    for &(slot, degree) in s.iter() {
                        acc = f(acc, (ids[slot as usize % CHUNK], degree));
                    }
                }
            }
        }
        acc
    }
}

/// The columns one θ_filter fallback probe matched, as `(sim, column)`
/// in ascending tag order: the scan's order, which the cell-index
/// rescore replays.
#[derive(Default)]
pub(crate) struct Matches<'a> {
    lists: Vec<(f32, &'a PostingColumn)>,
}

impl<'a> Matches<'a> {
    pub(crate) fn push(&mut self, sim: f32, column: &'a PostingColumn) {
        self.lists.push((sim, column));
    }

    /// Fold the matches into `(entity id, Σ sim × degree)` per entity,
    /// in slot order: one accumulator per slot, starting at `-0.0`, and
    /// a bitmask of the slots any column touched. Each entity's
    /// contributions add in tag order, the first onto `-0.0`, which
    /// leaves it unchanged bit for bit, so a score is the left fold of
    /// its contributions in tag order.
    pub(crate) fn fold(self, ids: &SlotIds) -> Vec<(usize, f32)> {
        let chunks = ids.len().div_ceil(CHUNK);
        let mut acc = vec![-0.0f32; chunks * CHUNK];
        let mut touched = vec![0u64; chunks * WORDS];
        for (sim, column) in self.lists {
            for chunk in column.chunks.iter() {
                match chunk {
                    Chunk::Dense(d) => {
                        let base = d.number as usize * CHUNK;
                        fold_dense(&mut acc[base..base + CHUNK], sim, d);
                        let words = &mut touched[base / 64..base / 64 + WORDS];
                        for (t, &p) in words.iter_mut().zip(&d.present) {
                            *t |= p;
                        }
                    }
                    Chunk::Sparse(s) => {
                        for &(slot, degree) in s.iter() {
                            let slot = slot as usize;
                            acc[slot] += sim * degree;
                            touched[slot / 64] |= 1 << (slot % 64);
                        }
                    }
                }
            }
        }
        let hits = touched.iter().map(|w| w.count_ones() as usize).sum();
        let mut out = Vec::with_capacity(hits);
        let rows = acc.chunks_exact(CHUNK).zip(touched.chunks_exact(WORDS));
        for (number, (acc, touched)) in rows.enumerate() {
            let ids = ids.chunk(number as u32);
            for at in set_bits(touched) {
                out.push((ids[at], acc[at]));
            }
        }
        out
    }
}

/// `acc[i] += sim × degree[i]` for every present slot of one dense
/// chunk, and nothing for the others. The multiply and add are the
/// scalar ones, in the same order, so each lane rounds as a scalar fold
/// would, and both loops are branch-free, so they vectorize.
///
/// Absent slots hold `-0.0`. For a positive finite `sim`, `sim × -0.0`
/// is `-0.0`, and `x + -0.0` is `x` bit for bit for every `x` (`+0.0`
/// included), so the plain loop leaves them alone. Any other `sim`
/// (zero, negative, infinite or NaN) could move them, so each 32-slot
/// group then tests its presence bit per lane and selects.
#[inline]
fn fold_dense(acc: &mut [f32], sim: f32, chunk: &Dense) {
    if sim > 0.0 && sim < f32::INFINITY {
        for (a, &d) in acc.iter_mut().zip(&chunk.degrees) {
            *a += sim * d;
        }
        return;
    }
    for (g, (lanes, degrees)) in acc
        .chunks_exact_mut(32)
        .zip(chunk.degrees.chunks_exact(32))
        .enumerate()
    {
        let bits = (chunk.present[g / 2] >> (32 * (g % 2))) as u32;
        for (j, (a, &d)) in lanes.iter_mut().zip(degrees).enumerate() {
            let sum = *a + sim * d;
            *a = if bits & (1 << j) != 0 { sum } else { *a };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A column read one posting at a time, or folded after any number
    /// of reads, yields the same postings in slot order, over dense and
    /// sparse chunks alike.
    #[test]
    fn fold_resumes_where_next_stopped() {
        let slots = || {
            (0..CHUNK)
                .filter(|s| s % 3 != 0)
                .chain([CHUNK + 5, CHUNK + 77])
                .chain(2 * CHUNK..3 * CHUNK)
        };
        let column = PostingColumn::from_slots(slots().map(|s| (s, s as f32 / 7.0)));
        let forms: Vec<bool> = column.layout().iter().map(|c| c.1).collect();
        assert_eq!(forms, [true, false, true]);
        let mut ids = SlotIds::default();
        for slot in 0..3 * CHUNK {
            ids.push(1000 + slot);
        }
        let postings = Postings::new(&column, &ids);
        let want: Vec<(usize, f32)> = slots().map(|s| (1000 + s, s as f32 / 7.0)).collect();
        assert_eq!(postings.iter().collect::<Vec<_>>(), want);
        for k in 0..=want.len() {
            let mut iter = postings.iter();
            let mut read: Vec<(usize, f32)> = iter.by_ref().take(k).collect();
            iter.for_each(|posting| read.push(posting));
            assert_eq!(read, want, "folded after {k} reads");
        }
    }
}
