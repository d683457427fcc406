//! The MiniBert encoder.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saccs_nn::layers::{
    Embedding, FrozenAttention, FrozenLayerNorm, FrozenLinear, Layer, LayerNorm, Linear,
    MultiHeadSelfAttention,
};
use saccs_nn::{Matrix, Var};
use saccs_text::vocab::{Vocab, CLS};

/// Encoder hyperparameters.
#[derive(Debug, Clone)]
pub struct MiniBertConfig {
    pub dim: usize,
    pub heads: usize,
    pub layers: usize,
    pub max_len: usize,
    pub seed: u64,
}

impl Default for MiniBertConfig {
    fn default() -> Self {
        MiniBertConfig {
            dim: 32,
            heads: 4,
            layers: 3,
            max_len: 64,
            seed: 0xBE27,
        }
    }
}

/// One pre-norm transformer block.
struct Block {
    attn: MultiHeadSelfAttention,
    ln1: LayerNorm,
    ff1: Linear,
    ff2: Linear,
    ln2: LayerNorm,
}

impl Block {
    fn new(dim: usize, heads: usize, rng: &mut StdRng) -> Self {
        Block {
            attn: MultiHeadSelfAttention::new(dim, heads, rng),
            ln1: LayerNorm::new(dim),
            ff1: Linear::new(dim, 2 * dim, rng),
            ff2: Linear::new(2 * dim, dim, rng),
            ln2: LayerNorm::new(dim),
        }
    }

    fn forward(&self, x: &Var) -> Var {
        let a = self.attn.forward(&self.ln1.forward(x));
        let x = x.add(&a);
        let f = self
            .ff2
            .forward(&self.ff1.forward(&self.ln2.forward(&x)).relu());
        x.add(&f)
    }

    fn freeze(&self) -> FrozenBlock {
        FrozenBlock {
            attn: self.attn.freeze(),
            ln1: self.ln1.freeze(),
            ff1: self.ff1.freeze(),
            ff2: self.ff2.freeze(),
            ln2: self.ln2.freeze(),
        }
    }
}

/// A frozen [`Block`].
struct FrozenBlock {
    attn: FrozenAttention,
    ln1: FrozenLayerNorm,
    ff1: FrozenLinear,
    ff2: FrozenLinear,
    ln2: FrozenLayerNorm,
}

impl FrozenBlock {
    /// [`Block::forward`]'s ops, in its order, off the tape.
    fn forward(&self, x: &Matrix) -> Matrix {
        let a = self.attn.forward(&self.ln1.forward(x));
        let x = x.add(&a);
        let f = self
            .ff2
            .forward(&self.ff1.forward(&self.ln2.forward(&x)).relu());
        x.add(&f)
    }
}

impl Layer for Block {
    fn params(&self) -> Vec<Var> {
        let mut p = self.attn.params();
        p.extend(self.ln1.params());
        p.extend(self.ff1.params());
        p.extend(self.ff2.params());
        p.extend(self.ln2.params());
        p
    }
}

/// The encoder: token + position embeddings through `layers` transformer
/// blocks, plus a masked-LM head used only during (post-)training.
pub struct MiniBert {
    config: MiniBertConfig,
    vocab: Vocab,
    tok_emb: Embedding,
    pos_emb: Embedding,
    blocks: Vec<Block>,
    mlm_head: Linear,
}

/// `[CLS]` followed by each token's id, truncated to `max_len`.
fn encode_ids(vocab: &Vocab, max_len: usize, tokens: &[String]) -> Vec<usize> {
    let mut ids = Vec::with_capacity(tokens.len() + 1);
    ids.push(CLS);
    for t in tokens {
        ids.push(vocab.id(t));
    }
    ids.truncate(max_len);
    ids
}

impl MiniBert {
    /// Fresh, untrained encoder over `vocab`.
    pub fn new(vocab: Vocab, config: MiniBertConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let tok_emb = Embedding::new(vocab.len(), config.dim, &mut rng);
        let pos_emb = Embedding::new(config.max_len, config.dim, &mut rng);
        let blocks = (0..config.layers)
            .map(|_| Block::new(config.dim, config.heads, &mut rng))
            .collect();
        let mlm_head = Linear::new(config.dim, vocab.len(), &mut rng);
        MiniBert {
            config,
            vocab,
            tok_emb,
            pos_emb,
            blocks,
            mlm_head,
        }
    }

    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Encode token strings to ids, prepending `[CLS]` and truncating to
    /// `max_len`.
    pub fn ids(&self, tokens: &[String]) -> Vec<usize> {
        encode_ids(&self.vocab, self.config.max_len, tokens)
    }

    /// The current weights frozen for inference (see [`FrozenMiniBert`]).
    pub fn freeze(&self) -> FrozenMiniBert {
        FrozenMiniBert {
            config: self.config.clone(),
            vocab: self.vocab.clone(),
            tok_emb: self.tok_emb.table.value_clone(),
            pos_emb: self.pos_emb.table.value_clone(),
            blocks: self.blocks.iter().map(Block::freeze).collect(),
        }
    }

    /// Full differentiable encode: ids → `T×dim` contextual embeddings,
    /// the training forward (masked-LM and tagging fine-tuning).
    pub fn encode(&self, ids: &[usize]) -> Var {
        assert!(
            !ids.is_empty() && ids.len() <= self.config.max_len,
            "bad sequence length"
        );
        saccs_obs::counter!("embed.forward").inc();
        let pos: Vec<usize> = (0..ids.len()).collect();
        let mut x = self.tok_emb.forward(ids).add(&self.pos_emb.forward(&pos));
        for b in &self.blocks {
            x = b.forward(&x);
        }
        x
    }

    /// Masked-LM logits for a (possibly masked) id sequence: `T×vocab`.
    pub fn mlm_logits(&self, ids: &[usize]) -> Var {
        self.mlm_head.forward(&self.encode(ids))
    }

    /// Masked-LM logits for only the `rows` positions: `|rows|×vocab`.
    /// Equivalent to `mlm_logits(ids).gather_rows(rows)` — the head is
    /// row-wise linear and the kernel computes each output row from its
    /// input row alone — but skips the head forward/backward for every
    /// unmasked position, which is most of the MLM pretraining cost.
    pub fn mlm_logits_rows(&self, ids: &[usize], rows: &[usize]) -> Var {
        self.mlm_head.forward(&self.encode(ids).gather_rows(rows))
    }
}

impl MiniBert {
    /// Serialize all parameters (embedding tables, blocks, MLM head) to
    /// bytes with the `saccs-nn` state codec.
    pub fn save_bytes(&self) -> bytes::Bytes {
        saccs_nn::encode_state(&self.state())
    }

    /// Restore parameters from [`MiniBert::save_bytes`] output. The model
    /// must have been constructed with the same config and vocabulary.
    pub fn load_bytes(&self, bytes: &[u8]) -> Result<(), saccs_nn::CodecError> {
        let state = saccs_nn::decode_state(bytes)?;
        self.load_state(&state);
        Ok(())
    }
}

/// A trained [`MiniBert`] frozen for inference: no MLM head and no
/// tape, so one `Send + Sync` instance, shared by `Arc`, serves every
/// model that reads the encoder (tagging, pairing, evaluation, serving)
/// on every thread. Its features equal [`MiniBert::encode`]'s rows bit
/// for bit.
pub struct FrozenMiniBert {
    config: MiniBertConfig,
    vocab: Vocab,
    tok_emb: Matrix,
    pos_emb: Matrix,
    blocks: Vec<FrozenBlock>,
}

impl FrozenMiniBert {
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Encode token strings to ids, as [`MiniBert::ids`].
    pub fn ids(&self, tokens: &[String]) -> Vec<usize> {
        encode_ids(&self.vocab, self.config.max_len, tokens)
    }

    /// Tokens (without `[CLS]`) → contextual features *without* the
    /// `[CLS]` row, aligned 1:1 with the input tokens. This is how the
    /// tagger and the pairer consume MiniBert (a frozen feature
    /// extractor; the paper fine-tunes full BERT, we freeze for
    /// tractability — the FGSM perturbation applies to these features
    /// either way, exactly as in Miyato et al. \[38\]).
    ///
    /// Each call crosses the `embed.features` failpoint (a remote
    /// encoder's round trip): an injected error is counted and ignored;
    /// only delays are observable.
    pub fn features(&self, tokens: &[String]) -> Matrix {
        let _span = saccs_obs::span!("extract.encode");
        if saccs_fault::failpoint!("embed.features").is_err() {
            saccs_obs::counter!("fault.ignored.features").inc();
        }
        self.encode_features(&self.ids(tokens))
    }

    /// [`FrozenMiniBert::features`] of each sequence, in input order,
    /// fanned out across the `saccs-rt` pool; bitwise independent of
    /// `SACCS_THREADS`. The batch crosses its own `embed.features_batch`
    /// failpoint once.
    pub fn features_batch(&self, token_seqs: &[Vec<String>]) -> Vec<Matrix> {
        let _span = saccs_obs::span!("embed.features_batch");
        if saccs_fault::failpoint!("embed.features_batch").is_err() {
            // Degrade instead of failing: the batch fan-out is an
            // optimization, so an injected batch failure falls back to
            // the serial per-sequence path, which produces bitwise
            // identical features.
            saccs_obs::counter!("fault.degraded.features_batch").inc();
            return token_seqs.iter().map(|t| self.features(t)).collect();
        }
        saccs_rt::parallel_map(token_seqs.len(), 4, |i| {
            self.encode_features(&self.ids(&token_seqs[i]))
        })
    }

    /// Mean-pooled phrase embedding, e.g. for similarity probes.
    pub fn phrase_embedding(&self, tokens: &[String]) -> Vec<f32> {
        let feats = self.features(tokens);
        if feats.rows() == 0 {
            return vec![0.0; self.config.dim];
        }
        feats
            .sum_rows()
            .scale(1.0 / feats.rows() as f32)
            .data()
            .to_vec()
    }

    /// `(layers, heads)` available for attention probing.
    pub fn attention_grid(&self) -> (usize, usize) {
        (self.blocks.len(), self.config.heads)
    }

    /// Each head's attention matrix at `layer` (1-based, to match the
    /// paper's `lf_bert_l:h` naming) for the encoded `tokens`, in head
    /// order; only the blocks below `layer` run. Rows and columns include
    /// the `[CLS]` position at 0, so token `i` lives at `i + 1`.
    pub fn attention(&self, tokens: &[String], layer: usize) -> Vec<Matrix> {
        assert!(
            layer >= 1 && layer <= self.blocks.len(),
            "layer out of range"
        );
        let mut x = self.embed(&self.ids(tokens));
        for b in &self.blocks[..layer - 1] {
            x = b.forward(&x);
        }
        let block = &self.blocks[layer - 1];
        block.attn.attentions(&block.ln1.forward(&x))
    }

    /// Token plus position embeddings of `ids`: the first block's input.
    fn embed(&self, ids: &[usize]) -> Matrix {
        let pos: Vec<usize> = (0..ids.len()).collect();
        self.tok_emb
            .gather_rows(ids)
            .add(&self.pos_emb.gather_rows(&pos))
    }

    /// Ids (with `[CLS]`) → features without the `[CLS]` row.
    fn encode_features(&self, ids: &[usize]) -> Matrix {
        saccs_obs::counter!("embed.forward").inc();
        let mut x = self.embed(ids);
        for b in &self.blocks {
            x = b.forward(&x);
        }
        x.slice_rows(1, x.rows())
    }
}

impl Layer for MiniBert {
    fn params(&self) -> Vec<Var> {
        let mut p = self.tok_emb.params();
        p.extend(self.pos_emb.params());
        for b in &self.blocks {
            p.extend(b.params());
        }
        p.extend(self.mlm_head.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bert() -> MiniBert {
        let vocab = Vocab::from_tokens(
            ["the", "food", "is", "delicious", "staff", "nice", "."]
                .iter()
                .map(|s| s.to_string()),
        );
        MiniBert::new(
            vocab,
            MiniBertConfig {
                dim: 16,
                heads: 2,
                layers: 2,
                max_len: 16,
                seed: 1,
            },
        )
    }

    fn toks(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn encode_shapes() {
        let b = tiny_bert();
        let ids = b.ids(&toks(&["the", "food", "is", "delicious"]));
        assert_eq!(ids.len(), 5); // CLS + 4
        let out = b.encode(&ids);
        assert_eq!(out.shape(), (5, 16));
    }

    #[test]
    fn features_align_with_tokens() {
        let b = tiny_bert().freeze();
        let f = b.features(&toks(&["food", "is", "nice"]));
        assert_eq!(f.shape(), (3, 16));
    }

    #[test]
    fn truncation_respects_max_len() {
        let b = tiny_bert();
        let long: Vec<String> = (0..40).map(|_| "the".to_string()).collect();
        let ids = b.ids(&long);
        assert_eq!(ids.len(), 16);
    }

    #[test]
    fn frozen_attention_matches_the_taped_blocks_bitwise() {
        let b = tiny_bert();
        let frozen = b.freeze();
        assert_eq!(frozen.attention_grid(), (2, 2));
        let tokens = toks(&["the", "food", "is", "delicious"]);
        let ids = b.ids(&tokens);
        let pos: Vec<usize> = (0..ids.len()).collect();
        // The taped forward's residual stream, block by block; each
        // block's heads attend over its normalized input.
        let mut x = b.tok_emb.forward(&ids).add(&b.pos_emb.forward(&pos));
        for (l, block) in b.blocks.iter().enumerate() {
            let input = block.ln1.forward(&x).value_clone();
            let heads = block.attn.freeze().attentions(&input);
            let want: Vec<_> = heads.iter().map(bits).collect();
            let got: Vec<_> = frozen.attention(&tokens, l + 1).iter().map(bits).collect();
            assert_eq!(got, want, "layer {}", l + 1);
            x = block.forward(&x);
        }
    }

    #[test]
    fn context_changes_embeddings() {
        // The same token in different contexts must embed differently —
        // the whole point of contextual embeddings.
        let b = tiny_bert().freeze();
        let f1 = b.features(&toks(&["delicious", "food"]));
        let f2 = b.features(&toks(&["the", "staff", "is", "delicious"]));
        // "delicious" rows:
        let r1 = f1.row(0);
        let r2 = f2.row(3);
        let diff: f32 = r1.iter().zip(r2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-3, "contextual embeddings identical");
    }

    #[test]
    fn mlm_logits_cover_vocab() {
        let b = tiny_bert();
        let ids = b.ids(&toks(&["food", "is", "nice"]));
        let logits = b.mlm_logits(&ids);
        assert_eq!(logits.shape(), (4, b.vocab().len()));
    }

    #[test]
    fn phrase_embedding_has_model_dim() {
        let b = tiny_bert().freeze();
        let e = b.phrase_embedding(&toks(&["nice", "staff"]));
        assert_eq!(e.len(), 16);
    }

    #[test]
    fn save_load_roundtrip() {
        let a = tiny_bert();
        let ids = a.ids(&toks(&["food", "is", "delicious"]));
        let before = a.encode(&ids).value_clone();
        let bytes = a.save_bytes();
        // Wreck the weights, then restore.
        use saccs_nn::layers::Layer;
        for p in a.params() {
            p.update_value(|v| *v = v.scale(0.0));
        }
        assert_ne!(a.encode(&ids).value_clone(), before);
        a.load_bytes(&bytes).unwrap();
        assert_eq!(a.encode(&ids).value_clone(), before);
        // Garbage is rejected.
        assert!(a.load_bytes(b"garbage").is_err());
    }

    #[test]
    fn features_batch_matches_sequential_features() {
        let b = tiny_bert().freeze();
        let seqs = vec![
            toks(&["food", "is", "nice"]),
            toks(&["the", "staff"]),
            toks(&["food", "is", "nice"]),
            toks(&["delicious"]),
        ];
        let batch = b.features_batch(&seqs);
        assert_eq!(batch.len(), seqs.len());
        for (seq, got) in seqs.iter().zip(&batch) {
            assert_eq!(got, &b.features(seq));
        }
    }

    fn bits(m: &Matrix) -> (usize, usize, Vec<u32>) {
        let (r, c) = m.shape();
        (r, c, m.data().iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn frozen_features_match_taped_bitwise_at_quick_and_paper_shapes() {
        use rand::Rng;
        let words = ["the", "food", "is", "delicious", "staff", "nice", "."];
        let mut rng = StdRng::seed_from_u64(5);
        // 1 token, a typical utterance, and one truncated at max_len.
        let sentences: Vec<Vec<String>> = [1usize, 12, 70]
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|_| words[rng.gen_range(0..words.len())].to_string())
                    .collect()
            })
            .collect();
        // quick() and paper() encoder shapes.
        for (dim, heads, layers) in [(24, 4, 2), (48, 6, 4)] {
            let bert = MiniBert::new(
                tiny_bert().vocab().clone(),
                MiniBertConfig {
                    dim,
                    heads,
                    layers,
                    max_len: 48,
                    seed: 3,
                },
            );
            // Random values in every parameter, norm gains and biases too.
            for p in bert.params() {
                let (r, c) = p.shape();
                p.set_value(Matrix::uniform(r, c, 0.5, &mut rng));
            }
            let frozen = bert.freeze();
            for s in &sentences {
                let taped = bert.encode(&bert.ids(s)).value_clone();
                let want = taped.slice_rows(1, taped.rows());
                assert_eq!(want.rows(), s.len().min(47));
                assert_eq!(
                    bits(&frozen.features(s)),
                    bits(&want),
                    "dim {dim}, {} tokens",
                    s.len()
                );
            }
        }
    }

    #[test]
    fn deterministic_construction() {
        let a = tiny_bert();
        let b = tiny_bert();
        let ids = a.ids(&toks(&["food"]));
        assert_eq!(a.encode(&ids).value_clone(), b.encode(&ids).value_clone());
    }
}
