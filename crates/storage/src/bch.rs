//! BCH error-correcting codes over GF(2^10).
//!
//! The paper's variable error correction (Fig. 8, Table 1) uses BCH-X
//! codes protecting 512-bit blocks: X correctable errors cost exactly
//! 10·X parity bits (11.7% overhead for BCH-6 up to 31.3% for BCH-16).
//! This module implements the real thing: generator synthesis from
//! cyclotomic cosets, systematic LFSR encoding, and syndrome /
//! Berlekamp–Massey / Chien-search decoding. The codes are
//! *self-correcting* — parity bits are part of the protected codeword.
//!
//! The hot paths are table-driven and word-parallel (see DESIGN.md,
//! "Storage kernels"):
//!
//! * **Encode** steps the LFSR one *byte* at a time, CRC-style: a
//!   256-entry table maps `(top byte of remainder) ^ (data byte)` to the
//!   remainder update, so a 512-bit block costs 64 table steps instead of
//!   512 bit shifts.
//! * **Decode** first re-derives the parity from the data bytes and
//!   compares words against the stored parity — equal iff all 2t
//!   syndromes are zero, so clean blocks (the common case at realistic
//!   BERs) never compute a syndrome. Corrupted blocks compute syndromes
//!   byte-wise (Horner over bytes with per-syndrome 256-entry
//!   contribution tables), locate degree-1/2 errors in closed form, and
//!   fall back to an incremental Chien search (one multiply per step per
//!   σ-coefficient, early exit once all roots are found).
//!
//! The scalar bit-at-a-time implementation survives as
//! `reference::ScalarBch` (test-only); property tests pin the two to
//! byte-identical behavior.

use crate::bits::BitBuf;
use crate::gf::{Gf1024, GF_ORDER};

/// Data bits per protected block (the paper's 512-bit PCM block).
pub const DATA_BITS: usize = 512;

/// Data words per block.
const DATA_WORDS: usize = DATA_BITS / 64;

/// Max parity words: `DATA_BITS + parity <= GF_ORDER` caps parity at 511
/// bits.
const MAX_PW: usize = 8;

/// Outcome of decoding one codeword.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// No errors detected.
    Clean,
    /// Errors were found and corrected (count given).
    Corrected(usize),
    /// More errors than the code can correct; data left as-is.
    Uncorrectable,
}

/// A BCH-X code over a 512-bit data block.
///
/// # Example
///
/// ```
/// use vapp_storage::bch::{Bch, DATA_BITS};
/// use vapp_storage::bits::BitBuf;
///
/// let code = Bch::new(6);
/// let mut data = BitBuf::zeroed(DATA_BITS);
/// data.set(3, true);
/// let mut cw = code.encode(&data);
/// cw.flip(100);
/// cw.flip(400);
/// let out = code.decode(&mut cw);
/// assert_eq!(out, vapp_storage::bch::DecodeOutcome::Corrected(2));
/// assert_eq!(code.extract_data(&cw), data);
/// ```
#[derive(Clone, Debug)]
pub struct Bch {
    t: usize,
    parity: usize,
    /// Words per parity register (`parity.div_ceil(64)`).
    pw: usize,
    /// Valid-bit mask for the top parity word.
    top_mask: u64,
    /// Byte-stepped LFSR update table, 256 rows × `pw` words:
    /// `row[b] = (b(x) · x^parity) mod g(x)`.
    enc_table: Vec<u64>,
    /// Per-syndrome Horner step `log α^{8j}`, j = 1..2t.
    syn_step_log: Vec<usize>,
    /// Per-syndrome data-section shift `log α^{j·parity}`.
    syn_data_shift_log: Vec<usize>,
    /// Per-syndrome byte-contribution tables, 2t × 256:
    /// `tbl_j[b] = Σ_{k ∈ bits(b)} α^{jk}`.
    syn_table: Vec<u16>,
}

impl Bch {
    /// Builds the BCH code correcting `t` errors.
    ///
    /// # Panics
    ///
    /// Panics if `t` is 0 or so large the shortened code cannot hold 512
    /// data bits.
    pub fn new(t: usize) -> Self {
        assert!(t >= 1, "t must be at least 1");
        let generator = generator_poly(t);
        let parity = generator.len() - 1;
        assert!(
            DATA_BITS + parity <= GF_ORDER,
            "code too strong for 512-bit blocks"
        );
        let pw = parity.div_ceil(64);
        let top_mask = if parity.is_multiple_of(64) {
            !0u64
        } else {
            (1u64 << (parity % 64)) - 1
        };

        // g(x) minus its monic x^parity term, packed into words; since g
        // is monic, x^parity ≡ this value (mod g).
        let mut g_low = [0u64; MAX_PW];
        for (k, &c) in generator.iter().enumerate().take(parity) {
            if c {
                g_low[k / 64] |= 1u64 << (k % 64);
            }
        }

        // bit_rem[k] = x^{parity+k} mod g, k = 0..8, by repeated ·x.
        let mut bit_rem = [[0u64; MAX_PW]; 8];
        let mut cur = g_low;
        bit_rem[0] = cur;
        for rem in bit_rem.iter_mut().skip(1) {
            // cur ·= x (mod g): shift up one bit, reduce if x^parity appears.
            let carry = (cur[(parity - 1) / 64] >> ((parity - 1) % 64)) & 1 == 1;
            for w in (1..pw).rev() {
                cur[w] = (cur[w] << 1) | (cur[w - 1] >> 63);
            }
            cur[0] <<= 1;
            cur[pw - 1] &= top_mask;
            if carry {
                for w in 0..pw {
                    cur[w] ^= g_low[w];
                }
            }
            *rem = cur;
        }

        // Byte update table by linearity over the bits of the index.
        let mut enc_table = vec![0u64; 256 * pw];
        for b in 1usize..256 {
            let k = b.trailing_zeros() as usize;
            let prev = b & (b - 1);
            for w in 0..pw {
                enc_table[b * pw + w] = enc_table[prev * pw + w] ^ bit_rem[k][w];
            }
        }

        // Syndrome tables: per j, byte contributions and Horner steps.
        let gf = Gf1024::get();
        let mut syn_step_log = Vec::with_capacity(2 * t);
        let mut syn_data_shift_log = Vec::with_capacity(2 * t);
        let mut syn_table = vec![0u16; 2 * t * 256];
        for j in 1..=2 * t {
            syn_step_log.push((8 * j) % GF_ORDER);
            syn_data_shift_log.push((j * parity) % GF_ORDER);
            let tbl = &mut syn_table[(j - 1) * 256..j * 256];
            for b in 1usize..256 {
                let k = b.trailing_zeros() as usize;
                tbl[b] = tbl[b & (b - 1)] ^ gf.alpha_pow(j * k);
            }
        }

        Bch {
            t,
            parity,
            pw,
            top_mask,
            enc_table,
            syn_step_log,
            syn_data_shift_log,
            syn_table,
        }
    }

    /// The process-wide cached instance for `t`: generator synthesis and
    /// table construction happen once, callers share one `'static` code.
    pub fn cached(t: usize) -> &'static Bch {
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        static REGISTRY: OnceLock<Mutex<HashMap<usize, &'static Bch>>> = OnceLock::new();
        let mut map = REGISTRY
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("BCH registry poisoned");
        map.entry(t)
            .or_insert_with(|| Box::leak(Box::new(Bch::new(t))))
    }

    /// Number of correctable errors.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Parity bits per block (degree of the generator; 10·t for our range).
    pub fn parity_bits(&self) -> usize {
        self.parity
    }

    /// Codeword length in bits (512 data + parity).
    pub fn codeword_bits(&self) -> usize {
        DATA_BITS + self.parity
    }

    /// Storage overhead relative to the data (paper Fig. 8 x-axis).
    pub fn overhead(&self) -> f64 {
        self.parity_bits() as f64 / DATA_BITS as f64
    }

    /// Remainder of `m(x)·x^parity mod g(x)` for a 512-bit data block,
    /// stepping the LFSR a byte at a time: read the top remainder byte,
    /// shift by 8, xor the table row for `top ^ data_byte`. Data bytes
    /// feed highest polynomial degree (bit 511) first.
    fn data_parity(&self, dw: &[u64]) -> [u64; MAX_PW] {
        debug_assert_eq!(dw.len(), DATA_WORDS);
        let pw = self.pw;
        let top = self.parity - 8;
        let (tw, ts) = (top / 64, top % 64);
        let mut r = [0u64; MAX_PW];
        for m in (0..DATA_BITS / 8).rev() {
            let byte = (dw[m / 8] >> (8 * (m % 8))) as u8;
            let mut hi = r[tw] >> ts;
            if ts > 56 {
                hi |= r[tw + 1] << (64 - ts);
            }
            let idx = (hi as u8 ^ byte) as usize;
            for w in (1..pw).rev() {
                r[w] = (r[w] << 8) | (r[w - 1] >> 56);
            }
            r[0] <<= 8;
            r[pw - 1] &= self.top_mask;
            let row = &self.enc_table[idx * pw..(idx + 1) * pw];
            for w in 0..pw {
                r[w] ^= row[w];
            }
        }
        r
    }

    /// Systematically encodes a 512-bit block into a codeword.
    ///
    /// Codeword layout: bits `0..512` data (bit i = coefficient of
    /// x^(parity + i)), bits `512..` parity (bit j = coefficient of x^j).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly 512 bits.
    pub fn encode(&self, data: &BitBuf) -> BitBuf {
        assert_eq!(data.len(), DATA_BITS, "data must be 512 bits");
        let r = self.data_parity(data.words());
        let mut words = Vec::with_capacity(DATA_WORDS + self.pw);
        words.extend_from_slice(data.words());
        words.extend_from_slice(&r[..self.pw]);
        BitBuf::from_words(words, self.codeword_bits())
    }

    /// Syndromes S_j = c(α^j), j = 1..2t, via byte-wise Horner run
    /// separately over the data section (codeword bits 0..512, polynomial
    /// degrees parity..) and the parity section (degrees 0..parity), both
    /// of which are byte-aligned in the word backing.
    fn syndromes(&self, words: &[u64]) -> Vec<u16> {
        let gf = Gf1024::get();
        let parity_bytes = self.parity.div_ceil(8);
        let mut out = vec![0u16; 2 * self.t];
        for (ji, s) in out.iter_mut().enumerate() {
            let tbl = &self.syn_table[ji * 256..(ji + 1) * 256];
            let step = self.syn_step_log[ji];
            let mut d = 0u16;
            for m in (0..DATA_BITS / 8).rev() {
                let b = (words[m / 8] >> (8 * (m % 8))) as u8;
                d = gf.mul_alpha_log(d, step) ^ tbl[b as usize];
            }
            let mut r = 0u16;
            for m in (0..parity_bytes).rev() {
                let b = (words[DATA_WORDS + m / 8] >> (8 * (m % 8))) as u8;
                r = gf.mul_alpha_log(r, step) ^ tbl[b as usize];
            }
            *s = gf.mul_alpha_log(d, self.syn_data_shift_log[ji]) ^ r;
        }
        out
    }

    /// Decodes in place, correcting up to `t` errors anywhere in the
    /// codeword (data or parity).
    ///
    /// This per-block path has no production caller: the substrates
    /// decode through [`Bch::decode_batch`] and [`Bch::decode_blocks`]
    /// (which also handles tails under 64 blocks). It stays as the
    /// reference the batch engine is tested against
    /// (`tests/batch_equivalence.rs`, `tests/substrate_props.rs`).
    pub fn decode(&self, cw: &mut BitBuf) -> DecodeOutcome {
        assert_eq!(cw.len(), self.codeword_bits(), "codeword length mismatch");
        let gf = Gf1024::get();
        let n = self.codeword_bits();

        // Fast clean check: recomputed parity matches stored parity iff
        // g(x) divides the codeword iff all 2t syndromes vanish (g is the
        // lcm of the minimal polynomials of α^1..α^2t). Parity words sit
        // word-aligned at words[8..] with a zeroed tail, mirroring the
        // masked LFSR register, so this is a pw-word compare.
        let r = self.data_parity(&cw.words()[..DATA_WORDS]);
        if r[..self.pw] == cw.words()[DATA_WORDS..] {
            return self.tally(DecodeOutcome::Clean);
        }

        let syndromes = self.syndromes(cw.words());
        if syndromes.iter().all(|&s| s == 0) {
            return self.tally(DecodeOutcome::Clean);
        }

        // Berlekamp–Massey: find the error locator σ(x).
        let sigma = berlekamp_massey(&syndromes, gf);
        let deg = sigma.len() - 1;
        if deg == 0 || deg > self.t {
            return self.tally(DecodeOutcome::Uncorrectable);
        }

        // Error positions k ∈ 0..n with σ(α^{-k}) = 0: closed forms for
        // one and two errors, incremental Chien search above that.
        let positions = match deg {
            1 => locate_deg1(&sigma, n, gf),
            2 => locate_deg2(&sigma, n, gf),
            _ => chien_search(&sigma, n, gf),
        };
        let Some(positions) = positions else {
            return self.tally(DecodeOutcome::Uncorrectable);
        };
        for &k in &positions {
            // Coefficient x^k: parity bit k below `parity`, else data bit.
            if k < self.parity {
                cw.flip(DATA_BITS + k);
            } else {
                cw.flip(k - self.parity);
            }
        }
        self.tally(DecodeOutcome::Corrected(positions.len()))
    }

    /// Records one decode outcome in the observability registry
    /// (`storage.bch.clean` / `.corrected` / `.uncorrectable`, plus the
    /// individual `storage.bch.bits_corrected` total) and passes it through.
    fn tally(&self, out: DecodeOutcome) -> DecodeOutcome {
        match out {
            DecodeOutcome::Clean => vapp_obs::counter!("storage.bch.clean"),
            DecodeOutcome::Corrected(n) => {
                vapp_obs::counter!("storage.bch.corrected");
                vapp_obs::counter!("storage.bch.bits_corrected", n as u64);
            }
            DecodeOutcome::Uncorrectable => vapp_obs::counter!("storage.bch.uncorrectable"),
        }
        out
    }

    /// Extracts the 512 data bits from a codeword.
    pub fn extract_data(&self, cw: &BitBuf) -> BitBuf {
        BitBuf::from_words(cw.words()[..DATA_WORDS].to_vec(), DATA_BITS)
    }
}

/// Single error: σ(x) = 1 + σ1·x has the root α^{-k} = 1/σ1, so
/// k = log σ1 directly.
pub(crate) fn locate_deg1(sigma: &[u16], n: usize, gf: &Gf1024) -> Option<Vec<usize>> {
    let s1 = sigma[1];
    if s1 == 0 {
        return None; // actual degree 0: no roots, count mismatch
    }
    let k = gf.log(s1) as usize;
    (k < n).then(|| vec![k])
}

/// Two errors: normalize σ2·x² + σ1·x + 1 via x = (σ1/σ2)·y into
/// y² + y = σ2/σ1² and solve with the precomputed quadratic table; the
/// two roots map back to the two error positions.
pub(crate) fn locate_deg2(sigma: &[u16], n: usize, gf: &Gf1024) -> Option<Vec<usize>> {
    let (s1, s2) = (sigma[1], sigma[2]);
    if s1 == 0 || s2 == 0 {
        // Degenerate locator (a repeated root, or actual degree < 2):
        // a Chien sweep cannot find two distinct roots either.
        return None;
    }
    let c = gf.mul(s2, gf.inv(gf.mul(s1, s1)));
    let y0 = gf.solve_quadratic(c)?;
    let scale = gf.mul(s1, gf.inv(s2));
    let mut positions = Vec::with_capacity(2);
    for y in [y0, y0 ^ 1] {
        let x = gf.mul(scale, y); // y ≠ 0 since c ≠ 0
        let k = (GF_ORDER - gf.log(x) as usize) % GF_ORDER;
        if k >= n {
            return None;
        }
        positions.push(k);
    }
    Some(positions)
}

/// Chien search over positions 0..n, incrementally: q_d holds
/// σ_d·α^{-kd}, updated with one fixed-multiplier product per
/// coefficient per step; σ(α^{-k}) is then just the xor of the q_d.
/// Early-exits once `deg` roots are found (a degree-`deg` polynomial
/// has no more).
pub(crate) fn chien_search(sigma: &[u16], n: usize, gf: &Gf1024) -> Option<Vec<usize>> {
    let deg = sigma.len() - 1;
    let mut q = sigma.to_vec();
    let mut positions = Vec::with_capacity(deg);
    for k in 0..n {
        let mut acc = 0u16;
        for &v in &q {
            acc ^= v;
        }
        if acc == 0 {
            positions.push(k);
            if positions.len() == deg {
                break;
            }
        }
        for (d, v) in q.iter_mut().enumerate().skip(1) {
            *v = gf.mul_alpha_log(*v, GF_ORDER - d);
        }
    }
    (positions.len() == deg).then_some(positions)
}

/// Berlekamp–Massey over GF(2^10): returns σ(x) coefficients, σ[0] = 1.
pub(crate) fn berlekamp_massey(syndromes: &[u16], gf: &Gf1024) -> Vec<u16> {
    let mut sigma = vec![1u16];
    let mut b = vec![1u16];
    let mut l = 0usize;
    let mut m = 1usize;
    let mut bb = 1u16;
    for n in 0..syndromes.len() {
        // Discrepancy.
        let mut d = syndromes[n];
        for i in 1..=l.min(sigma.len() - 1) {
            d ^= gf.mul(sigma[i], syndromes[n - i]);
        }
        if d == 0 {
            m += 1;
        } else if 2 * l <= n {
            let t_poly = sigma.clone();
            let coef = gf.mul(d, gf.inv(bb));
            grow_xor(&mut sigma, &b, coef, m, gf);
            l = n + 1 - l;
            b = t_poly;
            bb = d;
            m = 1;
        } else {
            let coef = gf.mul(d, gf.inv(bb));
            grow_xor(&mut sigma, &b, coef, m, gf);
            m += 1;
        }
    }
    sigma.truncate(l + 1);
    sigma
}

/// sigma ^= coef · b(x) · x^shift, growing sigma as needed.
fn grow_xor(sigma: &mut Vec<u16>, b: &[u16], coef: u16, shift: usize, gf: &Gf1024) {
    let need = b.len() + shift;
    if sigma.len() < need {
        sigma.resize(need, 0);
    }
    for (i, &bi) in b.iter().enumerate() {
        sigma[i + shift] ^= gf.mul(coef, bi);
    }
}

/// Generator polynomial of the t-error-correcting BCH code over GF(2^10):
/// lcm of the minimal polynomials of α^1 … α^{2t}. Coefficients in GF(2).
pub(crate) fn generator_poly(t: usize) -> Vec<bool> {
    let gf = Gf1024::get();
    let mut seen = vec![false; GF_ORDER];
    // g as a GF(2) polynomial, bool per coefficient.
    let mut g = vec![true]; // constant 1
    for i in 1..=2 * t {
        if seen[i % GF_ORDER] {
            continue;
        }
        // Cyclotomic coset of i.
        let mut coset = Vec::new();
        let mut j = i % GF_ORDER;
        loop {
            if seen[j] {
                break;
            }
            seen[j] = true;
            coset.push(j);
            j = (j * 2) % GF_ORDER;
            if j == i % GF_ORDER {
                break;
            }
        }
        // Minimal polynomial: Π (x − α^j) over the coset, in GF(2^10).
        let mut min_poly: Vec<u16> = vec![1];
        for &e in &coset {
            let root = gf.alpha_pow(e);
            let mut next = vec![0u16; min_poly.len() + 1];
            for (d, &c) in min_poly.iter().enumerate() {
                next[d + 1] ^= c; // · x
                next[d] ^= gf.mul(c, root); // · root (− = + in GF(2^m))
            }
            min_poly = next;
        }
        // The product has binary coefficients by construction.
        let min_bits: Vec<bool> = min_poly
            .iter()
            .map(|&c| {
                debug_assert!(c <= 1, "minimal polynomial not binary");
                c == 1
            })
            .collect();
        // g *= min_poly over GF(2).
        let mut product = vec![false; g.len() + min_bits.len() - 1];
        for (a, &ga) in g.iter().enumerate() {
            if !ga {
                continue;
            }
            for (b, &mb) in min_bits.iter().enumerate() {
                if mb {
                    product[a + b] ^= true;
                }
            }
        }
        g = product;
    }
    g
}

/// The scalar bit-at-a-time implementation the table-driven kernels
/// replaced, kept as the oracle for the equivalence property tests.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub struct ScalarBch {
        t: usize,
        generator: Vec<bool>,
    }

    impl ScalarBch {
        pub fn new(t: usize) -> Self {
            ScalarBch {
                t,
                generator: generator_poly(t),
            }
        }

        fn parity_bits(&self) -> usize {
            self.generator.len() - 1
        }

        pub fn codeword_bits(&self) -> usize {
            DATA_BITS + self.parity_bits()
        }

        fn coeff(&self, cw: &BitBuf, k: usize) -> bool {
            let p = self.parity_bits();
            if k < p {
                cw.get(DATA_BITS + k)
            } else {
                cw.get(k - p)
            }
        }

        fn set_coeff(&self, cw: &mut BitBuf, k: usize, v: bool) {
            let p = self.parity_bits();
            if k < p {
                cw.set(DATA_BITS + k, v);
            } else {
                cw.set(k - p, v);
            }
        }

        pub fn encode(&self, data: &BitBuf) -> BitBuf {
            assert_eq!(data.len(), DATA_BITS, "data must be 512 bits");
            let p = self.parity_bits();
            // LFSR division of m(x)·x^p by g(x): message high-order first.
            let mut reg = vec![false; p];
            for i in (0..DATA_BITS).rev() {
                let feedback = data.get(i) ^ reg[p - 1];
                for j in (1..p).rev() {
                    reg[j] = reg[j - 1] ^ (feedback && self.generator[j]);
                }
                reg[0] = feedback && self.generator[0];
            }
            let mut cw = BitBuf::zeroed(self.codeword_bits());
            for i in 0..DATA_BITS {
                cw.set(i, data.get(i));
            }
            for (j, &r) in reg.iter().enumerate() {
                cw.set(DATA_BITS + j, r);
            }
            cw
        }

        pub fn decode(&self, cw: &mut BitBuf) -> DecodeOutcome {
            assert_eq!(cw.len(), self.codeword_bits(), "codeword length mismatch");
            let gf = Gf1024::get();
            let n = self.codeword_bits();

            // Syndromes S_j = c(α^j), j = 1..2t, via full-codeword Horner.
            let mut syndromes = vec![0u16; 2 * self.t];
            for (ji, s) in syndromes.iter_mut().enumerate() {
                let j = ji + 1;
                let aj = gf.alpha_pow(j);
                let mut acc = 0u16;
                for k in (0..n).rev() {
                    acc = gf.mul(acc, aj);
                    if self.coeff(cw, k) {
                        acc ^= 1;
                    }
                }
                *s = acc;
            }
            if syndromes.iter().all(|&s| s == 0) {
                return DecodeOutcome::Clean;
            }

            let sigma = berlekamp_massey(&syndromes, gf);
            let deg = sigma.len() - 1;
            if deg == 0 || deg > self.t {
                return DecodeOutcome::Uncorrectable;
            }

            // Chien search: position k errs iff σ(α^(−k)) = 0.
            let mut positions = Vec::new();
            for k in 0..n {
                let x = gf.alpha_pow((GF_ORDER - k % GF_ORDER) % GF_ORDER);
                let mut acc = 0u16;
                for (d, &c) in sigma.iter().enumerate() {
                    acc ^= gf.mul(c, gf.pow(x, d));
                }
                if acc == 0 {
                    positions.push(k);
                    if positions.len() > deg {
                        break;
                    }
                }
            }
            if positions.len() != deg {
                return DecodeOutcome::Uncorrectable;
            }
            for &k in &positions {
                let v = self.coeff(cw, k);
                self.set_coeff(cw, k, !v);
            }
            DecodeOutcome::Corrected(positions.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern_data(seed: u64) -> BitBuf {
        let mut d = BitBuf::zeroed(DATA_BITS);
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        for i in 0..DATA_BITS {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            d.set(i, (s >> 60) & 1 == 1);
        }
        d
    }

    #[test]
    fn parity_is_ten_bits_per_corrected_error() {
        // The paper's Fig. 8 overhead column depends on this exactly.
        for t in [6usize, 7, 8, 9, 10, 11, 16] {
            let code = Bch::new(t);
            assert_eq!(code.parity_bits(), 10 * t, "t = {t}");
        }
        let b6 = Bch::new(6);
        assert!((b6.overhead() - 0.1171875).abs() < 1e-9); // 11.7%
        let b16 = Bch::new(16);
        assert!((b16.overhead() - 0.3125).abs() < 1e-9); // 31.3%
    }

    #[test]
    fn cached_returns_one_instance_per_t() {
        let a = Bch::cached(6) as *const Bch;
        let b = Bch::cached(6) as *const Bch;
        assert_eq!(a, b);
        assert_eq!(Bch::cached(10).t(), 10);
    }

    #[test]
    fn clean_codeword_decodes_clean() {
        let code = Bch::new(6);
        let data = pattern_data(1);
        let mut cw = code.encode(&data);
        assert_eq!(code.decode(&mut cw), DecodeOutcome::Clean);
        assert_eq!(code.extract_data(&cw), data);
    }

    #[test]
    fn corrects_up_to_t_errors_anywhere() {
        for t in [6usize, 10, 16] {
            let code = Bch::new(t);
            let data = pattern_data(t as u64);
            let clean = code.encode(&data);
            // Spread errors over data and parity regions.
            let n = code.codeword_bits();
            let mut cw = clean.clone();
            let mut flipped = Vec::new();
            for e in 0..t {
                let pos = (e * 97 + 13) % n;
                if !flipped.contains(&pos) {
                    cw.flip(pos);
                    flipped.push(pos);
                }
            }
            let out = code.decode(&mut cw);
            assert_eq!(out, DecodeOutcome::Corrected(flipped.len()), "t = {t}");
            assert_eq!(cw, clean, "t = {t}: codeword not restored");
        }
    }

    #[test]
    fn single_error_in_parity_corrected() {
        let code = Bch::new(6);
        let data = pattern_data(9);
        let clean = code.encode(&data);
        let mut cw = clean.clone();
        cw.flip(DATA_BITS + 5);
        assert_eq!(code.decode(&mut cw), DecodeOutcome::Corrected(1));
        assert_eq!(cw, clean);
    }

    #[test]
    fn more_than_t_errors_detected_as_uncorrectable_or_miscorrected() {
        // With t+1 ... 2t errors, BCH must not silently "correct" back to
        // the original; it either flags uncorrectable or lands on a
        // different codeword. We check it never restores the clean data.
        let code = Bch::new(6);
        let data = pattern_data(3);
        let clean = code.encode(&data);
        let mut wrong_restores = 0;
        for trial in 0..10u64 {
            let mut cw = clean.clone();
            let mut s = trial.wrapping_mul(0x12345) | 1;
            let mut flipped = std::collections::HashSet::new();
            while flipped.len() < 7 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                flipped.insert((s >> 33) as usize % code.codeword_bits());
            }
            for &p in &flipped {
                cw.flip(p);
            }
            match code.decode(&mut cw) {
                DecodeOutcome::Uncorrectable => {}
                _ => {
                    if code.extract_data(&cw) == data && cw == clean {
                        wrong_restores += 1;
                    }
                }
            }
        }
        assert_eq!(wrong_restores, 0, "7 errors must never restore silently");
    }

    #[test]
    fn all_zero_data_roundtrip() {
        let code = Bch::new(8);
        let data = BitBuf::zeroed(DATA_BITS);
        let mut cw = code.encode(&data);
        assert_eq!(code.decode(&mut cw), DecodeOutcome::Clean);
        cw.flip(0);
        cw.flip(550);
        assert_eq!(code.decode(&mut cw), DecodeOutcome::Corrected(2));
        assert_eq!(code.extract_data(&cw), data);
    }

    #[test]
    #[should_panic(expected = "512 bits")]
    fn wrong_data_length_rejected() {
        Bch::new(6).encode(&BitBuf::zeroed(100));
    }

    #[test]
    fn fast_kernels_match_scalar_reference() {
        // The table-driven encode/decode against the retired scalar
        // implementation: random data, 0..=t+2 random error positions
        // (inside and beyond the correction radius), for the three code
        // strengths the figures use. Outcomes and the resulting codeword
        // bytes must agree exactly.
        for t in [6usize, 10, 16] {
            let fast = Bch::new(t);
            let slow = reference::ScalarBch::new(t);
            vapp_check::check(&format!("bch_fast_matches_scalar_t{t}"), 12, |rng| {
                use vapp_check::RngExt;
                let mut data = BitBuf::zeroed(DATA_BITS);
                for w in 0..DATA_BITS / 64 {
                    data.set_bits(w * 64, 64, rng.random::<u64>());
                }
                let cw_fast = fast.encode(&data);
                let cw_slow = slow.encode(&data);
                assert_eq!(cw_fast, cw_slow, "t = {t}: encode mismatch");

                let errors = rng.random_range(0..=t + 2);
                let flips = vapp_check::gen::distinct(rng, 0..fast.codeword_bits(), errors);
                let mut a = cw_fast;
                let mut b = cw_slow;
                for &pos in &flips {
                    a.flip(pos);
                    b.flip(pos);
                }
                let out_fast = fast.decode(&mut a);
                let out_slow = slow.decode(&mut b);
                assert_eq!(out_fast, out_slow, "t = {t} flips = {flips:?}");
                assert_eq!(a, b, "t = {t} flips = {flips:?}: codeword mismatch");
            });
        }
    }
}
