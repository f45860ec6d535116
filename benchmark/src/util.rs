//! Small self-contained helpers: a seeded generator, a word-wise hash
//! and a JSON writer. The benchmark owns them so that its inputs and
//! fingerprints depend on nothing a later change to the repository
//! could alter.

use std::fmt::Write as _;

/// SplitMix64: tiny, seedable, and good enough to draw column values.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`); the multiply-shift reduction's bias
    /// is below 2⁻³² for every domain the generator uses.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Derives an independent stream seed from a run seed and a salt.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// Order-sensitive 64-bit hash over words (not a cryptographic hash: it
/// pins inputs against accidental drift, not against an adversary).
#[derive(Clone, Copy)]
pub struct Hasher64(u64);

impl Default for Hasher64 {
    fn default() -> Self {
        Hasher64(0xCBF2_9CE4_8422_2325)
    }
}

impl Hasher64 {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(29);
    }

    pub fn int(&mut self, v: i64) {
        self.word(v as u64);
    }

    pub fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    pub fn finish(self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    }
}

/// A flat JSON object under construction (keys are plain identifiers,
/// so only string *values* are escaped).
#[derive(Default)]
pub struct JsonObj(String);

impl JsonObj {
    fn key(&mut self, k: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{k}\":");
    }

    pub fn raw(mut self, k: &str, json: &str) -> Self {
        self.key(k);
        self.0.push_str(json);
        self
    }

    pub fn str(self, k: &str, v: &str) -> Self {
        let escaped = json_string(v);
        self.raw(k, &escaped)
    }

    pub fn num(self, k: &str, v: f64) -> Self {
        let text = json_number(v);
        self.raw(k, &text)
    }

    pub fn int(self, k: &str, v: u64) -> Self {
        self.raw(k, &v.to_string())
    }

    pub fn bool(self, k: &str, v: bool) -> Self {
        self.raw(k, if v { "true" } else { "false" })
    }

    pub fn finish(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number with all its digits; JSON has no NaN or infinity, so those
/// print as `null` (and fail the reader loudly instead of silently).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn json_array(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_bounded() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..1000 {
            let v = a.below(13);
            assert_eq!(v, b.below(13));
            assert!(v < 13);
        }
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
        assert_eq!(Rng::new(3).below(1), 0);
    }

    #[test]
    fn hash_depends_on_order_and_content() {
        let h = |ws: &[u64]| {
            let mut h = Hasher64::default();
            ws.iter().for_each(|&w| h.word(w));
            h.finish()
        };
        assert_eq!(h(&[1, 2, 3]), h(&[1, 2, 3]));
        assert_ne!(h(&[1, 2, 3]), h(&[3, 2, 1]));
        assert_ne!(h(&[1, 2]), h(&[1, 2, 0]));
    }

    #[test]
    fn json_object_renders_flat() {
        let s = JsonObj::default()
            .str("a", "x\"y")
            .num("b", 1.5)
            .int("c", 3)
            .bool("d", true)
            .finish();
        assert_eq!(s, r#"{"a":"x\"y","b":1.5,"c":3,"d":true}"#);
        assert_eq!(JsonObj::default().finish(), "{}");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
