//! Simulated encryption-at-rest for block payloads.
//!
//! The paper's threat model assumes server memory *content* is encrypted
//! (only addresses leak, §II-B: "the data stored in the server could be
//! encrypted, and hence the only information leakage that occurs is the
//! memory address patterns"). The simulator models that contract: a
//! [`BlockSealer`] turns a plaintext payload into a same-length
//! ciphertext with a fresh per-write nonce, so re-encryptions of
//! identical plaintext are unlinkable — the property Path ORAM relies on
//! when it writes a path back.
//!
//! **This is a simulation cipher** (xorshift keystream), chosen to be
//! dependency-free and fast; it demonstrates the data flow and the
//! unlinkability property, not cryptographic strength. A deployment
//! would substitute AES-GCM or ChaCha20-Poly1305 behind the same
//! interface.

/// Nonce length prepended to every sealed payload.
pub const NONCE_BYTES: usize = 8;

/// Seals and opens block payloads with a per-instance key and a
/// per-write nonce.
#[derive(Debug, Clone)]
pub struct BlockSealer {
    key: u64,
    nonce_counter: u64,
}

impl BlockSealer {
    /// Creates a sealer with the given key material.
    #[must_use]
    pub fn new(key: u64) -> Self {
        Self::resume(key, 0)
    }

    /// A sealer that continues the nonce sequence of one whose
    /// [`nonce_counter`](Self::nonce_counter) read `nonce_counter`: its
    /// next seal uses the nonce that one would have used next. A client
    /// restored from a snapshot resumes this way, so it never reissues a
    /// nonce that a payload in the store already carries.
    #[must_use]
    pub fn resume(key: u64, nonce_counter: u64) -> Self {
        BlockSealer { key, nonce_counter }
    }

    /// Where the nonce sequence stands: the nonce of the latest seal, 0
    /// before the first. Every sealed payload carries its nonce in
    /// plaintext, so recording this value reveals nothing new.
    #[must_use]
    pub fn nonce_counter(&self) -> u64 {
        self.nonce_counter
    }

    /// Seals a plaintext: output is `NONCE_BYTES + plaintext.len()` bytes
    /// and differs between calls even for identical plaintext.
    pub fn seal(&mut self, plaintext: &[u8]) -> Box<[u8]> {
        self.nonce_counter = self.nonce_counter.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let nonce = self.nonce_counter;
        let mut out = Vec::with_capacity(NONCE_BYTES + plaintext.len());
        out.extend_from_slice(&nonce.to_le_bytes());
        let mut ks = Keystream::new(self.key, nonce);
        out.extend(plaintext.iter().map(|&b| b ^ ks.next_byte()));
        out.into()
    }

    /// Opens a sealed payload.
    ///
    /// # Errors
    /// Returns `None` if the payload is too short to carry a nonce.
    #[must_use]
    pub fn open(&self, sealed: &[u8]) -> Option<Box<[u8]>> {
        if sealed.len() < NONCE_BYTES {
            return None;
        }
        let mut nonce_bytes = [0u8; NONCE_BYTES];
        nonce_bytes.copy_from_slice(&sealed[..NONCE_BYTES]);
        let nonce = u64::from_le_bytes(nonce_bytes);
        let mut ks = Keystream::new(self.key, nonce);
        Some(sealed[NONCE_BYTES..].iter().map(|&b| b ^ ks.next_byte()).collect())
    }
}

/// xorshift64*-based keystream.
struct Keystream {
    state: u64,
    buffer: u64,
    remaining: u8,
}

impl Keystream {
    fn new(key: u64, nonce: u64) -> Self {
        // Mix key and nonce; avoid the all-zero fixed point.
        let state = (key ^ nonce.rotate_left(32)).max(1);
        Keystream { state, buffer: 0, remaining: 0 }
    }

    fn next_byte(&mut self) -> u8 {
        if self.remaining == 0 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            self.buffer = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            self.remaining = 8;
        }
        let b = (self.buffer & 0xFF) as u8;
        self.buffer >>= 8;
        self.remaining -= 1;
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        let mut sealer = BlockSealer::new(0xDEAD_BEEF);
        let plain = b"embedding row bytes".to_vec();
        let sealed = sealer.seal(&plain);
        assert_eq!(sealed.len(), plain.len() + NONCE_BYTES);
        let opened = sealer.open(&sealed).unwrap();
        assert_eq!(&opened[..], &plain[..]);
    }

    #[test]
    fn resealing_identical_plaintext_is_unlinkable() {
        let mut sealer = BlockSealer::new(1);
        let plain = vec![7u8; 64];
        let a = sealer.seal(&plain);
        let b = sealer.seal(&plain);
        assert_ne!(a, b, "ciphertexts must differ across writes");
        // Both still open to the same plaintext.
        assert_eq!(sealer.open(&a).unwrap(), sealer.open(&b).unwrap());
    }

    #[test]
    fn ciphertext_is_not_plaintext() {
        let mut sealer = BlockSealer::new(2);
        let plain = vec![0u8; 128];
        let sealed = sealer.seal(&plain);
        // A zero plaintext must not leak as a zero ciphertext body.
        assert!(sealed[NONCE_BYTES..].iter().any(|&b| b != 0));
    }

    #[test]
    fn wrong_key_garbles() {
        let mut sealer = BlockSealer::new(3);
        let sealed = sealer.seal(b"secret");
        let other = BlockSealer::new(4);
        let opened = other.open(&sealed).unwrap();
        assert_ne!(&opened[..], b"secret");
    }

    #[test]
    fn resumed_sealer_continues_the_nonce_sequence() {
        let mut live = BlockSealer::new(7);
        let _ = live.seal(b"a");
        let mut resumed = BlockSealer::resume(7, live.nonce_counter());
        assert_eq!(live.seal(b"b"), resumed.seal(b"b"));
        assert_eq!(BlockSealer::new(7).nonce_counter(), 0);
    }

    #[test]
    fn truncated_payload_rejected() {
        let sealer = BlockSealer::new(5);
        assert!(sealer.open(&[1, 2, 3]).is_none());
    }

    #[test]
    fn empty_plaintext_supported() {
        let mut sealer = BlockSealer::new(6);
        let sealed = sealer.seal(&[]);
        assert_eq!(sealed.len(), NONCE_BYTES);
        assert_eq!(sealer.open(&sealed).unwrap().len(), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn roundtrip_arbitrary_payloads(
                key in any::<u64>(),
                plain in proptest::collection::vec(any::<u8>(), 0..512),
            ) {
                let mut sealer = BlockSealer::new(key);
                let sealed = sealer.seal(&plain);
                prop_assert_eq!(sealed.len(), plain.len() + NONCE_BYTES);
                let opened = sealer.open(&sealed).unwrap();
                prop_assert_eq!(&opened[..], &plain[..]);
            }

            #[test]
            fn keystream_is_not_constant(
                key in any::<u64>(),
                len in 16usize..256,
            ) {
                let mut sealer = BlockSealer::new(key);
                let zeroes = vec![0u8; len];
                let sealed = sealer.seal(&zeroes);
                // The body equals the raw keystream; it must vary.
                let body = &sealed[NONCE_BYTES..];
                let first = body[0];
                prop_assert!(body.iter().any(|&b| b != first),
                    "keystream degenerate for key {key}");
            }
        }
    }
}
