//! Content-addressed module store.
//!
//! Uploaded wasm binaries are keyed by [`wasabi::cache::content_key`]
//! over their raw bytes, so a client (or ten clients) re-uploading the
//! same module costs one decode and one stored [`Module`] — the second
//! upload is acknowledged as a **dedup hit** without touching the stored
//! entry. Submit requests then name modules by hash, which is what makes
//! the daemon's warm [`wasabi::ModuleCache`] effective across
//! connections: the same bytes always map to the same cache key.
//!
//! The key is a 64-bit FNV-1a hash, not a cryptographic one, so each
//! entry keeps its uploaded bytes: a dedup hit must match them byte for
//! byte, and an upload whose key collides with different bytes is
//! refused rather than served another client's module.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use wasabi::cache::content_key;
use wasabi_wasm::decode::decode;
use wasabi_wasm::error::DecodeError;
use wasabi_wasm::module::Module;

/// Receipt for one upload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UploadReceipt {
    /// The module's content key (`fnv64:<16 hex>`).
    pub hash: String,
    /// `true` if identical bytes were already stored (no decode happened).
    pub dedup: bool,
}

/// Why an upload stored nothing.
#[derive(Debug)]
pub enum UploadError {
    /// The bytes do not decode as a wasm module.
    Decode(DecodeError),
    /// Different bytes are already stored under the same content key.
    Collision(String),
}

impl std::fmt::Display for UploadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UploadError::Decode(e) => e.fmt(f),
            UploadError::Collision(hash) => {
                write!(
                    f,
                    "content key {hash} collides with a different stored module"
                )
            }
        }
    }
}

impl std::error::Error for UploadError {}

/// A stored module and the bytes it was decoded from.
#[derive(Debug)]
struct Stored {
    bytes: Vec<u8>,
    module: Arc<Module>,
}

/// Thread-safe content-addressed store of decoded modules.
#[derive(Debug, Default)]
pub struct ContentStore {
    modules: Mutex<HashMap<String, Stored>>,
    uploads: AtomicU64,
    dedup_hits: AtomicU64,
}

impl ContentStore {
    /// An empty store.
    pub fn new() -> Self {
        ContentStore::default()
    }

    /// Store `bytes` content-addressed. Identical bytes dedup: the module
    /// is decoded at most once per distinct content.
    ///
    /// # Errors
    ///
    /// If the bytes do not decode as a wasm module, or their content key
    /// is taken by different bytes (nothing is stored either way).
    pub fn insert(&self, bytes: &[u8]) -> Result<UploadReceipt, UploadError> {
        self.insert_keyed(content_key(bytes), bytes)
    }

    fn insert_keyed(&self, hash: String, bytes: &[u8]) -> Result<UploadReceipt, UploadError> {
        self.uploads.fetch_add(1, Ordering::Relaxed);
        {
            let modules = self.modules.lock().expect("store lock");
            if let Some(stored) = modules.get(&hash) {
                return self.dedup_hit(hash, &stored.bytes, bytes);
            }
        }
        // Decode outside the lock: a big module must not stall other
        // connections' lookups. A racing identical upload just wastes one
        // decode; the entry stays single.
        let module = Arc::new(decode(bytes).map_err(UploadError::Decode)?);
        let mut modules = self.modules.lock().expect("store lock");
        match modules.entry(hash.clone()) {
            Entry::Occupied(stored) => self.dedup_hit(hash, &stored.get().bytes, bytes),
            Entry::Vacant(slot) => {
                slot.insert(Stored {
                    bytes: bytes.to_vec(),
                    module,
                });
                Ok(UploadReceipt { hash, dedup: false })
            }
        }
    }

    /// An upload whose key is already stored: a dedup hit if the bytes
    /// match, a refused collision if they do not.
    fn dedup_hit(
        &self,
        hash: String,
        stored: &[u8],
        bytes: &[u8],
    ) -> Result<UploadReceipt, UploadError> {
        if stored != bytes {
            return Err(UploadError::Collision(hash));
        }
        self.dedup_hits.fetch_add(1, Ordering::Relaxed);
        Ok(UploadReceipt { hash, dedup: true })
    }

    /// The module stored under `hash`, if any.
    pub fn get(&self, hash: &str) -> Option<Arc<Module>> {
        self.modules
            .lock()
            .expect("store lock")
            .get(hash)
            .map(|stored| Arc::clone(&stored.module))
    }

    /// Distinct modules stored.
    pub fn len(&self) -> usize {
        self.modules.lock().expect("store lock").len()
    }

    /// `true` if nothing has been stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total `upload` calls (including dedup hits and failed decodes).
    pub fn uploads(&self) -> u64 {
        self.uploads.load(Ordering::Relaxed)
    }

    /// Uploads that found their bytes already stored.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use wasabi_wasm::builder::ModuleBuilder;
    use wasabi_wasm::encode::encode;
    use wasabi_wasm::types::ValType;

    fn wasm(constant: i32) -> Vec<u8> {
        let mut builder = ModuleBuilder::new();
        builder.function("main", &[], &[ValType::I32], |f| {
            f.i32_const(constant);
        });
        encode(&builder.finish())
    }

    #[test]
    fn identical_bytes_dedup_and_distinct_bytes_do_not() {
        let store = ContentStore::new();
        let a = wasm(1);
        let b = wasm(2);

        let first = store.insert(&a).expect("decodes");
        assert!(!first.dedup);
        let again = store.insert(&a).expect("decodes");
        assert!(again.dedup);
        assert_eq!(again.hash, first.hash);

        let other = store.insert(&b).expect("decodes");
        assert!(!other.dedup);
        assert_ne!(other.hash, first.hash);

        assert_eq!(store.len(), 2);
        assert_eq!(store.uploads(), 3);
        assert_eq!(store.dedup_hits(), 1);
        assert!(store.get(&first.hash).is_some());
        assert!(store.get("fnv64:0000000000000000").is_none());
    }

    #[test]
    fn a_key_collision_with_different_bytes_is_refused() {
        let store = ContentStore::new();
        let key = "fnv64:collision";
        assert!(
            !store
                .insert_keyed(key.into(), &wasm(1))
                .expect("stores")
                .dedup
        );
        let refused = store
            .insert_keyed(key.into(), &wasm(2))
            .expect_err("same key, different bytes");
        assert!(matches!(refused, UploadError::Collision(_)), "{refused}");
        assert_eq!(store.dedup_hits(), 0, "a collision is not a dedup hit");
        assert_eq!(store.len(), 1);
        // The first upload's module is still the one served.
        assert!(
            store
                .insert_keyed(key.into(), &wasm(1))
                .expect("dedups")
                .dedup
        );
        assert_eq!(store.dedup_hits(), 1);
    }

    #[test]
    fn invalid_bytes_store_nothing() {
        let store = ContentStore::new();
        assert!(store.insert(b"not wasm at all").is_err());
        assert!(store.is_empty());
        assert_eq!(store.uploads(), 1);
    }
}
