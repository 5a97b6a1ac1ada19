//! The persistent tier of the stage cache: one file per
//! [`CacheEntry`] in a `.cool-cache/` directory.
//!
//! # Layout
//!
//! Every entry lives at `<dir>/<key>.cce` where `<key>` is the entry's
//! 128-bit content key in lower-case hex (32 characters). The file is:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"COOLCCH\0"
//! 8       4     format version (u32 LE, currently 4)
//! 12      16    slot-layout digest (u128 LE): FNV-1a 128 over the
//!               ArtifactSlot names in index order, so a reordered or
//!               renamed slot set reads as a mismatch even without a
//!               manual version bump
//! 28      8     payload length in bytes (u64 LE)
//! 36      n     payload: the CacheEntry's cool_ir::codec encoding
//! 36+n    16    FNV-1a 128 checksum of the payload (u128 LE)
//! ```
//!
//! The payload starts with a one-byte **entry kind** ([`EntryKind`]):
//!
//! * kind `0` — a stage execution: `(cost_nanos: u64, writes:
//!   Vec<(ArtifactSlot, u128)>, delta: ArtifactDelta)` with the
//!   canonical [`cool_ir::codec`] encoding — the original execution's
//!   wall-clock (what a hit "saves"), the content digests of the slots
//!   the delta fills (so the engine can extend its slot-digest table
//!   without re-hashing), and the artifacts themselves.
//! * kind `1` — a per-node artifact ([`crate::cache::NodeArtifact`]):
//!   one HLS design, VHDL unit or STG fragment, cached one level below
//!   stages so a spec edit only recomputes the dirty nodes.
//!
//! Stage and node entries share the directory, the file format and one
//! key space: their keys come from disjoint namespaces (DAG stage keys
//! vs `cool-node-key/…` digests). [`DiskStore::load`] returns whichever
//! kind the file holds; the [`crate::StageCache`] treats a kind other
//! than the one it asked for as a miss and leaves the entry alone.
//!
//! # Robustness
//!
//! Writes go to a unique temporary file in the same directory followed by
//! an atomic rename, so readers never observe a half-written entry and
//! concurrent writers of the same key degrade to last-writer-wins (safe:
//! stage determinism makes both payloads identical). Reads validate
//! magic, version, length and checksum and decode through the
//! bounds-checked codec; *any* failure — truncation, bit flips, a future
//! format version, junk files — is treated as a miss and the offending
//! entry is evicted from the directory. Corruption can therefore cost
//! recomputation, never wrong artifacts and never a panic — the battery
//! in `tests/disk_cache.rs` drives truncated, bit-flipped and
//! version-bumped entries through a full flow to prove it.
//!
//! # Size cap
//!
//! A store is bounded to a byte budget ([`DEFAULT_MAX_BYTES`], override
//! via [`DiskStore::open_with_cap`] / `--cache-max-bytes`): whenever
//! the entry files exceed the cap — checked at open and after every
//! insert, against a running byte estimate so inserts do not rescan the
//! directory; because the estimate only sees this handle's writes, it is
//! re-measured against the directory every few inserts so processes
//! sharing a cache (a `cool serve` daemon plus ad-hoc CLI runs) still
//! enforce the cap against each other's growth — the
//! least-recently-used entries are evicted first (LRU
//! by mtime; every hit refreshes its entry's mtime, and ties break on
//! the file name so coarse timestamps stay deterministic). A long-lived
//! shared `.cool-cache/` can therefore no longer grow without bound.
//! Evictions are counted ([`DiskStore::size_evictions`]) and surface in
//! the stage-cache summaries; `cool cache stats` reports over-cap state
//! read-only ([`DiskStore::would_evict`]).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cool_ir::codec::{from_bytes, to_bytes};
use cool_ir::ContentHasher;

use crate::cache::{ArtifactSlot, CacheEntry, EntryKind, StageKey};

/// Entry file magic.
const MAGIC: [u8; 8] = *b"COOLCCH\0";
/// On-disk format version. Bump on ANY encoding change — including a
/// change to a single artifact type's `Codec` impl in another crate:
/// the slot-layout digest in the header only catches changes to the
/// slot *set*, not to the per-type byte encodings, so a shape-compatible
/// field reorder without a bump here would decode stale entries into
/// wrong values. Old entries then read as version mismatches and are
/// evicted, exactly like corruption.
///
/// v2: `PartitionResult` gained the `optimality` field.
/// v3: `PartitionResult` gained the `gap` field (truncated-solve
/// optimality gap).
/// v4: the payload gained a leading entry-kind byte, and node-level
/// entries ([`crate::cache::NodeArtifact`]) joined the format.
pub const FORMAT_VERSION: u32 = 4;
/// Entry file extension.
const EXT: &str = "cce";
/// Fixed header size: magic + version + layout digest + payload length.
const HEADER: usize = 8 + 4 + 16 + 8;
/// Trailing checksum size.
const CHECKSUM: usize = 16;

/// Monotonic discriminator for temporary file names, so concurrent
/// writers in one process never collide.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// How many inserts may ride on the running byte estimate before it is
/// re-measured against the directory. The estimate only tracks *this
/// process's* inserts and evictions; when several processes share a
/// `.cool-cache/` (daemon + CLI, or the two-process CI smoke) each one
/// under-counts the others' writes and its cap check can stay below
/// `max_bytes` while the directory grows without bound. A periodic
/// rescan bounds that drift to at most `HINT_SYNC_INTERVAL` foreign-ish
/// inserts' worth per writer without putting a directory walk on every
/// insert.
const HINT_SYNC_INTERVAL: u64 = 16;

/// What [`DiskStore::load`] found for a key.
#[derive(Debug)]
pub enum Load {
    /// A valid entry, of either kind.
    Hit(CacheEntry),
    /// No entry for this key.
    Miss,
    /// An entry existed but failed validation (corrupt, truncated, or a
    /// different format version) and was evicted from the directory.
    Evicted,
}

/// Read-only census of a store's entry files by kind, as reported by
/// [`DiskStore::kind_counts`] for `cool cache stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// Valid stage-execution entries.
    pub stage: usize,
    /// Valid node-level entries.
    pub node: usize,
    /// Entries that fail validation (corrupt, truncated, foreign
    /// version, unknown kind). These are *counted*, never evicted — the
    /// census must stay read-only; the next keyed access evicts them.
    pub invalid: usize,
}

/// Default byte-size cap for a store: generous for real flows but a
/// hard stop against the unbounded growth a long-lived shared cache
/// directory would otherwise exhibit.
pub const DEFAULT_MAX_BYTES: u64 = 512 * 1024 * 1024;

/// A directory of serialized cache entries, bounded to a byte-size
/// cap: whenever the entry files exceed `max_bytes` (checked when the
/// store opens and after every insert), the least-recently-*used*
/// entries — LRU by file mtime, which [`DiskStore::load`] refreshes on
/// every hit, oldest first — are evicted until the directory fits.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    max_bytes: u64,
    size_evictions: AtomicU64,
    /// Running estimate of the entry bytes on disk, seeded by one scan
    /// at open and maintained on insert/evict, so the per-insert cap
    /// check is an atomic comparison instead of a directory scan. Drifts
    /// when other processes share the directory; every full enforcement
    /// pass re-syncs it to the measured total, and every
    /// [`HINT_SYNC_INTERVAL`]-th insert re-measures even without a cap
    /// breach so cross-process under-counting cannot defer enforcement
    /// forever.
    bytes_hint: AtomicU64,
    /// Inserts since the estimate was last re-measured (see
    /// [`HINT_SYNC_INTERVAL`]).
    inserts_since_sync: AtomicU64,
}

impl DiskStore {
    /// Open (creating if absent) a store at `dir` with the
    /// [`DEFAULT_MAX_BYTES`] size cap.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<DiskStore> {
        DiskStore::open_with_cap(dir, DEFAULT_MAX_BYTES)
    }

    /// Open (creating if absent) a store capped to `max_bytes` of entry
    /// files (`0` = unbounded). An over-cap directory is trimmed
    /// immediately, so stale caches from before a smaller cap — or from
    /// another tool's runs — shrink on first contact.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the directory cannot be created.
    pub fn open_with_cap(dir: impl AsRef<Path>, max_bytes: u64) -> io::Result<DiskStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let store = DiskStore {
            dir,
            max_bytes,
            size_evictions: AtomicU64::new(0),
            bytes_hint: AtomicU64::new(0),
            inserts_since_sync: AtomicU64::new(0),
        };
        store
            .bytes_hint
            .store(store.total_bytes(), Ordering::Relaxed);
        store.enforce_cap(None);
        Ok(store)
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The byte-size cap (`0` = unbounded).
    #[must_use]
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// Entries evicted by this store instance to honour the size cap.
    #[must_use]
    pub fn size_evictions(&self) -> u64 {
        self.size_evictions.load(Ordering::Relaxed)
    }

    /// Evict oldest-mtime entries until the directory fits `max_bytes`,
    /// never touching `protect` (the entry just written: evicting the
    /// newest insert to keep stale ones would invert the LRU intent).
    /// The full directory scan only happens when the running byte
    /// estimate says the cap may be exceeded. I/O failures degrade to
    /// "cap not enforced this round" — the cap is hygiene, not
    /// correctness.
    fn enforce_cap(&self, protect: Option<&Path>) {
        if self.max_bytes == 0 || self.bytes_hint.load(Ordering::Relaxed) <= self.max_bytes {
            return;
        }
        let (measured, plan) = self.eviction_plan();
        self.resync_hint(measured);
        let mut total = measured;
        for (len, path) in plan {
            if total <= self.max_bytes {
                break;
            }
            if Some(path.as_path()) == protect {
                continue;
            }
            if fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                self.bytes_hint.fetch_sub(len, Ordering::Relaxed);
                self.size_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Fold the measured entry-byte total into the running estimate as a
    /// *delta*, never a blind store: a store would erase the `fetch_add`
    /// of a worker inserting concurrently (the store is Arc-shared
    /// across sweep threads). A racing correction can still leave the
    /// hint off by a few entries — harmless: over-estimates trigger a
    /// re-scan that corrects, under-estimates defer enforcement to a
    /// later insert or the next periodic re-sync.
    fn resync_hint(&self, measured: u64) {
        let hint = self.bytes_hint.load(Ordering::Relaxed);
        if measured >= hint {
            self.bytes_hint
                .fetch_add(measured - hint, Ordering::Relaxed);
        } else {
            self.bytes_hint
                .fetch_sub(hint - measured, Ordering::Relaxed);
        }
    }

    /// The single source of the cap policy, shared by `enforce_cap`
    /// (which deletes victims) and [`DiskStore::would_evict`] (which
    /// only counts them): the measured entry-byte total plus every
    /// entry as `(len, path)` in eviction order — oldest mtime first,
    /// path as the tie-break so equal-mtime bursts (coarse filesystem
    /// timestamps) still order deterministically.
    fn eviction_plan(&self) -> (u64, Vec<(u64, PathBuf)>) {
        let mut entries: Vec<(std::time::SystemTime, u64, PathBuf)> = self
            .entry_files()
            .filter_map(|p| {
                let meta = fs::metadata(&p).ok()?;
                Some((meta.modified().ok()?, meta.len(), p))
            })
            .collect();
        let total = entries.iter().map(|&(_, len, _)| len).sum();
        entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.2.cmp(&b.2)));
        (
            total,
            entries.into_iter().map(|(_, len, p)| (len, p)).collect(),
        )
    }

    /// How many entries the given cap would evict right now (`0` =
    /// unbounded cap). Read-only: `cool cache stats` uses this to report
    /// over-cap state without mutating the directory. Counts over the
    /// same `eviction_plan` order `enforce_cap` deletes in.
    #[must_use]
    pub fn would_evict(&self, max_bytes: u64) -> usize {
        if max_bytes == 0 {
            return 0;
        }
        let (measured, plan) = self.eviction_plan();
        let mut total = measured;
        let mut victims = 0;
        for (len, _) in plan {
            if total <= max_bytes {
                break;
            }
            total = total.saturating_sub(len);
            victims += 1;
        }
        victims
    }

    fn entry_path(&self, key: StageKey) -> PathBuf {
        self.dir.join(format!("{key:032x}.{EXT}"))
    }

    /// Serialize one entry under `key`. Returns `Ok(false)` without
    /// touching the filesystem when the entry already exists (stage
    /// determinism makes rewrites pointless). Writes are atomic: a
    /// temporary file, then a rename.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing or renaming the entry; callers
    /// may treat them as "disk tier unavailable" and continue.
    pub fn store(&self, key: StageKey, entry: &CacheEntry) -> io::Result<bool> {
        let path = self.entry_path(key);
        if path.exists() {
            return Ok(false);
        }
        let tmp = self.dir.join(format!(
            ".{key:032x}.{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = encode_entry(entry, FORMAT_VERSION);
        let len = file.len() as u64;
        fs::write(&tmp, &file)?;
        match fs::rename(&tmp, &path) {
            Ok(()) => {
                self.bytes_hint.fetch_add(len, Ordering::Relaxed);
                // Every Nth insert, re-measure the directory before the
                // cap check: the estimate only sees this handle's
                // writes, so a daemon and a CLI sharing the directory
                // would otherwise each stay "under cap" forever while
                // jointly blowing past it (regression test
                // `shared_directory_cap_survives_a_second_writer`).
                if self.max_bytes != 0
                    && self.inserts_since_sync.fetch_add(1, Ordering::Relaxed) + 1
                        >= HINT_SYNC_INTERVAL
                {
                    self.inserts_since_sync.store(0, Ordering::Relaxed);
                    self.resync_hint(self.total_bytes());
                }
                self.enforce_cap(Some(&path));
                Ok(true)
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Read and validate the entry for `key`. Anything that is not a
    /// byte-perfect current-version entry is a miss; invalid entries are
    /// additionally evicted from the directory ([`Load::Evicted`]).
    #[must_use]
    pub fn load(&self, key: StageKey) -> Load {
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Load::Miss,
            // Unreadable (permissions, I/O error): an unreadable entry
            // is worthless as cache content and — because `store` skips
            // existing paths — would otherwise pin its key to a
            // permanent miss. Try to evict so the recompute can rewrite
            // it; if removal fails too (e.g. a foreign-owned file we
            // cannot touch anyway), degrade to a plain miss.
            Err(_) => {
                return if fs::remove_file(&path).is_ok() {
                    Load::Evicted
                } else {
                    Load::Miss
                };
            }
        };
        match decode_entry(&bytes) {
            Some(entry) => {
                Self::touch(&path);
                Load::Hit(entry)
            }
            None => {
                let _ = fs::remove_file(&path);
                Load::Evicted
            }
        }
    }

    /// LRU recency: refresh an entry's mtime on every hit, so the size
    /// cap evicts genuinely cold entries instead of the oldest-written
    /// (and hottest-hit) ones. Best effort; a read-only directory just
    /// degrades to eviction by write age.
    fn touch(path: &Path) {
        if let Ok(f) = fs::File::options().write(true).open(path) {
            let _ = f.set_modified(std::time::SystemTime::now());
        }
    }

    /// Count the store's entry files by kind, read-only: nothing is
    /// evicted, no mtime is refreshed — `cool cache stats` must be able
    /// to report a directory (including its junk) without mutating it.
    #[must_use]
    pub fn kind_counts(&self) -> KindCounts {
        let mut counts = KindCounts::default();
        for path in self.entry_files() {
            let Ok(bytes) = fs::read(&path) else {
                counts.invalid += 1;
                continue;
            };
            match decode_entry(&bytes).map(|entry| entry.kind()) {
                Some(EntryKind::Stage) => counts.stage += 1,
                Some(EntryKind::Node) => counts.node += 1,
                None => counts.invalid += 1,
            }
        }
        counts
    }

    /// Remove every entry file, plus any `.tmp` leftovers from writers
    /// that crashed between write and rename. Returns how many entry
    /// files were removed (tmp leftovers are not counted). Unrelated
    /// files are left alone.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing errors; individual remove failures
    /// are skipped.
    pub fn clear(&self) -> io::Result<usize> {
        let mut removed = 0;
        for entry in fs::read_dir(&self.dir)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            match path.extension().and_then(|e| e.to_str()) {
                Some(EXT) if fs::remove_file(&path).is_ok() => removed += 1,
                Some("tmp") => {
                    let _ = fs::remove_file(&path);
                }
                _ => {}
            }
        }
        self.bytes_hint.store(self.total_bytes(), Ordering::Relaxed);
        Ok(removed)
    }

    /// Number of entry files currently in the directory.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.entry_files().count()
    }

    /// Total size in bytes of all entry files.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.entry_files()
            .filter_map(|p| fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }

    fn entry_files(&self) -> impl Iterator<Item = PathBuf> {
        fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(EXT) && p.is_file())
    }
}

fn checksum(payload: &[u8]) -> u128 {
    let mut h = ContentHasher::new();
    h.write(payload);
    h.finish()
}

/// Digest of the artifact-slot layout the payload encoding depends on:
/// the slot names in index order. Folded into every entry header so
/// that changing the slot set — the one edit the `for_each_slot!` macro
/// invites — invalidates old entries mechanically even when the
/// [`FORMAT_VERSION`] bump was forgotten. It does NOT cover the
/// per-type byte encodings; a `Codec` impl change still requires the
/// version bump (see [`FORMAT_VERSION`]).
fn layout_digest() -> u128 {
    let mut h = ContentHasher::new();
    for slot in ArtifactSlot::ALL {
        h.write_str(slot.name());
    }
    h.finish()
}

/// Validate and decode one complete entry file — the exact bytes
/// [`DiskStore::store`] writes and the remote-cache protocol carries:
/// magic, version, layout digest, length, checksum, entry kind and body
/// must all validate. `None` on any malformation.
#[must_use]
pub fn decode_entry(bytes: &[u8]) -> Option<CacheEntry> {
    if bytes.len() < HEADER + CHECKSUM || bytes[..8] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
    if version != FORMAT_VERSION {
        return None;
    }
    let layout = u128::from_le_bytes(bytes[12..28].try_into().ok()?);
    if layout != layout_digest() {
        return None;
    }
    let payload_len = u64::from_le_bytes(bytes[28..36].try_into().ok()?);
    let payload_len = usize::try_from(payload_len).ok()?;
    if bytes.len() != HEADER + payload_len + CHECKSUM {
        return None;
    }
    let payload = &bytes[HEADER..HEADER + payload_len];
    let stored = u128::from_le_bytes(bytes[HEADER + payload_len..].try_into().ok()?);
    if checksum(payload) != stored {
        return None;
    }
    from_bytes(payload).ok()
}

/// [`decode_entry`], keeping only stage entries. Kept for the benchmark
/// harness in `perfbench/`, which is written against this name; the
/// crates call [`decode_entry`].
#[must_use]
pub fn decode_stage_entry(bytes: &[u8]) -> Option<CacheEntry> {
    decode_entry(bytes).filter(|entry| entry.kind() == EntryKind::Stage)
}

/// Encode one complete entry file. [`DiskStore::store`] writes these with
/// [`FORMAT_VERSION`]; tests pass other versions to fabricate
/// version-bumped files in the otherwise-identical layout.
#[must_use]
pub fn encode_entry(entry: &CacheEntry, version: u32) -> Vec<u8> {
    wrap_payload(&to_bytes(entry), version)
}

/// Wrap an encoded payload in the entry-file header and checksum.
fn wrap_payload(payload: &[u8], version: u32) -> Vec<u8> {
    let mut file = Vec::with_capacity(HEADER + payload.len() + CHECKSUM);
    file.extend_from_slice(&MAGIC);
    file.extend_from_slice(&version.to_le_bytes());
    file.extend_from_slice(&layout_digest().to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(payload);
    file.extend_from_slice(&checksum(payload).to_le_bytes());
    file
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::NodeArtifact;
    use std::time::Duration;

    fn stage(writes: &[(ArtifactSlot, u128)], cost: Duration) -> CacheEntry {
        CacheEntry::Stage {
            delta: Box::default(),
            writes: writes.to_vec(),
            cost,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cool-disk-test-{tag}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The two hand-built entries `golden_entry_bytes_are_pinned` pins, as
    /// the production encoder writes them: a stage entry with a fixed
    /// cost (flow-produced entries embed wall-clock and cannot be
    /// pinned) and a VHDL node entry.
    fn golden_entries() -> [Vec<u8>; 2] {
        let writes = vec![
            (ArtifactSlot::Cost, 0x0123_4567_89ab_cdef_u128),
            (ArtifactSlot::Vhdl, u128::MAX - 1),
        ];
        let vhdl = NodeArtifact::Vhdl("entity golden is end;".to_string());
        [
            encode_entry(
                &stage(&writes, Duration::from_nanos(1_234_567)),
                FORMAT_VERSION,
            ),
            encode_entry(&CacheEntry::Node(vhdl), FORMAT_VERSION),
        ]
    }

    #[test]
    fn golden_entry_bytes_are_pinned() {
        // Any change here means every `.cce` file on disk or in flight
        // reads differently: bump FORMAT_VERSION instead of re-pinning.
        assert_eq!(FORMAT_VERSION, 4);
        let [stage, node] = golden_entries();
        let pin = |bytes: &[u8]| (bytes.len(), checksum(bytes));
        assert_eq!(
            pin(&stage),
            (118, 0xcbee_9813_e53b_132c_7e70_2400_b593_8232)
        );
        assert_eq!(pin(&node), (83, 0xa47c_a46f_f11a_c5d6_6b77_9cb9_3234_4c5a));
        // Node payload: kind byte 1, `NodeArtifact::Vhdl` tag 1, then the
        // length-prefixed text.
        let mut payload = vec![1, 1];
        payload.extend_from_slice(&21u64.to_le_bytes());
        payload.extend_from_slice(b"entity golden is end;");
        assert_eq!(&node[HEADER..node.len() - CHECKSUM], &payload[..]);
    }

    #[test]
    fn store_load_roundtrip_and_skip_existing() {
        let dir = temp_dir("roundtrip");
        let store = DiskStore::open(&dir).unwrap();
        let writes = vec![(ArtifactSlot::Cost, 42u128)];
        let cost = Duration::from_micros(123);
        assert!(store.store(7, &stage(&writes, cost)).unwrap());
        assert!(
            !store.store(7, &stage(&writes, cost)).unwrap(),
            "existing entries are not rewritten"
        );
        match store.load(7) {
            Load::Hit(CacheEntry::Stage {
                delta,
                writes: w,
                cost: c,
            }) => {
                assert_eq!(delta.slot_count(), 0);
                assert_eq!(w, writes);
                assert_eq!(c, cost);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(matches!(store.load(8), Load::Miss));
        assert_eq!(store.entry_count(), 1);
        assert!(store.total_bytes() > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_mismatched_entries_are_evicted() {
        let dir = temp_dir("corrupt");
        let store = DiskStore::open(&dir).unwrap();
        let cost = Duration::from_micros(5);
        store.store(1, &stage(&[], cost)).unwrap();
        // Bit-flip inside the payload.
        let path = store.entry_path(1);
        let mut bytes = fs::read(&path).unwrap();
        let mid = HEADER + 1;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.load(1), Load::Evicted));
        assert!(matches!(store.load(1), Load::Miss), "eviction removed it");

        // Version bump.
        let future = encode_entry(&stage(&[], cost), FORMAT_VERSION + 1);
        fs::write(store.entry_path(2), &future).unwrap();
        assert!(matches!(store.load(2), Load::Evicted));

        // Layout mismatch: a flipped byte in the header's layout digest
        // must read as a different slot layout and evict.
        store.store(5, &stage(&[], cost)).unwrap();
        let path = store.entry_path(5);
        let mut bytes = fs::read(&path).unwrap();
        bytes[14] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.load(5), Load::Evicted));

        // Truncation.
        store.store(3, &stage(&[], cost)).unwrap();
        let path = store.entry_path(3);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(store.load(3), Load::Evicted));

        // Empty file.
        fs::write(store.entry_path(4), b"").unwrap();
        assert!(matches!(store.load(4), Load::Evicted));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_cap_evicts_oldest_entries_first() {
        let dir = temp_dir("cap");
        // Unbounded store to seed entries with distinct mtimes.
        let seed = DiskStore::open_with_cap(&dir, 0).unwrap();
        let writes = vec![(ArtifactSlot::Cost, 7u128); 8]; // pad the payload
        for key in 1u128..=4 {
            seed.store(key, &stage(&writes, Duration::ZERO)).unwrap();
            // Distinct mtimes even on coarse-timestamp filesystems.
            std::thread::sleep(Duration::from_millis(15));
        }
        let entry_bytes = fs::metadata(seed.entry_path(1)).unwrap().len();
        assert_eq!(seed.size_evictions(), 0, "cap 0 means unbounded");

        // Reopen with room for two entries: the two oldest must go.
        let capped = DiskStore::open_with_cap(&dir, entry_bytes * 2).unwrap();
        assert_eq!(capped.size_evictions(), 2);
        assert_eq!(capped.entry_count(), 2);
        assert!(matches!(capped.load(1), Load::Miss), "oldest evicted");
        assert!(
            matches!(capped.load(2), Load::Miss),
            "second-oldest evicted"
        );
        assert!(matches!(capped.load(3), Load::Hit(_)));
        assert!(matches!(capped.load(4), Load::Hit(_)));

        // Inserting over the cap evicts the oldest survivor, never the
        // entry just written.
        std::thread::sleep(Duration::from_millis(15));
        capped.store(5, &stage(&writes, Duration::ZERO)).unwrap();
        assert_eq!(capped.size_evictions(), 3);
        assert!(matches!(capped.load(3), Load::Miss), "LRU victim");
        assert!(matches!(capped.load(4), Load::Hit(_)));
        assert!(
            matches!(capped.load(5), Load::Hit(_)),
            "fresh insert survives"
        );
        assert!(capped.total_bytes() <= entry_bytes * 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_directory_cap_survives_a_second_writer() {
        // Two handles on one directory — the daemon-plus-CLI shape. The
        // capped handle's running byte estimate never sees the other
        // handle's inserts; before the periodic re-sync its cap check
        // would stay "under budget" forever while the directory grew
        // without bound.
        let dir = temp_dir("shared-cap");
        let writes = vec![(ArtifactSlot::Cost, 7u128); 8]; // pad the payload
        let capped = DiskStore::open_with_cap(&dir, 1).unwrap();
        capped.store(1, &stage(&writes, Duration::ZERO)).unwrap();
        let entry_bytes = fs::metadata(capped.entry_path(1)).unwrap().len();

        // A second, unbounded handle floods the directory far past the
        // capped handle's budget (re-opened with room for ~4 entries so
        // the flood is unambiguously over cap).
        let capped = DiskStore::open_with_cap(&dir, entry_bytes * 4).unwrap();
        let other = DiskStore::open_with_cap(&dir, 0).unwrap();
        for key in 100u128..140 {
            other.store(key, &stage(&writes, Duration::ZERO)).unwrap();
        }
        assert!(other.total_bytes() > entry_bytes * 10);
        std::thread::sleep(Duration::from_millis(15));

        // Fewer inserts than the flood, but enough to cross the re-sync
        // interval: the capped handle must notice the foreign bytes and
        // trim the shared directory back under its budget.
        for key in 1u128..=HINT_SYNC_INTERVAL as u128 {
            capped.store(key, &stage(&writes, Duration::ZERO)).unwrap();
        }
        assert!(
            capped.total_bytes() <= entry_bytes * 4,
            "periodic re-sync must enforce the cap against foreign inserts \
             ({} bytes on disk, cap {})",
            capped.total_bytes(),
            entry_bytes * 4
        );
        assert!(capped.size_evictions() > 0, "the trim actually ran");
        assert!(
            matches!(capped.load(HINT_SYNC_INTERVAL as u128), Load::Hit(_)),
            "the freshest insert survives the trim"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_cap_still_keeps_the_fresh_insert() {
        // A cap smaller than one entry cannot evict the entry it just
        // wrote (that would make the cache permanently useless); it
        // evicts everything else instead.
        let dir = temp_dir("tiny-cap");
        let store = DiskStore::open_with_cap(&dir, 1).unwrap();
        store.store(1, &stage(&[], Duration::ZERO)).unwrap();
        assert!(matches!(store.load(1), Load::Hit(_)));
        std::thread::sleep(Duration::from_millis(15));
        store.store(2, &stage(&[], Duration::ZERO)).unwrap();
        assert!(matches!(store.load(1), Load::Miss));
        assert!(matches!(store.load(2), Load::Hit(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    fn sample_artifact() -> NodeArtifact {
        NodeArtifact::Hls(cool_hls::HlsDesign {
            name: String::new(),
            latency_cycles: 7,
            area_clbs: 42,
            fu_instances: (1, 0, 2),
            register_count: 3,
            mux_count: 4,
            fsm_states: 8,
            operation_count: 5,
        })
    }

    #[test]
    fn node_entries_roundtrip_and_keep_their_kind() {
        let dir = temp_dir("node-roundtrip");
        let store = DiskStore::open(&dir).unwrap();
        let artifact = sample_artifact();
        let entry = CacheEntry::Node(artifact.clone());
        assert!(store.store(11, &entry).unwrap());
        assert!(!store.store(11, &entry).unwrap(), "no rewrite");
        match store.load(11) {
            Load::Hit(CacheEntry::Node(back)) => assert_eq!(back, artifact),
            other => panic!("expected node hit, got {other:?}"),
        }
        assert!(matches!(store.load(12), Load::Miss));
        // Both kinds share the directory; each reads back as its own kind.
        store.store(13, &stage(&[], Duration::ZERO)).unwrap();
        assert!(matches!(
            store.load(13),
            Load::Hit(CacheEntry::Stage { .. })
        ));
        assert!(matches!(store.load(11), Load::Hit(CacheEntry::Node(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn junk_node_entries_degrade_to_misses() {
        let dir = temp_dir("node-junk");
        let store = DiskStore::open(&dir).unwrap();
        // Truncated node entry.
        let good = encode_entry(&CacheEntry::Node(sample_artifact()), FORMAT_VERSION);
        fs::write(store.entry_path(21), &good[..good.len() / 2]).unwrap();
        assert!(matches!(store.load(21), Load::Evicted));
        assert!(matches!(store.load(21), Load::Miss));
        // Stale-version node entry.
        let old = encode_entry(&CacheEntry::Node(sample_artifact()), FORMAT_VERSION - 1);
        fs::write(store.entry_path(22), &old).unwrap();
        assert!(matches!(store.load(22), Load::Evicted));
        // Bit flip inside the body.
        let mut bytes = encode_entry(&CacheEntry::Node(sample_artifact()), FORMAT_VERSION);
        let mid = HEADER + 3;
        bytes[mid] ^= 0x20;
        fs::write(store.entry_path(23), &bytes).unwrap();
        assert!(matches!(store.load(23), Load::Evicted));
        // Unknown entry kind.
        let alien = wrap_payload(b"\x09payload from the future", FORMAT_VERSION);
        fs::write(store.entry_path(24), &alien).unwrap();
        assert!(matches!(store.load(24), Load::Evicted));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kind_counts_census_is_read_only() {
        let dir = temp_dir("kind-counts");
        let store = DiskStore::open(&dir).unwrap();
        store.store(1, &stage(&[], Duration::ZERO)).unwrap();
        store
            .store(2, &CacheEntry::Node(sample_artifact()))
            .unwrap();
        store
            .store(3, &CacheEntry::Node(sample_artifact()))
            .unwrap();
        fs::write(store.entry_path(4), b"garbage").unwrap();
        let counts = store.kind_counts();
        assert_eq!(
            counts,
            KindCounts {
                stage: 1,
                node: 2,
                invalid: 1
            }
        );
        // Read-only: the census must leave everything in place,
        // including the junk.
        assert_eq!(store.entry_count(), 4);
        assert_eq!(store.kind_counts(), counts);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_removes_only_entries() {
        let dir = temp_dir("clear");
        let store = DiskStore::open(&dir).unwrap();
        store.store(1, &stage(&[], Duration::ZERO)).unwrap();
        store.store(2, &stage(&[], Duration::ZERO)).unwrap();
        fs::write(dir.join("README.txt"), "not an entry").unwrap();
        fs::write(dir.join(".deadbeef.1234.0.tmp"), "crashed writer leftover").unwrap();
        assert_eq!(store.clear().unwrap(), 2);
        assert_eq!(store.entry_count(), 0);
        assert!(dir.join("README.txt").exists());
        assert!(
            !dir.join(".deadbeef.1234.0.tmp").exists(),
            "clear sweeps tmp leftovers"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
