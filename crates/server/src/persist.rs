//! # On-disk persistence for the optimization cache
//!
//! [`FileStore`] implements [`fj_core::CacheStore`] over a plain
//! directory: one file per cache key, written atomically (temp file +
//! rename), containing the *surface text* of the input and output terms.
//!
//! ## Why text, not a binary AST dump
//!
//! The store's integrity domain is the filesystem — anything there can
//! be truncated, corrupted, hand-edited, or left over from an older
//! build. Instead of trusting bytes, the store serializes through the
//! frontend's own unparser ([`fj_surface::unparse_entry`]) and
//! deserializes by **re-running the full frontend**
//! ([`fj_surface::parse_entry`] + [`fj_surface::lower_entry`]): a loaded
//! entry is lexed, parsed, lowered, and then α-verified against the
//! live request (and its output Core-Linted) by the cache before
//! adoption. A bad file fails one of those stages and costs a cache
//! miss — it can never produce a wrong term. The files are also
//! human-readable, which makes the cache directory debuggable with
//! `cat`.
//!
//! ## File format
//!
//! ```text
//! fj-cache 1
//! key <term> <cfg> <env> <mode>          -- the CacheKey, hex fields
//! input <byte-length>
//! <that many bytes of surface text: data decls + expression>
//! output <byte-length>
//! <that many bytes of surface text>
//! end
//! ```
//!
//! The file name is the key spelled in hex, so lookups are a single
//! `read`; the key line inside echoes it so a renamed or cross-copied
//! file is detected as corrupt. `data` declarations ride inside each
//! section (the unparser emits the non-prelude environment sorted by
//! name), so an entry is self-contained: re-lowering rebuilds the
//! datatype environment and its fingerprint is compared against the
//! request's.
//!
//! ## Crash safety & concurrency
//!
//! Writes go to a unique temp file in the same directory and are
//! `rename`d into place — readers see either the old complete file or
//! the new complete file, never a torn one (rename is atomic on POSIX
//! for same-directory moves). Concurrent writers of the same key race
//! benignly: both files carry the same content up to α-equivalence, and
//! last-rename-wins. All IO failures degrade to a miss (`load`) or a
//! counted no-op (`store`); a read-only cache directory serves hits and
//! refuses writes without ever failing a compile.

use fj_ast::{DataEnv, Expr};
use fj_core::{CacheKey, CacheStore, DiskLoad, StoredEntry};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Format version; bumped whenever the layout or the surface grammar
/// changes incompatibly. A version mismatch is [`DiskLoad::Corrupt`].
const FORMAT_VERSION: u32 = 1;

/// Reject absurdly large files before reading them into memory.
const MAX_FILE_BYTES: u64 = 64 << 20;

/// A directory of persisted cache entries. See the module docs.
pub struct FileStore {
    dir: PathBuf,
    /// Distinguishes temp files of concurrent writers within a process.
    temp_seq: AtomicU64,
}

impl FileStore {
    /// Open (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// The `create_dir_all` error if the directory cannot be created.
    pub fn open(dir: &Path) -> std::io::Result<FileStore> {
        std::fs::create_dir_all(dir)?;
        Ok(FileStore {
            dir: dir.to_path_buf(),
            temp_seq: AtomicU64::new(0),
        })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!(
            "{:016x}-{:016x}-{:016x}-{}.fjc",
            key.term,
            key.cfg,
            key.env,
            if key.resilient { "r" } else { "s" }
        ))
    }

    fn key_line(key: &CacheKey) -> String {
        format!(
            "key {:016x} {:016x} {:016x} {}",
            key.term,
            key.cfg,
            key.env,
            if key.resilient { "r" } else { "s" }
        )
    }
}

/// Split `text` after its first newline; `None` if there is none.
fn take_line(text: &str) -> Option<(&str, &str)> {
    let nl = text.find('\n')?;
    Some((&text[..nl], &text[nl + 1..]))
}

/// Parse a `<tag> <byte-length>` header and split off that many bytes of
/// payload plus the trailing newline.
fn take_section<'a>(text: &'a str, tag: &str) -> Option<(&'a str, &'a str)> {
    let (header, rest) = take_line(text)?;
    let len: usize = header.strip_prefix(tag)?.strip_prefix(' ')?.parse().ok()?;
    if rest.len() < len {
        return None;
    }
    let (payload, rest) = rest.split_at(len);
    let rest = rest.strip_prefix('\n')?;
    Some((payload, rest))
}

/// Re-run the frontend over one persisted section. The entry text is
/// self-contained (`data` decls + bare expression).
fn relower(text: &str) -> Option<fj_surface::Lowered> {
    let toks = fj_surface::lex(text).ok()?;
    let (datas, expr) = fj_surface::parse_entry(&toks).ok()?;
    fj_surface::lower_entry(&datas, &expr).ok()
}

impl CacheStore for FileStore {
    fn load(&self, key: &CacheKey) -> DiskLoad {
        let path = self.path_for(key);
        match std::fs::metadata(&path) {
            Ok(meta) if meta.len() > MAX_FILE_BYTES => return DiskLoad::Corrupt,
            Ok(_) => {}
            Err(_) => return DiskLoad::Absent,
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            // Present but unreadable (permissions, encoding): treat as
            // absent — the compile must still succeed.
            return DiskLoad::Absent;
        };
        let Some(entry) = decode(&text, key) else {
            return DiskLoad::Corrupt;
        };
        DiskLoad::Entry(entry)
    }

    fn store(&self, key: &CacheKey, input: &Expr, output: &Expr, env: &DataEnv) -> bool {
        use std::io::Write;
        let mut text = format!("fj-cache {FORMAT_VERSION}\n{}\n", Self::key_line(key));
        for (tag, term) in [("input", input), ("output", output)] {
            let body = fj_surface::unparse_entry(term, env);
            text.push_str(tag);
            text.push(' ');
            text.push_str(&body.len().to_string());
            text.push('\n');
            text.push_str(&body);
            text.push('\n');
        }
        text.push_str("end\n");
        // Unique temp name in the same directory so the rename is atomic;
        // pid + sequence keeps concurrent processes and threads apart.
        let temp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.temp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let written = std::fs::File::create(&temp)
            .and_then(|mut f| f.write_all(text.as_bytes()).and_then(|()| f.sync_all()));
        if written.is_err() {
            let _ = std::fs::remove_file(&temp);
            return false;
        }
        if std::fs::rename(&temp, self.path_for(key)).is_err() {
            let _ = std::fs::remove_file(&temp);
            return false;
        }
        true
    }
}

/// Decode one persisted file; `None` on any structural problem.
fn decode(text: &str, key: &CacheKey) -> Option<Box<StoredEntry>> {
    let (version, rest) = take_line(text)?;
    if version != format!("fj-cache {FORMAT_VERSION}") {
        return None;
    }
    let (key_echo, rest) = take_line(rest)?;
    if key_echo != FileStore::key_line(key) {
        return None;
    }
    let (input_text, rest) = take_section(rest, "input")?;
    let (output_text, rest) = take_section(rest, "output")?;
    if rest != "end\n" {
        return None;
    }
    let input = relower(input_text)?;
    let output = relower(output_text)?;
    if input.data_env.fingerprint() != output.data_env.fingerprint() {
        return None;
    }
    let env_fingerprint = input.data_env.fingerprint();
    // Both re-lowerings drew from fresh supplies; the larger peek is past
    // every name in either term.
    let supply_high = input.supply.peek().max(output.supply.peek());
    Some(Box::new(StoredEntry {
        input: input.expr,
        output: output.expr,
        env_fingerprint,
        supply_high,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_core::{optimize_cached, OptCache, OptConfig, DEFAULT_CACHE_BYTES};
    use std::sync::Arc;

    /// A scratch directory that cleans up on drop. Names come from a
    /// process-wide counter, so parallel tests never collide.
    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "fj-persist-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    const PROGRAM: &str = "\
data Shape = Circle Int | Square Int Int;
def area : Shape -> Int =
  \\(s : Shape) -> case s of {
    Circle r -> 3 * r * r;
    Square w h -> w * h
  };
def main : Int = area (Square 3 4) + area (Circle 2);
";

    fn cache_with(dir: &Path) -> OptCache {
        OptCache::with_budget(4, DEFAULT_CACHE_BYTES)
            .with_store(Arc::new(FileStore::open(dir).unwrap()))
    }

    /// Compile `PROGRAM` through the given cache; returns the optimized
    /// term and whether it was a hit.
    fn compile_through(cache: &OptCache) -> (Arc<Expr>, bool) {
        let mut lowered = fj_surface::compile(PROGRAM).unwrap();
        let (term, _, hit) = optimize_cached(
            &lowered.expr,
            &lowered.data_env,
            &mut lowered.supply,
            &OptConfig::join_points(),
            cache,
        )
        .unwrap();
        (term, hit)
    }

    #[test]
    fn restart_round_trip_is_a_disk_hit() {
        let tmp = TempDir::new("roundtrip");
        let (cold_term, cold_hit) = compile_through(&cache_with(&tmp.0));
        assert!(!cold_hit);

        // "Restart": a fresh cache over the same directory.
        let cache2 = cache_with(&tmp.0);
        let (warm_term, warm_hit) = compile_through(&cache2);
        assert!(warm_hit, "restarted cache must hit from disk");
        assert!(fj_ast::alpha_eq(&cold_term, &warm_term));
        let stats = cache2.stats();
        assert_eq!((stats.disk_hits, stats.misses), (1, 0), "{stats:?}");
    }

    #[test]
    fn files_survive_cat_level_inspection() {
        // The format promise: entries are readable surface text carrying
        // their data declarations.
        let tmp = TempDir::new("readable");
        compile_through(&cache_with(&tmp.0));
        let mut entries = std::fs::read_dir(&tmp.0).unwrap();
        let file = entries.next().unwrap().unwrap().path();
        let text = std::fs::read_to_string(file).unwrap();
        assert!(text.starts_with("fj-cache 1\nkey "), "{text}");
        assert!(text.contains("data Shape ="), "{text}");
        assert!(text.ends_with("end\n"), "{text}");
    }

    #[test]
    fn truncated_and_garbage_files_cost_a_miss_not_a_wrong_term() {
        let tmp = TempDir::new("corrupt");
        compile_through(&cache_with(&tmp.0));
        let file = std::fs::read_dir(&tmp.0)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let pristine = std::fs::read_to_string(&file).unwrap();

        let corruptions: Vec<String> = vec![
            pristine[..pristine.len() / 2].to_string(), // truncated
            "total garbage\n".to_string(),
            pristine.replace("fj-cache 1", "fj-cache 999"), // future version
            pristine.replace("case", "craze"),              // unparsable payload
            pristine.replacen("input ", "input 9", 1),      // broken length hdr
        ];
        for bad in corruptions {
            std::fs::write(&file, &bad).unwrap();
            let cache = cache_with(&tmp.0);
            let (_, hit) = compile_through(&cache);
            assert!(!hit, "corrupt file must miss: {bad:.60}");
            let stats = cache.stats();
            assert_eq!(stats.disk_hits, 0, "{stats:?}");
            assert!(
                stats.disk_verify_failures >= 1 || stats.disk_misses >= 1,
                "{stats:?}"
            );
            // The recompile rewrote a good entry; restore for next round.
        }
    }

    #[test]
    fn cross_copied_entries_are_rejected_by_the_key_echo() {
        // Copy a valid entry onto a *different* key's file name: the key
        // line inside no longer matches, so it must decode as corrupt.
        let tmp = TempDir::new("crosscopy");
        let cache = cache_with(&tmp.0);
        compile_through(&cache);
        let file = std::fs::read_dir(&tmp.0)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let other = tmp
            .0
            .join(format!("{:016x}-{:016x}-{:016x}-s.fjc", 1u64, 2u64, 3u64));
        std::fs::copy(&file, &other).unwrap();
        let store = FileStore::open(&tmp.0).unwrap();
        let stray_key = CacheKey {
            term: 1,
            cfg: 2,
            env: 3,
            resilient: false,
        };
        assert!(matches!(store.load(&stray_key), DiskLoad::Corrupt));
    }

    #[test]
    fn read_only_cache_dir_serves_hits_and_swallows_writes() {
        use std::os::unix::fs::PermissionsExt;
        let tmp = TempDir::new("readonly");
        compile_through(&cache_with(&tmp.0));
        let mut perms = std::fs::metadata(&tmp.0).unwrap().permissions();
        perms.set_mode(0o555);
        std::fs::set_permissions(&tmp.0, perms).unwrap();

        // Hits still work against a read-only directory...
        let cache = OptCache::with_budget(4, DEFAULT_CACHE_BYTES).with_store(Arc::new(FileStore {
            dir: tmp.0.clone(),
            temp_seq: AtomicU64::new(0),
        }));
        let (_, hit) = compile_through(&cache);
        assert!(hit, "read-only directory must still serve");

        // ...and a write of a new entry degrades to a counted failure.
        // (Under root the mode bits don't bind, so only assert the
        // failure when the directory actually refuses a probe write.)
        let probe = tmp.0.join(".probe");
        let refused = std::fs::File::create(&probe).is_err();
        let _ = std::fs::remove_file(&probe);
        let mut lowered = fj_surface::compile("def main : Int = 40 + 2;").unwrap();
        let (_, _, hit2) = optimize_cached(
            &lowered.expr,
            &lowered.data_env,
            &mut lowered.supply,
            &OptConfig::join_points(),
            &cache,
        )
        .unwrap();
        assert!(!hit2);
        let stats = cache.stats();
        if refused {
            assert_eq!(stats.disk_write_failures, 1, "{stats:?}");
        }

        let mut perms = std::fs::metadata(&tmp.0).unwrap().permissions();
        perms.set_mode(0o755);
        std::fs::set_permissions(&tmp.0, perms).unwrap();
    }

    #[test]
    fn unwritable_store_fails_countedly_never_fatally() {
        // Deterministic write failure on any platform and any privilege:
        // the "directory" is a file, so temp-file creation can't succeed.
        let tmp = TempDir::new("notadir");
        let bogus = tmp.0.join("blocked");
        std::fs::write(&bogus, b"not a directory").unwrap();
        let cache = OptCache::with_budget(4, DEFAULT_CACHE_BYTES).with_store(Arc::new(FileStore {
            dir: bogus,
            temp_seq: AtomicU64::new(0),
        }));
        let (_, hit) = compile_through(&cache);
        assert!(!hit, "nothing persisted, nothing to hit");
        let stats = cache.stats();
        assert_eq!(stats.disk_write_failures, 1, "{stats:?}");
        assert_eq!(stats.misses, 1, "the compile itself must succeed");
    }

    #[test]
    fn concurrent_writers_of_one_key_leave_a_valid_file() {
        let tmp = TempDir::new("racing");
        let dir = tmp.0.clone();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    // Each thread gets its own store (and cache) over the
                    // shared directory — as separate server processes
                    // would.
                    let (_, _) = compile_through(&cache_with(&dir));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // No temp litter, and whatever file won the race is adoptable.
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(
            names.iter().all(|n| n.ends_with(".fjc")),
            "temp litter: {names:?}"
        );
        assert_eq!(names.len(), 1, "one key, one file: {names:?}");
        let (_, hit) = compile_through(&cache_with(&dir));
        assert!(hit);
    }
}
