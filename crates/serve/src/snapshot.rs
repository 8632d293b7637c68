//! Versioned `.gbsnap` graph snapshot files — the milliseconds-restart
//! path.
//!
//! A snapshot file persists one catalog entry (name, canonical spec,
//! epoch, boolean adjacency, derived `u32` weights) so a restarted server
//! can [`restore`](crate::protocol::Request::Restore) it with two bulk
//! binary reads instead of re-generating or re-parsing Matrix Market
//! text. File layout (integers little-endian):
//!
//! ```text
//! offset  size   field
//! 0       8      magic     b"GBSNAP1\n"
//! 8       4      version   (1)
//! 12      8      checksum of the payload (everything below; the word
//!                fold `gbtl_sparse::snapshot::checksum_fold`)
//! 20      4      name length   + that many UTF-8 bytes
//! ..      4      spec length   + that many UTF-8 bytes
//! ..      8      epoch (as recorded at snapshot time; informative only —
//!                restore assigns a fresh epoch via the catalog)
//! ..      —      adjacency  CSR section (bool,  see gbtl_sparse::snapshot)
//! ..      8      weight count (u64; must equal the adjacency nnz)
//! ..      4*nnz  weight values (u32 each)
//! ```
//!
//! Weights are stored *values-only*: the catalog guarantees they share the
//! adjacency's structure object, so persisting a second row_ptr/col_idx
//! copy would roughly double the file for pure redundancy. Restore puts
//! the value array over the (already validated) adjacency structure,
//! shared, not copied, so the restored entry holds one structure too.
//!
//! The payload checksum catches torn or bit-flipped files before any
//! structure is trusted; each CSR section then re-verifies its own
//! checksum and full CSR invariants. Every failure is a diagnostic
//! `Err(String)` — corrupt and truncated files never panic. Writes go
//! through a same-directory temp file + rename, so a crashed snapshot
//! never leaves a half-written `.gbsnap` behind.

use std::path::{Path, PathBuf};

use gbtl_core::Matrix;
use gbtl_sparse::snapshot::{checksum_fold, read_csr, write_csr, CHECKSUM_SEED};
use gbtl_sparse::CsrMatrix;

use crate::catalog::GraphEntry;

/// File magic: names the format and pins revision 1.
pub const MAGIC: [u8; 8] = *b"GBSNAP1\n";

/// Format version written (and the only one accepted) by this build.
pub const VERSION: u32 = 1;

/// Filename extension for snapshot files.
pub const EXTENSION: &str = "gbsnap";

/// The decoded contents of one snapshot file.
#[derive(Debug)]
pub struct SnapshotFile {
    /// Catalog name recorded at snapshot time.
    pub name: String,
    /// Canonical spec string recorded at snapshot time.
    pub spec: String,
    /// Epoch recorded at snapshot time (informative; restore re-stamps).
    pub epoch: u64,
    /// Boolean adjacency.
    pub adj: CsrMatrix<bool>,
    /// Derived `u32` weights over the same structure.
    pub weights: CsrMatrix<u32>,
}

/// Map a graph name to its snapshot filename: alphanumerics, `-`, `_` and
/// `.` pass through; every other byte is percent-escaped as `%XX`. The
/// escaping is injective, so distinct graph names can never collide on one
/// file — and a hostile name like `../../etc/passwd` stays inside `dir`.
pub fn file_stem(name: &str) -> String {
    let mut s = String::with_capacity(name.len());
    for b in name.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' => s.push(b as char),
            other => {
                s.push('%');
                s.push_str(&format!("{other:02x}"));
            }
        }
    }
    s
}

/// The snapshot path for `name` under `dir`.
pub fn snapshot_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{}.{EXTENSION}", file_stem(name)))
}

/// Serialize `entry` to `snapshot_path(dir, entry.name)`, creating `dir`
/// if needed. Returns `(path, bytes_written)`.
pub fn write_snapshot(dir: &Path, entry: &GraphEntry) -> Result<(PathBuf, u64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    let mut payload = Vec::new();
    let put_str = |payload: &mut Vec<u8>, s: &str| {
        payload.extend_from_slice(&(s.len() as u32).to_le_bytes());
        payload.extend_from_slice(s.as_bytes());
    };
    put_str(&mut payload, &entry.name);
    put_str(&mut payload, &entry.spec);
    payload.extend_from_slice(&entry.epoch.to_le_bytes());
    let adj = entry.adj.csr();
    let weights = entry.weights.csr();
    if weights.structure_id() != adj.structure_id() {
        return Err(format!(
            "graph '{}': weights do not share the adjacency structure; refusing to snapshot",
            entry.name
        ));
    }
    write_csr(&mut payload, adj).map_err(|e| format!("encode adjacency: {e}"))?;
    payload.extend_from_slice(&(weights.nnz() as u64).to_le_bytes());
    for &v in weights.vals() {
        payload.extend_from_slice(&v.to_le_bytes());
    }

    let mut file = Vec::with_capacity(20 + payload.len());
    file.extend_from_slice(&MAGIC);
    file.extend_from_slice(&VERSION.to_le_bytes());
    file.extend_from_slice(&checksum_fold(CHECKSUM_SEED, &payload).to_le_bytes());
    file.extend_from_slice(&payload);

    let path = snapshot_path(dir, &entry.name);
    let tmp = path.with_extension(format!("{EXTENSION}.tmp"));
    std::fs::write(&tmp, &file).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("rename into {}: {e}", path.display())
    })?;
    Ok((path, file.len() as u64))
}

/// Decode the snapshot file at `path`. Validation order: length, magic,
/// version, payload checksum, then field-by-field with bounds-checked
/// reads and fully validated CSR sections.
pub fn read_snapshot(path: &Path) -> Result<SnapshotFile, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let fail = |what: &str| format!("{}: {what}", path.display());
    if bytes.len() < 20 {
        return Err(fail(&format!(
            "truncated: {} bytes is smaller than the 20-byte header",
            bytes.len()
        )));
    }
    if bytes[0..8] != MAGIC {
        return Err(fail("bad magic: not a .gbsnap file"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(fail(&format!(
            "unsupported snapshot version {version} (this build reads {VERSION})"
        )));
    }
    let stored = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let payload = &bytes[20..];
    let computed = checksum_fold(CHECKSUM_SEED, payload);
    if stored != computed {
        return Err(fail(&format!(
            "payload checksum mismatch (stored {stored:#018x}, computed {computed:#018x}) — \
             file is corrupt"
        )));
    }

    let mut cursor = payload;
    let mut take = |n: usize, what: &str| -> Result<&[u8], String> {
        if cursor.len() < n {
            return Err(fail(&format!(
                "truncated while reading {what} (wanted {n} bytes, {} left)",
                cursor.len()
            )));
        }
        let (head, tail) = cursor.split_at(n);
        cursor = tail;
        Ok(head)
    };
    let name_len = u32::from_le_bytes(take(4, "name length")?.try_into().expect("4 bytes"));
    let name = String::from_utf8(take(name_len as usize, "name")?.to_vec())
        .map_err(|_| fail("graph name is not UTF-8"))?;
    let spec_len = u32::from_le_bytes(take(4, "spec length")?.try_into().expect("4 bytes"));
    let spec = String::from_utf8(take(spec_len as usize, "spec")?.to_vec())
        .map_err(|_| fail("spec is not UTF-8"))?;
    let epoch = u64::from_le_bytes(take(8, "epoch")?.try_into().expect("8 bytes"));

    let adj: CsrMatrix<bool> =
        read_csr(&mut cursor).map_err(|e| fail(&format!("adjacency section: {e}")))?;

    // weights: values-only, sharing the adjacency's validated structure
    if cursor.len() < 8 {
        return Err(fail("truncated while reading weight count"));
    }
    let (head, tail) = cursor.split_at(8);
    cursor = tail;
    let count = u64::from_le_bytes(head.try_into().expect("8 bytes"));
    if count != adj.nnz() as u64 {
        return Err(fail(&format!(
            "weight count {count} does not match adjacency nnz {}",
            adj.nnz()
        )));
    }
    let need = adj.nnz() * 4;
    if cursor.len() < need {
        return Err(fail(&format!(
            "truncated while reading weight values (wanted {need} bytes, {} left)",
            cursor.len()
        )));
    }
    let (val_bytes, tail) = cursor.split_at(need);
    cursor = tail;
    let vals: Vec<u32> = val_bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect();
    let weights = adj
        .with_same_structure(vals)
        .map_err(|e| fail(&format!("weights section: {e}")))?;

    if !cursor.is_empty() {
        return Err(fail(&format!(
            "{} trailing bytes after the weights section",
            cursor.len()
        )));
    }
    if name.is_empty() {
        return Err(fail("recorded graph name is empty"));
    }
    Ok(SnapshotFile {
        name,
        spec,
        epoch,
        adj,
        weights,
    })
}

/// Every `.gbsnap` file under `dir`, sorted by filename (so restore-all
/// order is deterministic). A missing directory is an empty list, not an
/// error — a fresh server with a configured-but-unused snapshot dir.
pub fn list_snapshots(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("read {}: {e}", dir.display())),
    };
    let mut out = Vec::new();
    for entry in entries {
        let path = entry
            .map_err(|e| format!("read {}: {e}", dir.display()))?
            .path();
        if path.extension().and_then(|e| e.to_str()) == Some(EXTENSION) {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Rebuild the in-memory matrices from a decoded snapshot.
pub fn into_matrices(snap: SnapshotFile) -> (Matrix<bool>, Matrix<u32>) {
    (Matrix::from_csr(snap.adj), Matrix::from_csr(snap.weights))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, GraphSpec};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gbtl_snap_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn file_stems_are_injective_and_traversal_safe() {
        assert_eq!(file_stem("rmat14"), "rmat14");
        assert_eq!(file_stem("a/b"), "a%2fb");
        assert_eq!(file_stem("../x"), "..%2fx");
        assert_ne!(file_stem("a%2fb"), file_stem("a/b"), "escape is injective");
        let hostile = snapshot_path(Path::new("/d"), "../../etc/passwd");
        assert_eq!(hostile.parent(), Some(Path::new("/d")), "{hostile:?}");
    }

    #[test]
    fn snapshot_round_trips_a_catalog_entry() {
        let dir = tmp_dir("roundtrip");
        let cat = Catalog::new();
        let entry = cat.load("k", &GraphSpec::Karate).unwrap();
        let (path, bytes) = write_snapshot(&dir, &entry).unwrap();
        assert!(bytes > 20);
        let snap = read_snapshot(&path).unwrap();
        assert_eq!(snap.name, "k");
        assert_eq!(snap.spec, "karate");
        assert_eq!(snap.epoch, 1);
        assert_eq!(&snap.adj, entry.adj.csr());
        assert_eq!(&snap.weights, entry.weights.csr());
        assert_eq!(list_snapshots(&dir).unwrap(), vec![path]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_load_and_a_restore_hold_one_structure_per_graph() {
        let one_structure = |entry: &GraphEntry| {
            let (adj, weights) = (entry.adj.csr(), entry.weights.csr());
            assert_eq!(adj.row_ptr().as_ptr(), weights.row_ptr().as_ptr());
            assert_eq!(adj.col_idx().as_ptr(), weights.col_idx().as_ptr());
        };
        let dir = tmp_dir("one_structure");
        let cat = Catalog::new();
        let loaded = cat.load("k", &GraphSpec::Karate).unwrap();
        one_structure(&loaded);
        let (path, _) = write_snapshot(&dir, &loaded).unwrap();
        let (adj, weights) = into_matrices(read_snapshot(&path).unwrap());
        let restored = cat.install("k", loaded.spec.clone(), adj, weights).unwrap();
        one_structure(&restored);
        assert_eq!(restored.adj.csr(), loaded.adj.csr());
        assert_eq!(restored.weights.csr(), loaded.weights.csr());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_and_truncated_files_fail_with_diagnostics() {
        let dir = tmp_dir("corrupt");
        let cat = Catalog::new();
        let entry = cat.load("k", &GraphSpec::Karate).unwrap();
        let (path, _) = write_snapshot(&dir, &entry).unwrap();
        let good = std::fs::read(&path).unwrap();

        // bad magic
        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(err.contains("magic"), "{err}");

        // future version
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(err.contains("version 99"), "{err}");

        // flipped payload byte
        let mut bad = good.clone();
        let mid = 20 + (bad.len() - 20) / 2;
        bad[mid] ^= 0x55;
        std::fs::write(&path, &bad).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(err.contains("checksum"), "{err}");

        // truncations at every region boundary
        for cut in [5, 19, 40, good.len() / 2, good.len() - 3] {
            std::fs::write(&path, &good[..cut]).unwrap();
            let err = read_snapshot(&path).unwrap_err();
            assert!(
                err.contains("truncated") || err.contains("checksum"),
                "cut {cut}: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dir_lists_empty_and_missing_file_errors() {
        let dir = tmp_dir("missing");
        assert_eq!(list_snapshots(&dir).unwrap(), Vec::<PathBuf>::new());
        let err = read_snapshot(&dir.join("nope.gbsnap")).unwrap_err();
        assert!(err.contains("nope.gbsnap"), "{err}");
    }
}
