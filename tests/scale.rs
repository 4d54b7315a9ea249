//! Scale and endurance tests: many files, deep directories, big files,
//! many versions, and many transactions. Sized to run in seconds; the
//! `#[ignore]`d variants push an order of magnitude further.

mod common;

use common::Devices;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use inversion::{CreateMode, InvError, InvResult, InversionFs, OpenMode, SeekWhence, CHUNK_SIZE};
use minidb::{shared_device, DbError};
use simdev::{BlockDevice, DiskProfile, MagneticDisk};

fn fresh_fs() -> InversionFs {
    InversionFs::format(Devices::new().format()).unwrap()
}

#[test]
fn hundreds_of_files_in_one_directory() {
    let fs = fresh_fs();
    let mut c = fs.client();
    c.p_mkdir("/many").unwrap();
    c.p_begin().unwrap();
    for i in 0..300 {
        let fd = c
            .p_creat(&format!("/many/file_{i:04}"), CreateMode::default())
            .unwrap();
        c.p_write(fd, format!("contents of {i}").as_bytes())
            .unwrap();
        c.p_close(fd).unwrap();
    }
    c.p_commit().unwrap();

    let entries = c.p_readdir("/many", None).unwrap();
    assert_eq!(entries.len(), 300);
    // Names come back sorted (B-tree order).
    assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
    // Spot checks resolve through the index.
    for i in (0..300).step_by(37) {
        assert_eq!(
            c.read_to_vec(&format!("/many/file_{i:04}"), None).unwrap(),
            format!("contents of {i}").as_bytes()
        );
    }
}

#[test]
fn deep_directory_nesting() {
    let fs = fresh_fs();
    let mut c = fs.client();
    let mut path = String::new();
    for d in 0..40 {
        path.push_str(&format!("/d{d}"));
        c.p_mkdir(&path).unwrap();
    }
    path.push_str("/leaf");
    c.write_all(&path, CreateMode::default(), b"deep").unwrap();
    assert_eq!(c.read_to_vec(&path, None).unwrap(), b"deep");
    // path_of reconstructs the full 40-level path.
    let mut s = fs.db().begin().unwrap();
    let oid = fs.resolve(&mut s, &path, None).unwrap();
    assert_eq!(fs.path_of(&mut s, oid, None).unwrap(), path);
    s.commit().unwrap();
}

#[test]
fn many_versions_of_one_file() {
    let fs = fresh_fs();
    let mut c = fs.client();
    c.write_all("/churn", CreateMode::default(), b"v000")
        .unwrap();
    for v in 1..60 {
        c.p_begin().unwrap();
        let fd = c.p_open("/churn", OpenMode::ReadWrite, None).unwrap();
        c.p_write(fd, format!("v{v:03}").as_bytes()).unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
    }
    assert_eq!(c.read_to_vec("/churn", None).unwrap(), b"v059");
    let hist = c.p_history("/churn").unwrap();
    assert_eq!(hist.len(), 60);
    // Sample a middle revision.
    let mid = &hist[30];
    assert_eq!(
        c.read_to_vec("/churn", Some(mid.committed_at)).unwrap(),
        b"v030"
    );
}

#[test]
fn moderately_large_file_roundtrip() {
    // ~4 MB: hundreds of chunks, deep B-tree, buffer-pool churn.
    let fs = fresh_fs();
    let mut c = fs.client();
    let size = 4 << 20;
    let data: Vec<u8> = (0..size)
        .map(|i| ((i * 2654435761usize) >> 13) as u8)
        .collect();
    c.write_all("/big4", CreateMode::default(), &data).unwrap();
    fs.db().flush_caches().unwrap();
    assert_eq!(c.read_to_vec("/big4", None).unwrap(), data);

    // Random probes after a cache flush.
    fs.db().flush_caches().unwrap();
    let fd = c.p_open("/big4", OpenMode::Read, None).unwrap();
    let mut state = 99usize;
    for _ in 0..50 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let off = state % (size - 64);
        c.p_lseek(fd, off as i64, SeekWhence::Set).unwrap();
        let mut buf = [0u8; 64];
        c.p_read(fd, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[off..off + 64], "offset {off}");
    }
    c.p_close(fd).unwrap();
}

#[test]
#[ignore = "long-running endurance variant; run with --ignored"]
fn endurance_thousands_of_transactions() {
    let fs = fresh_fs();
    let mut c = fs.client();
    c.write_all("/log", CreateMode::default(), b"").unwrap();
    for i in 0..2000u32 {
        c.p_begin().unwrap();
        let fd = c.p_open("/log", OpenMode::ReadWrite, None).unwrap();
        c.p_lseek(fd, 0, SeekWhence::End).unwrap();
        c.p_write(fd, format!("entry {i}\n").as_bytes()).unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
    }
    let stat = c.p_stat("/log", None).unwrap();
    assert!(stat.size > 2000 * 8);
    let all = c.read_to_vec("/log", None).unwrap();
    assert!(String::from_utf8(all).unwrap().ends_with("entry 1999\n"));
}

#[test]
#[ignore = "long-running: a 64 MB file through the full stack"]
fn endurance_large_file() {
    let fs = fresh_fs();
    let mut c = fs.client();
    let size = 64 << 20;
    let chunk_pattern: Vec<u8> = (0..CHUNK_SIZE).map(|i| (i % 253) as u8).collect();
    c.p_begin().unwrap();
    let fd = c.p_creat("/huge", CreateMode::default()).unwrap();
    let mut written = 0usize;
    while written < size {
        let take = chunk_pattern.len().min(size - written);
        c.p_write(fd, &chunk_pattern[..take]).unwrap();
        written += take;
    }
    c.p_close(fd).unwrap();
    c.p_commit().unwrap();
    assert_eq!(c.p_stat("/huge", None).unwrap().size as usize, size);
}

/// Runs `op` until it succeeds, at most 50 times. The only error retried
/// is buffer-pool exhaustion: with 4 frames per shard the pool gives up
/// after a bounded spin while the background checkpointer keeps a shard's
/// frames pinned, a known transient the benchmark retries the same way.
fn retry<T>(mut op: impl FnMut() -> InvResult<T>) -> T {
    for _ in 0..49 {
        match op() {
            Err(InvError::Db(DbError::Invalid(m))) if m.contains("buffer pool exhausted") => {}
            r => return r.unwrap(),
        }
    }
    op().unwrap()
}

/// A block device that counts the blocks written through it.
struct CountingDisk {
    disk: MagneticDisk,
    writes: Arc<AtomicU64>,
}

impl BlockDevice for CountingDisk {
    fn name(&self) -> &str {
        self.disk.name()
    }
    fn block_size(&self) -> usize {
        self.disk.block_size()
    }
    fn nblocks(&self) -> u64 {
        self.disk.nblocks()
    }
    fn read_block(&mut self, blkno: u64, buf: &mut [u8]) -> simdev::DevResult<()> {
        self.disk.read_block(blkno, buf)
    }
    fn write_block(&mut self, blkno: u64, buf: &[u8]) -> simdev::DevResult<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.disk.write_block(blkno, buf)
    }
}

#[test]
fn namespace_scale_with_a_churned_name_stays_consistent() {
    // 12,000 files over 8 directories while one name in the root is
    // created and removed over and over: its naming-index entries pile up
    // between the directories' keys, as in the `namespace` benchmark.
    const FILES: usize = 12_000;
    const PER_TXN: usize = 10;
    let mut devices = Devices::new();
    let catalog_writes = Arc::new(AtomicU64::new(0));
    devices.catalog = shared_device(CountingDisk {
        disk: MagneticDisk::new(
            "catalog",
            devices.clock.clone(),
            DiskProfile::tiny_for_tests(1 << 12),
        ),
        writes: Arc::clone(&catalog_writes),
    });
    let fs = InversionFs::format(devices.format()).unwrap();
    let mut c = fs.client();
    for d in 0..8 {
        c.p_mkdir(&format!("/d{d}")).unwrap();
    }
    let path = |n: usize| format!("/d{}/f{n}", n % 8);
    // Catalog blocks written at each 100th file.
    let mut writes_at = Vec::new();
    for batch in 0..FILES / PER_TXN {
        if (batch * PER_TXN).is_multiple_of(100) {
            writes_at.push(catalog_writes.load(Ordering::Relaxed));
        }
        retry(|| {
            c.p_begin()?;
            let created = (batch * PER_TXN..(batch + 1) * PER_TXN).try_for_each(|n| {
                let fd = c.p_creat(&path(n), CreateMode::default())?;
                c.p_close(fd)
            });
            match created {
                Ok(()) => c.p_commit(),
                Err(e) => {
                    let _ = c.p_abort();
                    Err(e)
                }
            }
        });
        retry(|| c.p_mkdir("/spare"));
        retry(|| c.p_unlink("/spare"));
    }
    let findings = fs.db().check_all();
    assert!(findings.is_empty(), "{findings:?}");
    for n in 0..FILES {
        c.p_stat(&path(n), None).unwrap();
    }
    assert_eq!(c.p_readdir("/d3", None).unwrap().len(), FILES / 8);

    // A create journals what changed, not the namespace: the catalog
    // blocks written per file stay flat from file 100 to file 10,000.
    let per_file = |from: usize, to: usize| {
        (writes_at[to / 100] - writes_at[from / 100]) as f64 / (to - from) as f64
    };
    let early = per_file(100, 1_100);
    let late = per_file(9_000, 10_000);
    assert!(
        late < early * 1.5,
        "catalog blocks per create grew from {early:.2} to {late:.2}"
    );
}
