//! Full-stack integration: the Inversion file system over the storage
//! engine over simulated devices, including whole-system crash recovery.

mod common;

use common::Devices;
use inversion::{CreateMode, InvError, InversionFs, OpenMode, SeekWhence, CHUNK_SIZE};

#[test]
fn filesystem_survives_clean_shutdown_and_reattach() {
    let devices = Devices::new();
    let payload: Vec<u8> = (0..3 * CHUNK_SIZE + 99).map(|i| (i % 239) as u8).collect();
    {
        let db = devices.format();
        let fs = InversionFs::format(db).unwrap();
        let mut c = fs.client();
        c.p_mkdir("/data").unwrap();
        c.write_all("/data/blob", CreateMode::default(), &payload)
            .unwrap();
        // Clean shutdown: everything committed; Db dropped.
    }
    let db = devices.recover();
    let fs = InversionFs::attach(db).unwrap();
    let mut c = fs.client();
    assert_eq!(c.read_to_vec("/data/blob", None).unwrap(), payload);
    let stat = c.p_stat("/data/blob", None).unwrap();
    assert_eq!(stat.size as usize, payload.len());
    // The recovered system is fully writable.
    c.write_all("/data/post_recovery", CreateMode::default(), b"alive")
        .unwrap();
    assert_eq!(
        c.read_to_vec("/data/post_recovery", None).unwrap(),
        b"alive"
    );
}

#[test]
fn crash_mid_transaction_loses_only_uncommitted_work() {
    let devices = Devices::new();
    {
        let db = devices.format();
        let fs = InversionFs::format(db).unwrap();
        let mut c = fs.client();
        c.write_all("/committed", CreateMode::default(), b"safe")
            .unwrap();

        // A transaction that writes a lot (forcing dirty-page writeback to
        // the device) and then CRASHES before commit.
        c.p_begin().unwrap();
        let fd = c.p_creat("/uncommitted", CreateMode::default()).unwrap();
        c.p_write(fd, &vec![0xEEu8; 5 * CHUNK_SIZE]).unwrap();
        let fd2 = c.p_open("/committed", OpenMode::ReadWrite, None).unwrap();
        c.p_write(fd2, b"OVERWRITTEN-BUT-NOT-COMMITTED").unwrap();
        // Simulate the crash: leak the client so not even an abort record
        // is written, then drop every in-memory structure.
        std::mem::forget(c);
    }
    // Recovery is instantaneous: reopen and look.
    let db = devices.recover();
    let fs = InversionFs::attach(db).unwrap();
    let mut c = fs.client();
    assert_eq!(
        c.read_to_vec("/committed", None).unwrap(),
        b"safe",
        "committed data must survive the crash untouched"
    );
    assert!(
        matches!(c.p_stat("/uncommitted", None), Err(InvError::NoSuchPath(_))),
        "uncommitted create must have vanished"
    );
}

#[test]
fn crash_preserves_multi_file_atomicity() {
    let devices = Devices::new();
    {
        let db = devices.format();
        let fs = InversionFs::format(db).unwrap();
        let mut c = fs.client();
        c.write_all("/a", CreateMode::default(), b"a1").unwrap();
        c.write_all("/b", CreateMode::default(), b"b1").unwrap();
        c.p_begin().unwrap();
        let fa = c.p_open("/a", OpenMode::ReadWrite, None).unwrap();
        let fb = c.p_open("/b", OpenMode::ReadWrite, None).unwrap();
        c.p_write(fa, b"a2").unwrap();
        c.p_close(fa).unwrap(); // a's new version flushed into the txn...
        c.p_write(fb, b"b2").unwrap();
        std::mem::forget(c); // ...crash before commit.
    }
    let db = devices.recover();
    let fs = InversionFs::attach(db).unwrap();
    let mut c = fs.client();
    assert_eq!(c.read_to_vec("/a", None).unwrap(), b"a1");
    assert_eq!(c.read_to_vec("/b", None).unwrap(), b"b1");
}

#[test]
fn time_travel_works_across_recovery() {
    let devices = Devices::new();
    let t_v1;
    {
        let db = devices.format();
        let fs = InversionFs::format(db).unwrap();
        let mut c = fs.client();
        c.write_all("/doc", CreateMode::default(), b"version 1")
            .unwrap();
        t_v1 = fs.db().now();
        c.p_begin().unwrap();
        let fd = c.p_open("/doc", OpenMode::ReadWrite, None).unwrap();
        c.p_write(fd, b"version 2").unwrap();
        c.p_close(fd).unwrap();
        c.p_commit().unwrap();
    }
    let db = devices.recover();
    let fs = InversionFs::attach(db).unwrap();
    let mut c = fs.client();
    assert_eq!(c.read_to_vec("/doc", None).unwrap(), b"version 2");
    // Commit times live in the status file; history survives restarts.
    assert_eq!(c.read_to_vec("/doc", Some(t_v1)).unwrap(), b"version 1");
}

#[test]
fn large_file_random_access_through_the_whole_stack() {
    let devices = Devices::new();
    let db = devices.format();
    let fs = InversionFs::format(db).unwrap();
    let mut c = fs.client();

    let size = 20 * CHUNK_SIZE + 1000;
    let data: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
    c.write_all("/big", CreateMode::default(), &data).unwrap();

    let fd = c.p_open("/big", OpenMode::Read, None).unwrap();
    // Probe assorted offsets, including chunk boundaries.
    for &off in &[
        0usize,
        1,
        CHUNK_SIZE - 1,
        CHUNK_SIZE,
        CHUNK_SIZE + 1,
        7 * CHUNK_SIZE - 3,
        size - 10,
    ] {
        c.p_lseek(fd, off as i64, SeekWhence::Set).unwrap();
        let mut buf = [0u8; 10];
        let n = c.p_read(fd, &mut buf).unwrap();
        assert_eq!(&buf[..n], &data[off..(off + 10).min(size)], "offset {off}");
    }
    c.p_close(fd).unwrap();
}

#[test]
fn queries_and_file_api_see_the_same_transactions() {
    let devices = Devices::new();
    let db = devices.format();
    let fs = InversionFs::format(db).unwrap();
    let mut c = fs.client();

    c.p_begin().unwrap();
    let fd = c
        .p_creat("/pending", CreateMode::default().owned_by("mao"))
        .unwrap();
    c.p_write(fd, b"12345678").unwrap();
    c.p_close(fd).unwrap();
    // Not committed yet. A current-snapshot reader would *block* on the
    // writer's two-phase lock, so read through a historical snapshot at
    // "now": lock-free, and it sees only committed state.
    let mut h = fs.db().snapshot_at(fs.db().now());
    let r = h
        .query(r#"retrieve (n.filename) from n in naming where n.filename = "pending""#)
        .unwrap();
    assert!(r.rows.is_empty(), "uncommitted file visible to a query");

    c.p_commit().unwrap();
    let mut s = fs.db().begin().unwrap();
    let r = s
        .query(
            r#"retrieve (a.size) from n in naming, a in fileatt
               where n.file = a.file and n.filename = "pending""#,
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], minidb::Datum::Int8(8));
    s.commit().unwrap();
}

#[test]
fn renaming_a_directory_moves_its_subtree() {
    // The naming table stores parent *oids*, so renaming a directory is a
    // single-row update and the whole subtree follows — no per-file work.
    let devices = Devices::new();
    let fs = InversionFs::format(devices.format()).unwrap();
    let mut c = fs.client();
    c.p_mkdir("/proj").unwrap();
    c.p_mkdir("/proj/src").unwrap();
    c.write_all("/proj/src/main.c", CreateMode::default(), b"int main;")
        .unwrap();
    c.write_all("/proj/README", CreateMode::default(), b"docs")
        .unwrap();

    c.p_rename("/proj", "/project-1.0").unwrap();
    assert!(c.p_stat("/proj", None).is_err());
    assert_eq!(
        c.read_to_vec("/project-1.0/src/main.c", None).unwrap(),
        b"int main;"
    );
    assert_eq!(c.read_to_vec("/project-1.0/README", None).unwrap(), b"docs");
    // path_of reflects the move.
    let mut s = fs.db().begin().unwrap();
    let oid = fs.resolve(&mut s, "/project-1.0/src/main.c", None).unwrap();
    assert_eq!(
        fs.path_of(&mut s, oid, None).unwrap(),
        "/project-1.0/src/main.c"
    );
    s.commit().unwrap();
}

#[test]
fn unicode_filenames_roundtrip() {
    let devices = Devices::new();
    let fs = InversionFs::format(devices.format()).unwrap();
    let mut c = fs.client();
    let names = [
        "mesure-α.dat",
        "研究ノート.txt",
        "schneefläche_übersicht",
        "emoji-📦",
    ];
    c.p_mkdir("/intl").unwrap();
    for (i, n) in names.iter().enumerate() {
        c.write_all(
            &format!("/intl/{n}"),
            CreateMode::default(),
            format!("data {i}").as_bytes(),
        )
        .unwrap();
    }
    let listed: Vec<String> = c
        .p_readdir("/intl", None)
        .unwrap()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(listed.len(), names.len());
    for (i, n) in names.iter().enumerate() {
        assert_eq!(
            c.read_to_vec(&format!("/intl/{n}"), None).unwrap(),
            format!("data {i}").as_bytes()
        );
    }
    // Queries see the same names.
    let mut s = fs.db().begin().unwrap();
    let r = s
        .query(r#"retrieve (n.filename) from n in naming where n.filename = "研究ノート.txt""#)
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    s.commit().unwrap();
}

#[test]
fn rename_into_own_subtree_rejected() {
    // Moving a directory under itself would create a cycle in parent
    // pointers; the rename must fail and leave the tree untouched.
    let devices = Devices::new();
    let fs = InversionFs::format(devices.format()).unwrap();
    let mut c = fs.client();
    c.p_mkdir("/a").unwrap();
    c.p_mkdir("/a/b").unwrap();
    c.write_all("/a/b/f", CreateMode::default(), b"x").unwrap();
    assert!(matches!(
        c.p_rename("/a", "/a/b/a"),
        Err(InvError::Invalid(_))
    ));
    // Deeper variants too.
    c.p_mkdir("/a/b/c").unwrap();
    assert!(c.p_rename("/a", "/a/b/c/a").is_err());
    // Everything is where it was.
    assert_eq!(c.read_to_vec("/a/b/f", None).unwrap(), b"x");
    // A sibling rename of the same directory still works.
    c.p_rename("/a", "/renamed").unwrap();
    assert_eq!(c.read_to_vec("/renamed/b/f", None).unwrap(), b"x");
}

#[test]
fn dropped_testbed_frees_its_database() {
    // The Table 2 functions live in the database's own registry; they must
    // not own the file system (and so the database) they are registered in.
    let tb = bench::testbed::InversionTestbed::paper();
    let mut c = tb.local_client();
    c.write_all("/f", CreateMode::default(), b"bytes").unwrap();
    drop(c);
    let weak = tb.fs.db().downgrade();
    drop(tb);
    // A checkpoint cycle in flight briefly owns the database; it lets go
    // when the cycle ends.
    let gone = (0..1_000_000).any(|_| {
        let gone = weak.upgrade().is_none();
        if !gone {
            std::thread::yield_now();
        }
        gone
    });
    assert!(gone, "the database outlived every handle to it");
}
