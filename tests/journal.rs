//! Crashes inside the metadata journal: the catalog must come back as a
//! committed prefix of its history, with a clean `check_all()`.

mod common;

use common::Devices;
use minidb::{shared_device, Datum, Db, Schema, SharedDevice, TypeId};
use simdev::{DiskProfile, FaultPlan, MagneticDisk, BLOCK_SIZE};

/// Devices with a small catalog disk whose fault plan the test holds.
fn devices() -> (Devices, FaultPlan) {
    let mut devices = Devices::new();
    let disk = MagneticDisk::new(
        "catalog",
        devices.clock.clone(),
        DiskProfile::tiny_for_tests(256),
    );
    let faults = disk.fault_plan();
    devices.catalog = shared_device(disk);
    (devices, faults)
}

fn schema() -> Schema {
    Schema::new([("k", TypeId::INT4)])
}

/// Creates tables `t{from}..t{to}` and one committed row in each.
fn create_tables(db: &Db, from: usize, to: usize) {
    for i in from..to {
        let rel = db.create_table(&format!("t{i}"), schema()).unwrap();
        let mut s = db.begin().unwrap();
        s.insert(rel, vec![Datum::Int4(i as i32)]).unwrap();
        s.commit().unwrap();
    }
}

fn crash(db: Db) {
    db.simulate_crash();
    drop(db);
}

fn snapshot(dev: &SharedDevice) -> Vec<Vec<u8>> {
    let mut d = dev.lock();
    (0..d.nblocks())
        .map(|b| {
            let mut blk = vec![0u8; BLOCK_SIZE];
            d.read_block(b, &mut blk).unwrap();
            blk
        })
        .collect()
}

fn assert_tables(db: &Db, present: std::ops::Range<usize>, absent: &[&str]) {
    for i in present {
        let rel = db.relation_id(&format!("t{i}")).unwrap();
        let mut s = db.begin().unwrap();
        assert_eq!(s.seq_scan(rel).unwrap().len(), 1, "t{i}");
        s.commit().unwrap();
    }
    for name in absent {
        assert!(db.relation_id(name).is_err(), "{name} survived");
    }
    let findings = db.check_all();
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn torn_last_catalog_record_recovers_to_the_committed_prefix() {
    let (devices, _) = devices();
    let db = devices.format();
    create_tables(&db, 0, 10);
    let before = snapshot(&devices.catalog);
    db.create_table("t_last", schema()).unwrap();
    let after = snapshot(&devices.catalog);
    crash(db);

    // Tear the record `t_last` appended: its last byte (the checksum's)
    // never reached the platter. The records before it share the block.
    let (blkno, blk) = after
        .iter()
        .enumerate()
        .rev()
        .find(|(b, blk)| **blk != before[*b])
        .unwrap();
    let last = (0..BLOCK_SIZE)
        .rev()
        .find(|&i| blk[i] != before[blkno][i])
        .unwrap();
    let mut torn = blk.clone();
    torn[last] ^= 0xFF;
    devices
        .catalog
        .lock()
        .write_block(blkno as u64, &torn)
        .unwrap();

    let db = devices.recover();
    assert_tables(&db, 0..10, &["t_last"]);
    // The journal keeps appending over the torn record.
    create_tables(&db, 10, 12);
    crash(db);
    let db = devices.recover();
    assert_tables(&db, 0..12, &["t_last"]);
}

#[test]
fn crash_between_image_write_and_control_flip_keeps_the_old_image() {
    let (devices, faults) = devices();
    let db = devices.format();
    create_tables(&db, 0, 5);
    // A type change makes the next persist a compaction: the image (one
    // block here) lands in the inactive slot, then the control block write
    // fails as a crash would stop it.
    assert!(db.catalog().encode().len() < BLOCK_SIZE);
    faults.fail_after_writes(1);
    assert!(db.define_type("later").is_err());
    crash(db);
    faults.clear_write_fault();

    let db = devices.recover();
    assert_tables(&db, 0..5, &[]);
    assert!(db.catalog().type_by_name("later").is_err());
    create_tables(&db, 5, 7);
    crash(db);
    let db = devices.recover();
    assert_tables(&db, 0..7, &[]);
}

#[test]
fn failed_compaction_is_retried_by_the_next_persist() {
    let (devices, faults) = devices();
    let db = devices.format();
    create_tables(&db, 0, 3);
    faults.fail_after_writes(1);
    assert!(db.define_type("later").is_err());
    faults.clear_write_fault();
    // The change stays pending, so the next persist writes a full image.
    create_tables(&db, 3, 4);
    crash(db);
    let db = devices.recover();
    assert_tables(&db, 0..4, &[]);
    assert!(db.catalog().type_by_name("later").is_ok());
}
