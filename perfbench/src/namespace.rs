//! `namespace`: metadata calls over thousands of small files.
//!
//! Every Inversion file is a relation of its own plus an index, so a
//! create is a naming insert, two catalog entries, B-tree inserts and a
//! log force. A single-process client works on about 1,000 small files in
//! a few directories, a working set well beyond the 300-frame pool, with
//! no network and no large transfers. Per operation it creates a file
//! (create, write, close, commit), opens one by path and reads it, stats
//! one, lists a directory, unlinks a file, or makes or removes a spare
//! directory.

use std::collections::BTreeSet;

use inversion::{CreateMode, InvClient, OpenMode};

use crate::record::{Call, Recorder, Txn};
use crate::rig::Rig;
use crate::rng::{payload, Rng};
use crate::workload::{check_bytes, retry, Workload};

const DIRS: u64 = 8;
const INITIAL_FILES: u64 = 1000;
/// Files created per set-up transaction.
const SETUP_FILES_PER_TXN: usize = 10;
const MAX_FILE_BYTES: u64 = 4096;
const SPARE_DIR: &str = "/spare";
/// Operations per block, and operations generated before timing.
const BLOCK_OPS: usize = 32;
const PLAN_OPS: usize = 1 << 16;

/// An operation kind and the random draw that picks its target when it
/// runs; targets are resolved against the live namespace, so a failed
/// create never leaves a later operation pointing at a missing file.
#[derive(Clone, Copy)]
enum Op {
    Create(u64),
    Read(u64),
    Stat(u64),
    Readdir(u64),
    Unlink(u64),
    /// Makes the spare directory, or removes it when it exists.
    SpareDir,
}

/// A committed file: where it is and what it holds.
#[derive(Clone, Copy)]
struct File {
    dir: u64,
    id: u64,
    len: usize,
}

impl File {
    fn path(&self) -> String {
        format!("/d{}/f{}", self.dir, self.id)
    }

    fn contents(&self, seed: u64) -> Vec<u8> {
        payload(seed ^ self.id.wrapping_mul(0x9E37_79B9_7F4A_7C15), self.len)
    }
}

pub struct Namespace {
    rig: Rig,
    client: InvClient,
    seed: u64,
    /// The committed namespace: every live file, in no particular order.
    live: Vec<File>,
    spare: bool,
    next_id: u64,
    plan: Vec<Op>,
    next: usize,
}

impl Namespace {
    fn new_file(&mut self, draw: u64) -> File {
        self.next_id += 1;
        File {
            dir: draw % DIRS,
            id: self.next_id,
            len: 1 + (draw >> 8) as usize % MAX_FILE_BYTES as usize,
        }
    }

    /// Creates `files` in one transaction; true when it committed.
    fn create(&mut self, rec: &mut Recorder, files: &[File]) -> bool {
        let Namespace {
            rig,
            client: c,
            seed,
            ..
        } = self;
        let done = rec.call(rig, Call::Begin, || c.p_begin()).and_then(|_| {
            files.iter().try_for_each(|f| {
                let fd = rec.call(rig, Call::Creat, || {
                    c.p_creat(&f.path(), CreateMode::default())
                })?;
                let data = f.contents(*seed);
                rec.call(rig, Call::Write, || c.p_write(fd, &data))?;
                rec.call(rig, Call::Close, || c.p_close(fd))
            })?;
            rec.call(rig, Call::Commit, || c.p_commit())
        });
        if done.is_none() {
            // After a failed commit the transaction is already gone and
            // this abort reports so; either way none is open afterwards.
            let _ = c.p_abort();
        }
        done.is_some()
    }

    fn run(&mut self, rec: &mut Recorder, op: Op) -> Result<(), String> {
        let pick = |live: &[File], draw: u64| (draw % live.len() as u64) as usize;
        match op {
            Op::Create(draw) => {
                let f = self.new_file(draw);
                let created = rec.op(|rec| {
                    let start = self.rig.tb.clock.now().as_nanos();
                    self.create(rec, &[f]).then_some(start)
                });
                if let Some(start) = created {
                    rec.txn(&self.rig, Txn::Create, start);
                    self.live.push(f);
                }
            }
            Op::Read(draw) if !self.live.is_empty() => {
                let f = self.live[pick(&self.live, draw)];
                let Namespace {
                    rig,
                    client: c,
                    seed,
                    ..
                } = self;
                let mut buf = vec![0u8; f.len + 1];
                let read = rec.op(|rec| {
                    let fd = rec.call(rig, Call::Open, || {
                        c.p_open(&f.path(), OpenMode::Read, None)
                    })?;
                    let n = rec.call(rig, Call::Read, || c.p_read(fd, &mut buf));
                    let closed = rec.call(rig, Call::Close, || c.p_close(fd));
                    n.zip(closed).map(|(n, ())| n)
                });
                if let Some(n) = read {
                    check_bytes(&f.contents(*seed), 0, &buf[..n], buf.len())
                        .map_err(|e| format!("{}: {e}", f.path()))?;
                }
            }
            Op::Stat(draw) if !self.live.is_empty() => {
                let f = self.live[pick(&self.live, draw)];
                let Namespace { rig, client: c, .. } = self;
                let stat = rec.op(|rec| rec.call(rig, Call::Stat, || c.p_stat(&f.path(), None)));
                if let Some(st) = stat {
                    if st.size != f.len as u64 {
                        return Err(format!(
                            "stat {} gave size {}, not {}",
                            f.path(),
                            st.size,
                            f.len
                        ));
                    }
                }
            }
            Op::Readdir(draw) => {
                let dir = draw % DIRS;
                let Namespace {
                    rig,
                    client: c,
                    live,
                    ..
                } = self;
                let listed = rec.op(|rec| {
                    rec.call(rig, Call::Readdir, || {
                        c.p_readdir(&format!("/d{dir}"), None)
                    })
                });
                if let Some(entries) = listed {
                    let got: BTreeSet<String> = entries.into_iter().map(|(name, _)| name).collect();
                    let want: BTreeSet<String> = live
                        .iter()
                        .filter(|f| f.dir == dir)
                        .map(|f| format!("f{}", f.id))
                        .collect();
                    if got != want {
                        return Err(format!(
                            "readdir /d{dir} listed {} names, {} committed",
                            got.len(),
                            want.len()
                        ));
                    }
                }
            }
            Op::Unlink(draw) if !self.live.is_empty() => {
                let i = pick(&self.live, draw);
                let path = self.live[i].path();
                let Namespace {
                    rig,
                    client: c,
                    live,
                    ..
                } = self;
                let unlinked = rec.op(|rec| rec.call(rig, Call::Unlink, || c.p_unlink(&path)));
                if unlinked.is_some() {
                    live.swap_remove(i);
                }
            }
            Op::SpareDir => {
                let Namespace {
                    rig,
                    client: c,
                    spare,
                    ..
                } = self;
                let done = rec.op(|rec| {
                    if *spare {
                        rec.call(rig, Call::Unlink, || c.p_unlink(SPARE_DIR))
                    } else {
                        rec.call(rig, Call::Mkdir, || c.p_mkdir(SPARE_DIR))
                            .map(|_| ())
                    }
                });
                if done.is_some() {
                    *spare = !*spare;
                }
            }
            // Read, stat or unlink with no file left: nothing to do.
            _ => {}
        }
        Ok(())
    }
}

impl Workload for Namespace {
    const SETUP_REPS: usize = 5;

    fn setup(seed: u64, rec: &mut Recorder) -> Result<Namespace, String> {
        let mut rng = Rng::new(seed);
        // Creates and unlinks are equally likely, so the file count stays
        // near its initial value.
        let plan = (0..PLAN_OPS)
            .map(|_| {
                let draw = rng.next_u64();
                match rng.below(100) {
                    0..=23 => Op::Create(draw),
                    24..=43 => Op::Read(draw),
                    44..=67 => Op::Stat(draw),
                    68..=71 => Op::Readdir(draw),
                    72..=95 => Op::Unlink(draw),
                    _ => Op::SpareDir,
                }
            })
            .collect();
        let rig = Rig::paper().map_err(|e| format!("testbed: {e}"))?;
        let client = rig.tb.local_client();
        let mut ns = Namespace {
            rig,
            client,
            seed: rng.next_u64(),
            live: Vec::new(),
            spare: false,
            next_id: 0,
            plan,
            next: 0,
        };
        for dir in 0..DIRS {
            let Namespace { rig, client: c, .. } = &mut ns;
            retry(rec, "mkdir", |rec| {
                rec.call(rig, Call::Mkdir, || c.p_mkdir(&format!("/d{dir}")))
            })?;
        }
        let mut created = 0;
        while created < INITIAL_FILES {
            let n = SETUP_FILES_PER_TXN.min((INITIAL_FILES - created) as usize);
            let files: Vec<File> = (0..n).map(|_| ns.new_file(rng.next_u64())).collect();
            retry(rec, "populate", |rec| ns.create(rec, &files).then_some(()))?;
            ns.live.extend(files);
            created += n as u64;
        }
        Ok(ns)
    }

    fn rig(&self) -> &Rig {
        &self.rig
    }

    fn block(&mut self, rec: &mut Recorder) -> Result<(), String> {
        for _ in 0..BLOCK_OPS {
            let op = self.plan[self.next % self.plan.len()];
            self.next += 1;
            rec.set_parent(self.next as u64);
            self.run(rec, op)?;
        }
        Ok(())
    }
}
