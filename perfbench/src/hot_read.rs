//! `hot_read`: cache hits only, in the single-process configuration.
//!
//! A client inside the data manager reads a few small files (under 1 MB
//! in all, well inside the 2.4 MB pool) that were warmed before timing
//! and are never flushed. The load is random page reads, 1-byte reads,
//! re-opens and stats by path; nothing is written. Virtual time is near
//! zero by design, so host time is the measure here, and a change to the
//! devices or the network must leave this workload unmoved.

use inversion::{CreateMode, Fd, InvClient, OpenMode, CHUNK_SIZE};

use crate::record::{Call, Recorder};
use crate::rig::Rig;
use crate::rng::{payload, Rng};
use crate::workload::{read_at, retry, Workload};

const FILES: usize = 8;
/// 8 files of 15 chunks: 975,360 bytes.
const FILE_PAGES: u64 = 15;
const FILE_BYTES: u64 = FILE_PAGES * CHUNK_SIZE as u64;
/// Operations per block, and blocks generated before timing.
const BLOCK_OPS: usize = 256;
const PLAN_BLOCKS: usize = 256;

#[derive(Clone, Copy)]
enum Op {
    /// Read one page-aligned page.
    Page { file: usize, page: u64 },
    /// Read one byte.
    Byte { file: usize, off: u64 },
    /// Open by path and close again, without reading.
    Reopen { file: usize },
    /// Stat by path.
    Stat { file: usize },
}

pub struct HotRead {
    rig: Rig,
    client: InvClient,
    /// One descriptor per file, open for the whole run.
    fds: Vec<Fd>,
    contents: Vec<Vec<u8>>,
    plan: Vec<Op>,
    next: usize,
}

fn path(file: usize) -> String {
    format!("/hot/f{file}")
}

impl Workload for HotRead {
    const SETUP_REPS: usize = 15;

    fn setup(seed: u64, rec: &mut Recorder) -> Result<HotRead, String> {
        let mut rng = Rng::new(seed);
        let contents: Vec<Vec<u8>> = (0..FILES)
            .map(|_| payload(rng.next_u64(), FILE_BYTES as usize))
            .collect();
        let plan = (0..BLOCK_OPS * PLAN_BLOCKS)
            .map(|_| {
                let file = rng.below(FILES as u64) as usize;
                match rng.below(100) {
                    0..=39 => Op::Page {
                        file,
                        page: rng.below(FILE_PAGES),
                    },
                    40..=69 => Op::Byte {
                        file,
                        off: rng.below(FILE_BYTES),
                    },
                    70..=84 => Op::Reopen { file },
                    _ => Op::Stat { file },
                }
            })
            .collect();

        let rig = Rig::paper().map_err(|e| format!("testbed: {e}"))?;
        let mut c = rig.tb.local_client();
        retry(rec, "mkdir /hot", |rec| {
            rec.call(&rig, Call::Mkdir, || c.p_mkdir("/hot"))
        })?;
        for (i, data) in contents.iter().enumerate() {
            retry(rec, "create a hot file", |rec| {
                rec.call(&rig, Call::Begin, || c.p_begin())?;
                let done = rec
                    .call(&rig, Call::Creat, || {
                        c.p_creat(&path(i), CreateMode::default())
                    })
                    .and_then(|fd| {
                        rec.call(&rig, Call::Write, || c.p_write(fd, data))?;
                        rec.call(&rig, Call::Close, || c.p_close(fd))
                    })
                    .and_then(|_| rec.call(&rig, Call::Commit, || c.p_commit()));
                if done.is_none() {
                    // A failed commit has already aborted; then this
                    // reports that no transaction is open.
                    let _ = c.p_abort();
                }
                done
            })?;
        }
        // Warm: open every file for the run and read it end to end.
        let mut fds = Vec::with_capacity(FILES);
        let mut buf = vec![0u8; FILE_BYTES as usize];
        for (i, data) in contents.iter().enumerate() {
            let fd = retry(rec, "open a hot file", |rec| {
                rec.call(&rig, Call::Open, || {
                    c.p_open(&path(i), OpenMode::Read, None)
                })
            })?;
            read_at(rec, &rig, &mut c, fd, 0, &mut buf, data)?;
            fds.push(fd);
        }
        Ok(HotRead {
            rig,
            client: c,
            fds,
            contents,
            plan,
            next: 0,
        })
    }

    fn rig(&self) -> &Rig {
        &self.rig
    }

    fn block(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let HotRead {
            rig,
            client: c,
            fds,
            contents,
            plan,
            next,
        } = self;
        let mut page = vec![0u8; CHUNK_SIZE];
        let mut byte = [0u8; 1];
        for _ in 0..BLOCK_OPS {
            let op = plan[*next % plan.len()];
            *next += 1;
            rec.set_parent(*next as u64);
            match op {
                Op::Page { file, page: p } => {
                    let off = p * CHUNK_SIZE as u64;
                    read_at(rec, rig, c, fds[file], off, &mut page, &contents[file])?;
                }
                Op::Byte { file, off } => {
                    read_at(rec, rig, c, fds[file], off, &mut byte, &contents[file])?;
                }
                Op::Reopen { file } => {
                    rec.op(|rec| {
                        let fd = rec.call(rig, Call::Open, || {
                            c.p_open(&path(file), OpenMode::Read, None)
                        })?;
                        rec.call(rig, Call::Close, || c.p_close(fd))
                    });
                }
                Op::Stat { file } => {
                    let stat =
                        rec.op(|rec| rec.call(rig, Call::Stat, || c.p_stat(&path(file), None)));
                    if let Some(st) = stat {
                        if st.size != FILE_BYTES {
                            return Err(format!(
                                "stat {} gave size {}, not {FILE_BYTES}",
                                path(file),
                                st.size
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}
