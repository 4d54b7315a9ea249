//! The testbed the workloads run on, with counters on every spindle.
//!
//! This is the paper's Inversion testbed (`bench::InversionTestbed`: an RZ58
//! data disk, separate log and catalog spindles, the Sony jukebox, 8 KB
//! frames) built here rather than by `InversionTestbed::with_config`, so
//! that the data, log and catalog devices can be wrapped in [`Timed`]
//! before `Db::open` takes them. Clients still come from the testbed's own
//! constructors, `remote_client` and `local_client`.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use bench::testbed::{DEV_DISK, DEV_JUKEBOX};
use bench::InversionTestbed;
use inversion::{types, InvResult, InversionFs};
use minidb::{shared_device, Db, DbConfig, GenericManager, JukeboxConfig, JukeboxManager, Smgr};
use simdev::{
    BlockDevice, DevResult, DiskProfile, JukeboxProfile, MagneticDisk, OpticalJukebox, SimClock,
};

/// What one spindle did: calls, bytes and virtual busy time.
#[derive(Debug, Default)]
pub struct DevCounters {
    busy_ns: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    syncs: AtomicU64,
    bytes_written: AtomicU64,
}

/// A block device that counts the calls made on it and the virtual time
/// each call advanced the clock by.
struct Timed<D> {
    dev: D,
    clock: SimClock,
    counters: Arc<DevCounters>,
}

/// Runs one device call, adding the virtual time it took to the busy
/// total and one to `count`.
fn charge<T>(clock: &SimClock, busy_ns: &AtomicU64, count: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let t0 = clock.now();
    let out = f();
    busy_ns.fetch_add(clock.now().since(t0).as_nanos(), Relaxed);
    count.fetch_add(1, Relaxed);
    out
}

impl<D: BlockDevice> BlockDevice for Timed<D> {
    fn name(&self) -> &str {
        self.dev.name()
    }

    fn block_size(&self) -> usize {
        self.dev.block_size()
    }

    fn nblocks(&self) -> u64 {
        self.dev.nblocks()
    }

    fn read_block(&mut self, blkno: u64, buf: &mut [u8]) -> DevResult<()> {
        let Timed {
            dev,
            clock,
            counters,
        } = self;
        charge(clock, &counters.busy_ns, &counters.reads, || {
            dev.read_block(blkno, buf)
        })
    }

    fn write_block(&mut self, blkno: u64, buf: &[u8]) -> DevResult<()> {
        let Timed {
            dev,
            clock,
            counters,
        } = self;
        counters.bytes_written.fetch_add(buf.len() as u64, Relaxed);
        charge(clock, &counters.busy_ns, &counters.writes, || {
            dev.write_block(blkno, buf)
        })
    }

    fn sync(&mut self) -> DevResult<()> {
        let Timed {
            dev,
            clock,
            counters,
        } = self;
        charge(clock, &counters.busy_ns, &counters.syncs, || dev.sync())
    }

    fn is_write_once(&self) -> bool {
        self.dev.is_write_once()
    }

    fn is_stable(&self) -> bool {
        self.dev.is_stable()
    }
}

/// The spindles a [`Rig`] counts, in report order.
pub const SPINDLES: [&str; 3] = ["data", "log", "catalog"];

/// The testbed plus the counters on its spindles.
pub struct Rig {
    pub tb: InversionTestbed,
    devs: [Arc<DevCounters>; 3],
}

impl Rig {
    /// The paper's configuration: 300 buffers (the Berkeley pool) with
    /// POSTGRES 4.0.1 index write-through, as `InversionTestbed::paper`.
    pub fn paper() -> InvResult<Rig> {
        let clock = SimClock::new();
        let devs: [Arc<DevCounters>; 3] = Default::default();
        let disk = |name: &str, counters: &Arc<DevCounters>| {
            shared_device(Timed {
                dev: MagneticDisk::new(name, clock.clone(), DiskProfile::rz58()),
                clock: clock.clone(),
                counters: Arc::clone(counters),
            })
        };
        let data = disk("rz58", &devs[0]);
        let log = disk("rz58-log", &devs[1]);
        let cat = disk("rz58-cat", &devs[2]);
        let jukebox = shared_device(OpticalJukebox::new(
            "sony",
            clock.clone(),
            JukeboxProfile::sony_worm(),
        ));
        let staging = shared_device(MagneticDisk::new(
            "sony-staging",
            clock.clone(),
            DiskProfile::rz58(),
        ));
        let mut smgr = Smgr::new();
        smgr.register(DEV_DISK, Box::new(GenericManager::format(data)?))?;
        smgr.register(
            DEV_JUKEBOX,
            Box::new(JukeboxManager::format(
                jukebox,
                staging,
                JukeboxConfig::default(),
            )?),
        )?;
        let db = Db::open(
            clock.clone(),
            smgr,
            log,
            cat,
            DbConfig {
                buffers: minidb::BERKELEY_BUFFERS,
                eager_index_writes: true,
                ..DbConfig::default()
            },
        )?;
        let fs = InversionFs::format(db)?;
        types::register_standard(&fs)?;
        Ok(Rig {
            tb: InversionTestbed { clock, fs },
            devs,
        })
    }

    /// Reads every counter the per-layer report uses. Cheap: relaxed
    /// atomic loads plus one pass over the buffer-pool shards.
    pub fn sample(&self) -> Sample {
        let db = self.tb.fs.db();
        let reg = db.stats_registry();
        let buf = db.buffer_stats();
        let inv = self.tb.fs.stats();
        let io = reg.io_queue(DEV_DISK);
        let dev = |i: usize| &self.devs[i];
        let get = |a: &AtomicU64| a.load(Relaxed);
        Sample {
            virt_ns: self.tb.clock.now().as_nanos(),
            buf_hits: buf.hits,
            buf_misses: buf.misses,
            buf_evictions: buf.evictions,
            buf_writebacks: buf.writebacks,
            buf_prefetches: buf.prefetches,
            buf_prefetch_hits: buf.prefetch_hits,
            heap_fetches: reg.heap.fetches.get(),
            heap_appends: reg.heap.appends.get(),
            btree_searches: reg.btree.searches.get(),
            btree_inserts: reg.btree.inserts.get(),
            btree_splits: reg.btree.splits.get(),
            btree_page_writes: reg.btree.page_writes.get(),
            wal_forces: reg.wal.log_forces.get(),
            wal_bytes: reg.wal.bytes_appended.get(),
            wal_checkpoints: reg.wal.checkpoints.get(),
            wal_ckpt_pages: reg.wal.ckpt_pages_drained.get(),
            xact_commits: reg.xact.commits.get(),
            xact_pages_flushed_at_commit: reg.xact.pages_flushed_at_commit.get(),
            lock_acquisitions: reg.lock.acquisitions.get(),
            lock_waits: reg.lock.waits.get(),
            io_submitted: io.submitted.get(),
            io_batched: io.batched_neighbors.get(),
            io_elevator_passes: io.elevator_passes.get(),
            io_barrier_waits: io.barrier_waits.get(),
            chunk_reads: inv.chunk_reads.get(),
            chunk_writes: inv.chunk_writes.get(),
            chunks_coalesced: inv.chunks_coalesced.get(),
            inv_reads: inv.reads.get(),
            inv_writes: inv.writes.get(),
            rpcs: inv.rpcs.get(),
            rpc_bytes: inv.rpc_bytes_in.get() + inv.rpc_bytes_out.get(),
            user_bytes_read: inv.bytes_read.get(),
            user_bytes_written: inv.bytes_written.get(),
            data_busy_ns: get(&dev(0).busy_ns),
            data_reads: get(&dev(0).reads),
            data_writes: get(&dev(0).writes),
            data_syncs: get(&dev(0).syncs),
            data_bytes_written: get(&dev(0).bytes_written),
            log_busy_ns: get(&dev(1).busy_ns),
            log_reads: get(&dev(1).reads),
            log_writes: get(&dev(1).writes),
            log_syncs: get(&dev(1).syncs),
            log_bytes_written: get(&dev(1).bytes_written),
            cat_busy_ns: get(&dev(2).busy_ns),
            cat_reads: get(&dev(2).reads),
            cat_writes: get(&dev(2).writes),
            cat_syncs: get(&dev(2).syncs),
            cat_bytes_written: get(&dev(2).bytes_written),
        }
    }

    /// The deepest the data disk's I/O queue has been (a high-water mark,
    /// so it has no delta).
    pub fn queue_depth_hw(&self) -> u64 {
        self.tb
            .fs
            .db()
            .stats_registry()
            .io_queue(DEV_DISK)
            .queue_depth_hw
            .get()
    }
}

macro_rules! sample {
    ($($field:ident),* $(,)?) => {
        /// One reading of every counter, taken at a span boundary.
        #[derive(Debug, Default, Clone, Copy)]
        pub struct Sample {
            $(pub $field: u64,)*
        }

        impl Sample {
            /// The counts between `earlier` and `self`.
            pub fn since(&self, earlier: &Sample) -> Sample {
                Sample { $($field: self.$field.saturating_sub(earlier.$field),)* }
            }

            /// Adds a delta to a running total.
            pub fn add(&mut self, d: &Sample) {
                $(self.$field += d.$field;)*
            }
        }
    };
}

sample!(
    virt_ns,
    buf_hits,
    buf_misses,
    buf_evictions,
    buf_writebacks,
    buf_prefetches,
    buf_prefetch_hits,
    heap_fetches,
    heap_appends,
    btree_searches,
    btree_inserts,
    btree_splits,
    btree_page_writes,
    wal_forces,
    wal_bytes,
    wal_checkpoints,
    wal_ckpt_pages,
    xact_commits,
    xact_pages_flushed_at_commit,
    lock_acquisitions,
    lock_waits,
    io_submitted,
    io_batched,
    io_elevator_passes,
    io_barrier_waits,
    chunk_reads,
    chunk_writes,
    chunks_coalesced,
    inv_reads,
    inv_writes,
    rpcs,
    rpc_bytes,
    user_bytes_read,
    user_bytes_written,
    data_busy_ns,
    data_reads,
    data_writes,
    data_syncs,
    data_bytes_written,
    log_busy_ns,
    log_reads,
    log_writes,
    log_syncs,
    log_bytes_written,
    cat_busy_ns,
    cat_reads,
    cat_writes,
    cat_syncs,
    cat_bytes_written,
);

impl Sample {
    /// Bytes written on all three spindles, log included.
    pub fn device_bytes_written(&self) -> u64 {
        self.data_bytes_written + self.log_bytes_written + self.cat_bytes_written
    }
}
