//! Turning a run's recordings into named metrics, and printing them.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::record::{percentile, Call, Recorder, Txn, OP_TRIES};
use crate::rig::{Sample, SPINDLES};

/// The end-to-end metrics in the `--trace 0` JSON line: the ones every
/// workload has, that never read zero, and that repeat closely enough to
/// bound. The virtual-time latencies are printed on every run but reported
/// as JSON only by the traced run (`e2e.*`), because `hot_read` spends no
/// virtual time by design. Wall-clock `host_ops_per_s` is printed too; on
/// `namespace` the buffer pool's retry loop makes it vary by more than any
/// allowed bound, so host cost is bounded as CPU time per call instead.
const E2E_JSON: &[&str] = &["host_cpu_us_per_op", "peak_rss_mb", "setup_s"];

/// The file-API calls with per-call latency in the `api` layer.
const API_CALLS: &[Call] = &[
    Call::Read,
    Call::Write,
    Call::Commit,
    Call::Open,
    Call::Creat,
    Call::Stat,
    Call::Readdir,
    Call::Unlink,
];

struct Metric {
    name: String,
    /// `None` when the workload makes no such call; the JSON then reads 0.
    value: Option<f64>,
    unit: &'static str,
    samples: Option<usize>,
}

fn metric(name: impl Into<String>, value: Option<f64>, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: value.filter(|v| v.is_finite()),
        unit,
        samples: None,
    }
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// Median of a list; `None` when it is empty.
fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    match v.len() {
        0 => None,
        n if n % 2 == 0 => Some((v[mid - 1] + v[mid]) / 2.0),
        _ => Some(v[mid]),
    }
}

/// Process CPU time, from `getrusage`.
pub struct HostUsage {
    cpu_s: f64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s.
#[repr(C)]
struct Rusage {
    words: [i64; 18],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout here is 64-bit Linux's");

fn rusage() -> Rusage {
    let mut r = Rusage { words: [0; 18] };
    // SAFETY: `r` is a live, writable `struct rusage` with the 64-bit Linux
    // layout (checked by the cfg above), which is all getrusage writes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    if rc != 0 {
        r.words = [0; 18];
    }
    r
}

impl HostUsage {
    pub fn now() -> HostUsage {
        let w = rusage().words;
        let tv = |sec: i64, usec: i64| sec as f64 + usec as f64 * 1e-6;
        HostUsage {
            cpu_s: tv(w[0], w[1]) + tv(w[2], w[3]),
        }
    }

    pub fn since(&self, earlier: &HostUsage) -> HostUsage {
        HostUsage {
            cpu_s: self.cpu_s - earlier.cpu_s,
        }
    }

    /// Peak resident set of the whole run (`ru_maxrss`, in KiB on Linux).
    pub fn peak_rss_mb() -> f64 {
        rusage().words[4] as f64 / 1024.0
    }
}

/// Everything one run measured.
pub struct Run<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub trace: bool,
    pub rec: &'a Recorder,
    /// Counters moved over the whole timed phase.
    pub delta: Sample,
    pub queue_depth_hw: u64,
    pub setup_s: Vec<f64>,
    pub setup_attempted: u64,
    pub setup_failed: u64,
    pub wall_s: f64,
    pub usage: HostUsage,
    pub peak_rss_mb: f64,
}

impl Run<'_> {
    fn virt_ms(&self, calls: &[Call], p: f64) -> Option<f64> {
        let all: Vec<u64> = calls
            .iter()
            .flat_map(|c| self.rec.virt_ns[*c as usize].iter().copied())
            .collect();
        percentile(&all, p).map(|ns| ns as f64 / 1e6)
    }

    fn host_us(&self, calls: &[Call], p: f64) -> Option<f64> {
        let all: Vec<u64> = calls
            .iter()
            .flat_map(|c| self.rec.host_ns[*c as usize].iter().copied())
            .collect();
        percentile(&all, p).map(|ns| ns as f64 / 1e3)
    }

    fn samples(&self, calls: &[Call]) -> usize {
        calls
            .iter()
            .map(|c| self.rec.host_ns[*c as usize].len())
            .sum()
    }

    /// Completed calls in the timed phase, traced or not.
    fn calls(&self) -> u64 {
        self.rec.untraced.calls + self.rec.traced.calls
    }

    /// Every end-to-end metric, each latency with its sample count.
    fn end_to_end(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        let lookup = [Call::Open, Call::Stat];
        let mut lat = |name: &str, calls: &[Call]| {
            for p in [50.0, 99.0] {
                let mut m = metric(format!("{name}_p{p}_ms"), self.virt_ms(calls, p), "ms");
                m.samples = Some(self.samples(calls));
                out.push(m);
            }
        };
        lat("read", &[Call::Read]);
        lat("lookup", &lookup);
        for (name, kind) in [("write", Txn::Write), ("create", Txn::Create)] {
            let txns = &self.rec.txn_virt_ns[kind as usize];
            for p in [50.0, 99.0] {
                let v = percentile(txns, p).map(|ns| ns as f64 / 1e6);
                let mut m = metric(format!("{name}_p{p}_ms"), v, "ms");
                m.samples = Some(txns.len());
                out.push(m);
            }
        }
        let all: Vec<Call> = Call::ALL.to_vec();
        let mut m = metric("host_call_p50_us", self.host_us(&all, 50.0), "us");
        m.samples = Some(self.samples(&all));
        out.push(m);
        let virt_s = self.delta.virt_ns as f64 / 1e9;
        out.push(metric(
            "virt_ops_per_s",
            ratio_f(self.calls() as f64, virt_s),
            "1/s",
        ));
        out.push(metric("host_ops_per_s", self.rec.untraced.rate(), "1/s"));
        out.push(metric(
            "host_cpu_us_per_op",
            ratio_f(self.usage.cpu_s * 1e6, self.calls() as f64),
            "us",
        ));
        out.push(metric(
            "failed_op_ratio",
            ratio(self.rec.failed, self.rec.attempted),
            "ratio",
        ));
        out.push(metric(
            "write_amp",
            ratio(
                self.delta.device_bytes_written(),
                self.delta.user_bytes_written,
            ),
            "ratio",
        ));
        out.push(metric("setup_s", median(&self.setup_s), "s"));
        out.push(metric("peak_rss_mb", Some(self.peak_rss_mb), "MB"));
        out
    }

    /// Per-layer metrics from the traced blocks: counters are summed over
    /// traced blocks (whole-block deltas) or traced calls (per class), and
    /// "per op" means per completed file-API call in traced blocks.
    fn per_layer(&self) -> Vec<Metric> {
        let rec = self.rec;
        let d = &rec.traced_delta;
        let ops = rec.traced.calls;
        let per_op = |n: u64| ratio(n, ops);
        let count = |n: u64| Some(n as f64);
        let mut out = Vec::new();

        for m in self.end_to_end() {
            if E2E_JSON.contains(&m.name.as_str()) {
                continue;
            }
            if let (Some(class), Some(n)) = (m.name.strip_suffix("_p50_ms"), m.samples) {
                out.push(metric(
                    format!("e2e.{class}_samples"),
                    count(n as u64),
                    "count",
                ));
            }
            out.push(Metric {
                name: format!("e2e.{}", m.name),
                ..m
            });
        }
        for &c in API_CALLS {
            out.push(metric(
                format!("api.{}.host_p50_us", c.name()),
                self.host_us(&[c], 50.0),
                "us",
            ));
            out.push(metric(
                format!("api.{}.virt_p50_ms", c.name()),
                self.virt_ms(&[c], 50.0),
                "ms",
            ));
        }
        // Chunk reads and the heap fetches behind them are counted inside
        // `p_read` calls only, so background work is not charged to them.
        let reads = &rec.class_delta[Call::Read as usize];
        let lookups = [Call::Open, Call::Stat];
        let lookup_searches: u64 = lookups
            .iter()
            .map(|c| rec.class_delta[*c as usize].btree_searches)
            .sum();
        let lookup_calls: u64 = lookups.iter().map(|c| rec.class_calls[*c as usize]).sum();
        let user_bytes = d.user_bytes_read + d.user_bytes_written;
        out.extend([
            metric(
                "chunk.reads_per_read",
                ratio(reads.chunk_reads, reads.inv_reads),
                "ratio",
            ),
            metric(
                "chunk.writes_per_write",
                ratio(d.chunk_writes, d.inv_writes),
                "ratio",
            ),
            metric(
                "chunk.coalesced_ratio",
                ratio(d.chunks_coalesced, d.inv_writes),
                "ratio",
            ),
            metric("net.rpcs_per_op", per_op(d.rpcs), "count"),
            metric(
                "net.wire_bytes_per_user_byte",
                ratio(d.rpc_bytes, user_bytes),
                "ratio",
            ),
            metric(
                "naming.btree_searches_per_lookup",
                ratio(lookup_searches, lookup_calls),
                "count",
            ),
            metric("naming.lookup_host_us", self.host_us(&lookups, 50.0), "us"),
            metric(
                "buffer.hit_ratio",
                ratio(d.buf_hits, d.buf_hits + d.buf_misses),
                "ratio",
            ),
            metric("buffer.misses_per_op", per_op(d.buf_misses), "count"),
            metric("buffer.evictions_per_op", per_op(d.buf_evictions), "count"),
            metric(
                "buffer.writebacks_per_op",
                per_op(d.buf_writebacks),
                "count",
            ),
            metric(
                "buffer.prefetch_hit_ratio",
                ratio(d.buf_prefetch_hits, d.buf_prefetches),
                "ratio",
            ),
            metric(
                "heap.fetches_per_chunk_read",
                ratio(reads.heap_fetches, reads.chunk_reads),
                "ratio",
            ),
            metric(
                "heap.appends_per_write",
                ratio(d.heap_appends, d.inv_writes),
                "ratio",
            ),
            metric("btree.searches_per_op", per_op(d.btree_searches), "count"),
            metric("btree.inserts_per_op", per_op(d.btree_inserts), "count"),
            metric("btree.splits", count(d.btree_splits), "count"),
            metric(
                "btree.page_writes_per_commit",
                ratio(d.btree_page_writes, d.xact_commits),
                "count",
            ),
            metric(
                "wal.forces_per_commit",
                ratio(d.wal_forces, d.xact_commits),
                "count",
            ),
            metric(
                "wal.bytes_per_commit",
                ratio(d.wal_bytes, d.xact_commits),
                "B",
            ),
            metric(
                "xact.pages_flushed_at_commit",
                count(d.xact_pages_flushed_at_commit),
                "count",
            ),
            metric("wal.checkpoints", count(d.wal_checkpoints), "count"),
            metric("wal.ckpt_pages_drained", count(d.wal_ckpt_pages), "count"),
            metric(
                "lock.acquisitions_per_op",
                per_op(d.lock_acquisitions),
                "count",
            ),
            metric("lock.waits", count(d.lock_waits), "count"),
            metric("io.queue_depth_hw", count(self.queue_depth_hw), "count"),
            metric(
                "io.batched_neighbor_ratio",
                ratio(d.io_batched, d.io_submitted),
                "ratio",
            ),
            metric("io.elevator_passes", count(d.io_elevator_passes), "count"),
            metric("io.barrier_waits", count(d.io_barrier_waits), "count"),
        ]);
        let spindles = [
            (d.data_busy_ns, d.data_reads, d.data_writes, d.data_syncs),
            (d.log_busy_ns, d.log_reads, d.log_writes, d.log_syncs),
            (d.cat_busy_ns, d.cat_reads, d.cat_writes, d.cat_syncs),
        ];
        for (name, (busy, reads, writes, syncs)) in SPINDLES.iter().zip(spindles) {
            out.extend([
                metric(
                    format!("dev.{name}.busy_ms_per_op"),
                    ratio_f(busy as f64 / 1e6, ops as f64),
                    "ms",
                ),
                metric(format!("dev.{name}.reads_per_op"), per_op(reads), "count"),
                metric(format!("dev.{name}.writes_per_op"), per_op(writes), "count"),
                metric(format!("dev.{name}.syncs_per_op"), per_op(syncs), "count"),
            ]);
        }
        let (untraced, traced) = (rec.untraced.rate(), rec.traced.rate());
        let kops = self.calls() as f64 / 1000.0;
        out.extend([
            metric("host.cpu_s_per_kop", ratio_f(self.usage.cpu_s, kops), "s"),
            metric(
                "host.cpu_over_wall",
                ratio_f(self.usage.cpu_s, self.wall_s),
                "ratio",
            ),
            metric(
                "fail.buffer_exhausted",
                count(rec.fail_buffer_exhausted),
                "count",
            ),
            metric("fail.other", count(rec.fail_other), "count"),
            metric("fail.ops_retried", count(rec.ops_retried), "count"),
            metric(
                "fail.host_share",
                ratio_f(rec.traced.failed_host_s, rec.traced.host_s),
                "ratio",
            ),
            metric("trace.traced_host_ops_per_s", traced, "1/s"),
            metric(
                "trace.overhead_ratio",
                untraced.zip(traced).map(|(u, t)| (u - t) / u),
                "ratio",
            ),
            metric("trace.spans", count(rec.spans.len() as u64), "count"),
        ]);
        out
    }

    /// Prints the run's facts and every metric, then the JSON result line.
    pub fn print(&self, correct: bool) {
        let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        println!(
            "perfbench workload={} seed={} trace={} nproc={} commit={} profile={}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            threads,
            commit(),
            profile
        );
        println!(
            "setup: {} builds, {:?} s; {} calls attempted, {} failed",
            self.setup_s.len(),
            self.setup_s,
            self.setup_attempted,
            self.setup_failed
        );
        println!(
            "operations: {} attempted, {} retried, {} failed after {OP_TRIES} attempts each",
            self.rec.ops, self.rec.ops_retried, self.rec.ops_failed
        );
        for e in self.rec.first_errors() {
            println!("first failures: {e}");
        }
        let e2e = self.end_to_end();
        let layers = if self.trace {
            self.per_layer()
        } else {
            Vec::new()
        };
        for m in e2e.iter().chain(&layers) {
            let value = m.value.map_or("n/a".to_string(), |v| format!("{v:.6}"));
            let n = m.samples.map(|n| format!(" (n={n})")).unwrap_or_default();
            println!("metric {} = {} {}{}", m.name, value, m.unit, n);
        }
        let reported: Vec<&Metric> = if self.trace {
            layers.iter().collect()
        } else {
            E2E_JSON
                .iter()
                .filter_map(|k| e2e.iter().find(|m| m.name == *k))
                .collect()
        };
        let mut json = String::new();
        for (i, m) in reported.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = m.value.unwrap_or(0.0);
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.rec.ops, self.rec.ops_failed
        );
    }
}

fn ratio_f(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The commit checked out in the repository the benchmark was built in,
/// read from its `.git` directory; "unknown" outside a git work tree.
fn commit() -> String {
    let git = bench_dir().join("../.git");
    let read = |rel: &str| std::fs::read_to_string(git.join(rel)).ok();
    let head = read("HEAD").unwrap_or_default();
    let hash = match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => read(r).map(|h| h.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(str::to_string))
        }),
    };
    match hash.as_deref().and_then(|h| h.get(..7)) {
        Some(h) if h.bytes().all(|b| b.is_ascii_hexdigit()) => h.into(),
        _ => "unknown".into(),
    }
}

/// Writes the traced run's spans, one JSON object a line, to
/// `perfbench/out/<workload>.trace.jsonl` (replaced on every traced run).
pub fn write_spans(workload: &str, rec: &Recorder) -> std::io::Result<PathBuf> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.trace.jsonl"));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in &rec.spans {
        writeln!(
            w,
            "{{\"name\": \"{}\", \"parent\": {}, \"host_start_ns\": {}, \"host_end_ns\": {}, \
             \"virt_start_ns\": {}, \"virt_end_ns\": {}, \"ok\": {}}}",
            s.call.name(),
            s.parent,
            s.host_start,
            s.host_end,
            s.virt_start,
            s.virt_end,
            s.ok
        )?;
    }
    w.flush()?;
    Ok(path)
}
