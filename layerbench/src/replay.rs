//! One timed repeat of a workload through its public entry point
//! (`ShardedCache::submit` or `Hierarchy::submit_batch`), with the
//! correctness gate's per-repeat checks.

use std::time::{Duration, Instant};

use disk_trace::{DiskRequest, OpKind};
use flashcache_core::{CacheStats, FlashCache};

use crate::alloc;
use crate::workload::{self, Backend, Workload, BATCH};

/// Modeled (simulated) results of one repeat. They are a pure function
/// of the workload and seed, so every repeat of a run must reproduce
/// them bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Modeled {
    pub read_miss_rate: f64,
    pub latency_us_mean: f64,
    pub latency_us_p99: f64,
    pub time_s: f64,
    pub programs_per_page: f64,
    pub erases_per_mpage: f64,
    /// FNV digest of the trace and every request's modeled latency.
    pub digest: u64,
}

impl Modeled {
    pub fn bits(&self) -> [u64; 7] {
        [
            self.read_miss_rate.to_bits(),
            self.latency_us_mean.to_bits(),
            self.latency_us_p99.to_bits(),
            self.time_s.to_bits(),
            self.programs_per_page.to_bits(),
            self.erases_per_mpage.to_bits(),
            self.digest,
        ]
    }
}

/// Wall-clock and modeled results of one repeat.
pub struct Repeat {
    /// Trace generation, stack construction and warm-up, s.
    pub setup_s: f64,
    /// Time inside the entry point over the timed segment, s.
    pub serviced_s: f64,
    /// Host pages in the timed segment.
    pub pages: u64,
    /// Peak heap above the pre-generated trace and benchmark buffers.
    pub mem_bytes: usize,
    /// Ops that degraded to internal errors or got no outcome.
    pub failed: u64,
    pub modeled: Modeled,
}

/// Correctness problems found so far; any makes the run report failure.
#[derive(Default)]
pub struct Gate {
    pub problems: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Checks one outcome per request; returns requests left without one.
    pub fn outcomes(&mut self, got: usize, sent: usize) -> u64 {
        self.check(got == sent, || {
            format!("batch of {sent} requests returned {got} outcomes")
        });
        sent.abs_diff(got) as u64
    }

    /// Hits never exceed lookups.
    pub fn hits(&mut self, d: &CacheStats) {
        self.check(d.read_hits <= d.reads && d.write_hits <= d.writes, || {
            format!(
                "hits exceed lookups: read {}/{}, write {}/{}",
                d.read_hits, d.reads, d.write_hits, d.writes
            )
        });
    }

    pub fn invariants(&mut self, shards: &[FlashCache]) {
        for (i, s) in shards.iter().enumerate() {
            if let Err(e) = s.check_invariants() {
                self.problems.push(format!("shard {i} invariants: {e}"));
            }
        }
    }
}

/// Buffers allocated once per run, before heap accounting starts, so
/// `mem_mb` counts only the program's own structures.
pub struct Buffers {
    pub trace: Vec<DiskRequest>,
    latencies: Vec<f64>,
    /// Wall time of every timed batch, pooled over repeats, ns.
    pub batch_ns: Vec<u64>,
}

impl Buffers {
    pub fn new(w: Workload, max_repeats: usize) -> Buffers {
        Buffers {
            trace: Vec::with_capacity(w.total_requests()),
            latencies: Vec::with_capacity(w.timed_requests()),
            batch_ns: Vec::with_capacity(max_repeats * w.timed_requests().div_ceil(BATCH)),
        }
    }
}

/// Regenerates the workload's trace from `seed` into `out`.
pub fn generate(w: Workload, seed: u64, out: &mut Vec<DiskRequest>) {
    out.clear();
    let mut gen = w.spec().generator(seed);
    for _ in 0..w.total_requests() / BATCH {
        gen.fill(BATCH, out);
    }
}

/// Counter deltas between two stats snapshots (the counters the
/// benchmark reads; time accumulators are left at zero).
pub fn delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
    CacheStats {
        reads: after.reads - before.reads,
        read_hits: after.read_hits - before.read_hits,
        writes: after.writes - before.writes,
        write_hits: after.write_hits - before.write_hits,
        flash_reads: after.flash_reads - before.flash_reads,
        flash_programs: after.flash_programs - before.flash_programs,
        erases: after.erases - before.erases,
        gc_runs: after.gc_runs - before.gc_runs,
        gc_moved_pages: after.gc_moved_pages - before.gc_moved_pages,
        evictions: after.evictions - before.evictions,
        wear_migrations: after.wear_migrations - before.wear_migrations,
        reclaim_index_queries: after.reclaim_index_queries - before.reclaim_index_queries,
        reclaim_index_hits: after.reclaim_index_hits - before.reclaim_index_hits,
        internal_errors: after.internal_errors - before.internal_errors,
        ..CacheStats::default()
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Mean, exact p99 (nearest rank) and digest of per-request latencies.
fn latency_summary(trace: &[DiskRequest], lat: &mut [f64]) -> (f64, f64, u64) {
    let mut h = Fnv::new();
    for r in trace {
        h.eat(r.page ^ (u64::from(r.len) << 48) ^ (u64::from(r.op == OpKind::Write) << 63));
    }
    for &l in lat.iter() {
        h.eat(l.to_bits());
    }
    let mean = lat.iter().sum::<f64>() / lat.len() as f64;
    let rank = (lat.len() * 99).div_ceil(100).max(1) - 1;
    let (_, p99, _) = lat.select_nth_unstable_by(rank, f64::total_cmp);
    (mean, *p99, h.0)
}

/// Generates the trace, builds the stack, replays the warm-up, then
/// times the entry point over the timed segment.
pub fn run_repeat(w: Workload, seed: u64, buf: &mut Buffers, gate: &mut Gate) -> Repeat {
    let t0 = Instant::now();
    generate(w, seed, &mut buf.trace);
    let base = alloc::reset_peak();
    buf.latencies.clear();
    if w.uses_hierarchy() {
        run_hierarchy(w, t0, base, buf, gate)
    } else {
        run_engine(w, t0, base, buf, gate)
    }
}

fn run_engine(w: Workload, t0: Instant, base: usize, buf: &mut Buffers, gate: &mut Gate) -> Repeat {
    let (warm, timed) = buf.trace.split_at(w.warmup_requests());
    let mut engine = workload::build_engine(w);
    let mut missing = 0;
    for b in warm.chunks(BATCH) {
        missing += gate.outcomes(engine.submit(b).len(), b.len());
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let before = engine.stats();
    let clock0: Vec<f64> = engine
        .shards()
        .iter()
        .map(|s| s.device().modeled_time_us())
        .collect();
    let penalty_us = engine.shards()[0].config().disk_latency_us;
    let mut serviced = Duration::ZERO;
    for b in timed.chunks(BATCH) {
        let t = Instant::now();
        let outs = engine.submit(b);
        let dt = t.elapsed();
        serviced += dt;
        buf.batch_ns.push(dt.as_nanos() as u64);
        missing += gate.outcomes(outs.len(), b.len());
        buf.latencies.extend(
            outs.iter()
                .map(|o| o.latency_us + if o.needs_disk_read { penalty_us } else { 0.0 }),
        );
    }
    let d = delta(&before, &engine.stats());
    let (pages, _) = workload::page_counts(timed);
    gate.check(d.reads + d.writes == pages, || {
        format!(
            "reads {} + writes {} != pages serviced {pages}",
            d.reads, d.writes
        )
    });
    gate.hits(&d);
    gate.invariants(engine.shards());
    gate.check(engine.workers() == w.shards(), || {
        format!("{} workers for {} shards", engine.workers(), w.shards())
    });
    let time_us = engine
        .shards()
        .iter()
        .zip(&clock0)
        .map(|(s, c)| s.device().modeled_time_us() - c)
        .fold(0.0, f64::max);
    let mem_bytes = alloc::peak_above(base);
    drop(engine);

    let (mean, p99, digest) = latency_summary(timed, &mut buf.latencies);
    Repeat {
        setup_s,
        serviced_s: serviced.as_secs_f64(),
        pages,
        mem_bytes,
        failed: d.internal_errors + missing,
        modeled: Modeled {
            read_miss_rate: 1.0 - d.read_hits as f64 / d.reads as f64,
            latency_us_mean: mean,
            latency_us_p99: p99,
            time_s: time_us / 1e6,
            programs_per_page: d.flash_programs as f64 / pages as f64,
            erases_per_mpage: d.erases as f64 * 1e6 / pages as f64,
            digest,
        },
    }
}

fn run_hierarchy(
    w: Workload,
    t0: Instant,
    base: usize,
    buf: &mut Buffers,
    gate: &mut Gate,
) -> Repeat {
    let (warm, timed) = buf.trace.split_at(w.warmup_requests());
    let mut h = workload::build_hierarchy(Backend::Event, true);
    let mut missing = 0;
    for b in warm.chunks(BATCH) {
        missing += gate.outcomes(h.submit_batch(b).len(), b.len());
    }
    h.reset_measurements();
    let setup_s = t0.elapsed().as_secs_f64();

    let clock0 = h.flash().expect("flash tier").device().modeled_time_us();
    let mut serviced = Duration::ZERO;
    for b in timed.chunks(BATCH) {
        let t = Instant::now();
        let outs = h.submit_batch(b);
        let dt = t.elapsed();
        serviced += dt;
        buf.batch_ns.push(dt.as_nanos() as u64);
        missing += gate.outcomes(outs.len(), b.len());
        buf.latencies.extend(outs.iter().map(|o| o.latency_us));
    }
    let r = h.report();
    let flash = h.flash_engine().expect("flash tier");
    let d = flash.stats();
    let (pages, read_pages) = workload::page_counts(timed);
    gate.check(r.requests == timed.len() as u64 && r.pages == pages, || {
        format!(
            "report counts {} requests / {} pages, sent {} / {pages}",
            r.requests,
            r.pages,
            timed.len()
        )
    });
    gate.check(
        r.dram_hit_pages + r.flash_hit_pages + r.disk_read_pages == read_pages,
        || format!("DRAM + flash + disk pages != {read_pages} read pages"),
    );
    gate.check(d.reads == read_pages - r.dram_hit_pages, || {
        format!(
            "flash serviced {} reads for {} DRAM read misses",
            d.reads,
            read_pages - r.dram_hit_pages
        )
    });
    gate.hits(&d);
    gate.invariants(flash.shards());
    let time_us = flash.shards()[0].device().modeled_time_us() - clock0;
    let disk_read_pages = r.disk_read_pages;
    let mem_bytes = alloc::peak_above(base);
    drop(h);

    let (mean, p99, digest) = latency_summary(timed, &mut buf.latencies);
    Repeat {
        setup_s,
        serviced_s: serviced.as_secs_f64(),
        pages,
        mem_bytes,
        failed: d.internal_errors + missing,
        modeled: Modeled {
            read_miss_rate: disk_read_pages as f64 / read_pages as f64,
            latency_us_mean: mean,
            latency_us_p99: p99,
            time_s: time_us / 1e6,
            programs_per_page: d.flash_programs as f64 / pages as f64,
            erases_per_mpage: d.erases as f64 * 1e6 / pages as f64,
            digest,
        },
    }
}
