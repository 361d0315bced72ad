//! The traced per-layer run (`--trace 1`).
//!
//! Each pass replays the workload once untraced (the tracing-overhead
//! reference) and once with a span around every call into the entry
//! point, then replays the same segment through each layer's public
//! functions alone ("twins") on identically built, identically warmed
//! state. Twin timings give the layers' self-times; the end-to-end time
//! they do not cover is the ledger's residual. README.md maps every
//! metric to the end-to-end metric and workload it should move.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use disk_trace::{DiskRequest, OpKind, PAGE_BYTES};
use flash_obs::ServiceTier;
use flashcache_core::{
    AccessOutcome, CacheOp, CacheOutcome, CacheStats, FlashCache, FlashCacheConfig,
    PrimaryDiskCache,
};
use flashcache_engine::{ring, EngineConfig, ShardedCache};

use crate::replay::{delta, Gate};
use crate::spans::Spans;
use crate::workload::{self, Backend, Workload, BATCH, DRAM_BYTES, FLUSH_INTERVAL};
use crate::{finish, metric, print_header, quartiles, Args, Metric};

const MAX_PASSES: usize = 16;
/// Ring capacity and consumer chunk of the engine's persistent runtime.
const RING_CAPACITY: usize = 1024;
const RING_CHUNK: usize = 64;
/// `export_metrics` calls timed per pass (median reported).
const EXPORTS: usize = 5;

/// Per-layer values of one pass, in report order.
type Values = Vec<(&'static str, f64, &'static str)>;

pub fn run(args: &Args) -> ExitCode {
    print_header(args, "traced per-layer");
    let w = args.workload;
    let mut spans = Spans::new();
    let mut gate = Gate::default();
    let mut passes: Vec<Values> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while passes.is_empty() || (start.elapsed() < budget && passes.len() < MAX_PASSES) {
        let from = spans.len();
        let (values, pages, fails) = pass(w, args.seed, &mut spans, &mut gate);
        if passes.is_empty() {
            print_self_times(&spans, from, &values);
        }
        passes.push(values);
        attempted += pages;
        failed += fails;
    }
    write_spans(args, &spans);

    let n = passes.len();
    let metrics: Vec<Metric> = (0..passes[0].len())
        .map(|i| {
            let (name, _, unit) = passes[0][i];
            let v: Vec<f64> = passes.iter().map(|p| p[i].1).collect();
            let (q1, med, q3) = quartiles(&v);
            metric(
                name,
                med,
                unit,
                format!("median of {n} passes, q1 {q1:.6}, q3 {q3:.6}"),
            )
        })
        .collect();
    finish(&metrics, attempted, failed, &gate)
}

/// Prints every span name's self time for the first pass, and the
/// ledger rows: layer self-times against the end-to-end time.
fn print_self_times(spans: &Spans, from: usize, values: &Values) {
    println!("span self-times, first pass:");
    for (name, ns) in spans.self_ns_since(from) {
        println!("  {name:<22} {:>12.3} ms", ns as f64 / 1e6);
    }
    let get = |k: &str| values.iter().find(|v| v.0 == k).map_or(0.0, |v| v.1);
    println!(
        "ledger: residual share {:.4} of end-to-end time, tracing overhead {:.4}",
        get("ledger.residual_share"),
        get("ledger.tracing_overhead")
    );
}

fn write_spans(args: &Args, spans: &Spans) {
    let dir = std::path::Path::new(".layerbench");
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.to_json())) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => println!("spans: not written ({e})"),
    }
}

/// What one pass shares across layers: the trace and its split.
struct Segment<'a> {
    warm: &'a [DiskRequest],
    timed: &'a [DiskRequest],
    pages: u64,
    read_pages: u64,
}

fn pass(w: Workload, seed: u64, spans: &mut Spans, gate: &mut Gate) -> (Values, u64, u64) {
    let root = spans.open("pass");
    let mut trace = Vec::with_capacity(w.total_requests());
    let mut gen = w.spec().generator(seed);
    let gen_id = spans.open("setup.trace");
    let mut gen_ns = 0;
    for _ in 0..w.total_requests() / BATCH {
        gen_ns += spans.time("trace.fill", || gen.fill(BATCH, &mut trace)).1;
    }
    spans.close(gen_id);
    let (warm, timed) = trace.split_at(w.warmup_requests());
    let (pages, read_pages) = workload::page_counts(timed);
    let seg = Segment {
        warm,
        timed,
        pages,
        read_pages,
    };
    let mut values: Values = vec![(
        "trace.gen_ns_per_request",
        gen_ns as f64 / trace.len() as f64,
        "ns",
    )];
    let failed = if w.uses_hierarchy() {
        hierarchy_pass(&seg, spans, gate, &mut values)
    } else {
        engine_pass(w, &seg, spans, gate, &mut values)
    };
    spans.close(root);
    (values, pages, failed)
}

/// Sum of wall time of `f` over every timed batch, untraced.
fn plain_ns(timed: &[DiskRequest], mut f: impl FnMut(&[DiskRequest])) -> u64 {
    let t = Instant::now();
    for b in timed.chunks(BATCH) {
        f(b);
    }
    t.elapsed().as_nanos() as u64
}

fn ops_of(reqs: &[DiskRequest]) -> impl Iterator<Item = CacheOp> + '_ {
    reqs.iter().flat_map(|r| {
        r.pages().map(move |p| match r.op {
            OpKind::Read => CacheOp::read(p),
            OpKind::Write => CacheOp::write(p),
        })
    })
}

fn probe_groups(engine: &ShardedCache) -> u64 {
    engine.export_metrics().counter("flash.fcht.probe_groups")
}

fn export_ms(spans: &mut Spans, mut export: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..EXPORTS)
        .map(|_| spans.time("obs.export", &mut export).1 as f64 / 1e6)
        .collect();
    v.sort_by(f64::total_cmp);
    v[EXPORTS / 2]
}

/// The counters a twin must reproduce exactly.
fn counters(s: &CacheStats) -> [u64; 10] {
    [
        s.reads,
        s.read_hits,
        s.writes,
        s.write_hits,
        s.flash_reads,
        s.flash_programs,
        s.erases,
        s.gc_runs,
        s.evictions,
        s.wear_migrations,
    ]
}

fn engine_pass(
    w: Workload,
    seg: &Segment,
    spans: &mut Spans,
    gate: &mut Gate,
    values: &mut Values,
) -> u64 {
    // Untraced reference run.
    let mut engine = workload::build_engine(w);
    for b in seg.warm.chunks(BATCH) {
        engine.submit(b);
    }
    let e_plain = plain_ns(seg.timed, |b| {
        engine.submit(b);
    });
    drop(engine);

    // Traced end-to-end run.
    let mut engine = workload::build_engine(w);
    spans.time("setup.warmup", || {
        for b in seg.warm.chunks(BATCH) {
            engine.submit(b);
        }
    });
    let before = engine.stats();
    let probes0 = probe_groups(&engine);
    let e2e = spans.open("e2e");
    let (mut e, mut missing) = (0, 0);
    for b in seg.timed.chunks(BATCH) {
        let (outs, ns) = spans.time("engine.submit", || engine.submit(b));
        e += ns;
        missing += gate.outcomes(outs.len(), b.len());
    }
    let traced = spans.close(e2e) as f64;
    let e = e as f64;
    let d = delta(&before, &engine.stats());
    let probes = probe_groups(&engine) - probes0;
    gate.check(d.reads + d.writes == seg.pages, || {
        format!("reads + writes != {} pages serviced", seg.pages)
    });
    gate.hits(&d);
    gate.invariants(engine.shards());
    let export = export_ms(spans, || {
        std::hint::black_box(engine.export_metrics());
    });

    // Each shard's op stream, split with the engine's own `shard_of`.
    let n = engine.shard_count();
    let configs: Vec<FlashCacheConfig> =
        engine.shards().iter().map(|s| s.config().clone()).collect();
    let split = |reqs: &[DiskRequest]| {
        let mut per: Vec<Vec<CacheOp>> = vec![Vec::new(); n];
        for op in ops_of(reqs) {
            per[engine.shard_of(op.lba)].push(op);
        }
        per
    };
    let warm_ops = split(seg.warm);
    let timed_ops: Vec<Vec<Vec<CacheOp>>> = seg.timed.chunks(BATCH).map(split).collect();

    // Core twin: per-shard op streams through `op_batch_into`.
    let mut shards: Vec<FlashCache> = build_twins(&configs, &warm_ops);
    let mut out = Vec::new();
    let mut shard_ns = vec![0u64; n];
    let mut core_crit = 0u64;
    let twin = spans.open("twin.core");
    for batch in &timed_ops {
        let mut slowest = 0;
        for (s, ops) in batch.iter().enumerate() {
            out.clear();
            let ns = spans
                .time("core.op_batch", || shards[s].op_batch_into(ops, &mut out))
                .1;
            shard_ns[s] += ns;
            slowest = slowest.max(ns);
        }
        core_crit += slowest;
    }
    spans.close(twin);
    for (s, (twin, real)) in shards.iter().zip(engine.shards()).enumerate() {
        gate.check(counters(&twin.stats()) == counters(&real.stats()), || {
            format!("core twin of shard {s} diverged from the engine's shard")
        });
    }
    drop(shards);

    // Engine twin: partition (and, with several shards, the ring
    // handoff both ways) of every timed batch.
    let engine_self = engine_twin(&engine, seg.timed, spans);
    let workers = engine.workers() as f64;
    drop(engine);

    let ops = op_twin(&configs, &warm_ops, &timed_ops, spans);
    let pdc = pdc_twin(seg, spans);

    let p = seg.pages as f64;
    let sum_shard: f64 = shard_ns.iter().sum::<u64>() as f64;
    let max_shard = *shard_ns.iter().max().expect("one shard") as f64;
    values.extend([
        ("engine.submit_ns_per_page", e / p, "ns"),
        (
            "engine.overhead_ns_per_page",
            (e - core_crit as f64) / p,
            "ns",
        ),
        (
            "engine.parallel_efficiency",
            sum_shard / (workers * e),
            "ratio",
        ),
        (
            "engine.shard_imbalance",
            max_shard / (sum_shard / n as f64),
            "ratio",
        ),
    ]);
    ops.report(values);
    core_counts(&d, probes, seg, values);
    values.extend([
        // Closed-form timing has no scheduler and no queueing.
        ("nand.sched_share", 0.0, "ratio"),
        ("nand.queue_wait_us_mean", ops.queue_wait_us_mean(), "us"),
        ("nand.service_us_mean", ops.service_us_mean(), "us"),
        ("nand.reads_per_page", d.flash_reads as f64 / p, "1/page"),
        // No hierarchy: no DRAM tier, and every read miss goes to disk.
        ("sim.submit_ns_per_page", 0.0, "ns"),
        ("sim.pdc_ns_per_page", pdc as f64 / p, "ns"),
        ("sim.dram_hit_ratio", 0.0, "ratio"),
        (
            "sim.disk_read_fraction",
            (d.reads - d.read_hits) as f64 / p,
            "ratio",
        ),
        ("obs.sink_overhead_ratio", 0.0, "ratio"),
        ("obs.export_ms", export, "ms"),
        (
            "ledger.residual_share",
            (e - core_crit as f64 - engine_self as f64) / e,
            "ratio",
        ),
        (
            "ledger.tracing_overhead",
            traced / e_plain as f64 - 1.0,
            "ratio",
        ),
    ]);
    d.internal_errors + missing
}

/// Fresh shards built from `configs` and warmed with `warm_ops`.
fn build_twins(configs: &[FlashCacheConfig], warm_ops: &[Vec<CacheOp>]) -> Vec<FlashCache> {
    let mut out = Vec::new();
    configs
        .iter()
        .zip(warm_ops)
        .map(|(c, ops)| {
            let mut s = FlashCache::new(c.clone()).expect("shard config was valid");
            out.clear();
            s.op_batch_into(ops, &mut out);
            s
        })
        .collect()
}

/// Times the engine's own per-batch work from outside: partitioning
/// pages with `shard_of` and, for several shards, pushing each shard's
/// slice through a request ring and its completions back through a
/// completion ring (single-threaded: the handoff's own cost, without
/// the cross-core wait). One shard stages the batch's typed ops instead.
fn engine_twin(engine: &ShardedCache, timed: &[DiskRequest], spans: &mut Spans) -> u64 {
    let n = engine.shard_count();
    let twin = spans.open("twin.engine");
    let mut total = 0;
    if n == 1 {
        let mut staged: Vec<CacheOp> = Vec::with_capacity(BATCH * 256);
        for b in timed.chunks(BATCH) {
            total += spans
                .time("engine.stage", || {
                    staged.clear();
                    staged.extend(ops_of(b));
                    std::hint::black_box(&staged);
                })
                .1;
        }
    } else {
        type Req = (u32, u64, OpKind);
        type Done = (u32, AccessOutcome);
        let mut groups: Vec<Vec<Req>> = vec![Vec::new(); n];
        let mut rings: Vec<_> = (0..n)
            .map(|_| {
                (
                    ring::pair::<Req>(RING_CAPACITY),
                    ring::pair::<Done>(RING_CAPACITY),
                )
            })
            .collect();
        let mut popped: Vec<Req> = Vec::with_capacity(RING_CHUNK);
        let mut done: Vec<Done> = Vec::with_capacity(RING_CHUNK);
        let mut merged: Vec<Done> = Vec::with_capacity(BATCH * 256);
        for b in timed.chunks(BATCH) {
            total += spans
                .time("engine.partition", || {
                    for g in groups.iter_mut() {
                        g.clear();
                    }
                    for (ri, r) in b.iter().enumerate() {
                        for page in r.pages() {
                            groups[engine.shard_of(page)].push((ri as u32, page, r.op));
                        }
                    }
                })
                .1;
            total += spans
                .time("engine.ring", || {
                    merged.clear();
                    for (g, ((req_tx, req_rx), (done_tx, done_rx))) in
                        groups.iter().zip(rings.iter_mut())
                    {
                        let mut sent = 0;
                        while sent < g.len() {
                            sent += req_tx.push_slice(&g[sent..]);
                            while req_rx.pop_chunk(&mut popped, RING_CHUNK) > 0 {
                                done.clear();
                                done.extend(
                                    popped
                                        .drain(..)
                                        .map(|(ri, _, _)| (ri, AccessOutcome::default())),
                                );
                                let mut back = 0;
                                while back < done.len() {
                                    back += done_tx.push_slice(&done[back..]);
                                    done_rx.pop_chunk(&mut merged, RING_CAPACITY);
                                }
                            }
                        }
                    }
                    std::hint::black_box(&merged);
                })
                .1;
        }
    }
    spans.close(twin);
    total
}

/// Single `FlashCache::op` calls, each timed and classed by outcome.
#[derive(Default)]
struct OpTwin {
    ns: [Vec<u64>; 4],
    total_ns: u64,
    flash_ops: u64,
    flash_served: u64,
    queue_wait_us: f64,
    service_us: f64,
}

impl OpTwin {
    fn record(
        &mut self,
        op: CacheOp,
        out: &CacheOutcome,
        ns: u64,
        s0: &CacheStats,
        s1: &CacheStats,
    ) {
        // GC-class: the op triggered GC, an eviction or a wear migration.
        let class = if s1.gc_runs > s0.gc_runs
            || s1.evictions > s0.evictions
            || s1.wear_migrations > s0.wear_migrations
        {
            3
        } else if op.kind == flashcache_core::CacheOpKind::Write {
            2
        } else if out.access.hit {
            0
        } else {
            1
        };
        self.ns[class].push(ns);
        self.total_ns += ns;
        self.flash_ops += (s1.flash_reads + s1.flash_programs + s1.erases)
            - (s0.flash_reads + s0.flash_programs + s0.erases);
        if out.access.tier == ServiceTier::Flash {
            self.flash_served += 1;
            self.queue_wait_us += out.access.queue_wait_us;
            self.service_us += out.access.latency_us - out.access.queue_wait_us;
        }
    }

    fn queue_wait_us_mean(&self) -> f64 {
        self.queue_wait_us / self.flash_served.max(1) as f64
    }

    fn service_us_mean(&self) -> f64 {
        self.service_us / self.flash_served.max(1) as f64
    }

    fn report(&self, values: &mut Values) {
        const OP_NS: [&str; 4] = [
            "core.op_ns.hit",
            "core.op_ns.miss_fill",
            "core.op_ns.write",
            "core.op_ns.gc",
        ];
        const SHARE: [&str; 4] = [
            "core.ops_share.hit",
            "core.ops_share.miss_fill",
            "core.ops_share.write",
            "core.ops_share.gc",
        ];
        let total: usize = self.ns.iter().map(Vec::len).sum();
        for (c, samples) in self.ns.iter().enumerate() {
            let mut s = samples.clone();
            let median = if s.is_empty() {
                0.0
            } else {
                let mid = s.len() / 2;
                *s.select_nth_unstable(mid).1 as f64
            };
            values.push((OP_NS[c], median, "ns"));
        }
        for (c, samples) in self.ns.iter().enumerate() {
            values.push((SHARE[c], samples.len() as f64 / total as f64, "ratio"));
        }
        values.push((
            "core.ns_per_flash_op",
            self.total_ns as f64 / self.flash_ops.max(1) as f64,
            "ns",
        ));
    }
}

fn op_twin(
    configs: &[FlashCacheConfig],
    warm_ops: &[Vec<CacheOp>],
    timed_ops: &[Vec<Vec<CacheOp>>],
    spans: &mut Spans,
) -> OpTwin {
    let mut shards = build_twins(configs, warm_ops);
    let mut twin = OpTwin::default();
    let id = spans.open("twin.ops");
    for batch in timed_ops {
        for (shard, ops) in shards.iter_mut().zip(batch) {
            for &op in ops {
                let s0 = shard.stats();
                let t = Instant::now();
                let out = shard.op(op);
                let ns = t.elapsed().as_nanos() as u64;
                twin.record(op, &out, ns, &s0, &shard.stats());
            }
        }
    }
    spans.close(id);
    twin
}

/// Deterministic per-layer counts from the end-to-end run's stats.
fn core_counts(d: &CacheStats, probes: u64, seg: &Segment, values: &mut Values) {
    let kp = seg.pages as f64 / 1e3;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    values.extend([
        (
            "core.fcht_probe_groups_per_op",
            ratio(probes, d.reads + d.writes),
            "groups/op",
        ),
        ("core.gc_runs_per_kpage", d.gc_runs as f64 / kp, "1/kpage"),
        (
            "core.gc_moved_per_gc",
            ratio(d.gc_moved_pages, d.gc_runs),
            "pages/gc",
        ),
        (
            "core.evictions_per_kpage",
            d.evictions as f64 / kp,
            "1/kpage",
        ),
        (
            "core.wear_migrations_per_kpage",
            d.wear_migrations as f64 / kp,
            "1/kpage",
        ),
        (
            "core.reclaim_index_hit_ratio",
            ratio(d.reclaim_index_hits, d.reclaim_index_queries),
            "ratio",
        ),
    ]);
}

/// The primary disk cache replayed alone on the trace, exactly as the
/// one-shard `Hierarchy` drives it: a read probes and, on a miss, goes
/// to flash and installs clean; a write installs dirty; a dirty victim
/// and every periodic flush write back to flash. Returns the flash op
/// stream (warm-up ops, then one list per timed batch) when `collect`.
struct PdcReplay {
    pdc: PrimaryDiskCache,
    since_flush: u64,
}

impl PdcReplay {
    fn new() -> PdcReplay {
        PdcReplay {
            pdc: PrimaryDiskCache::new((DRAM_BYTES / PAGE_BYTES) as usize),
            since_flush: 0,
        }
    }

    fn request(&mut self, r: &DiskRequest, flash: &mut Vec<CacheOp>) {
        for page in r.pages() {
            let dirty = match r.op {
                OpKind::Read => {
                    if self.pdc.access(page) {
                        continue;
                    }
                    flash.push(CacheOp::read(page));
                    false
                }
                OpKind::Write => true,
            };
            if let Some(ev) = self.pdc.insert(page, dirty) {
                if ev.dirty {
                    flash.push(CacheOp::write(ev.page));
                }
            }
        }
        self.since_flush += 1;
        if self.since_flush >= FLUSH_INTERVAL {
            self.since_flush = 0;
            flash.extend(self.pdc.flush_dirty().into_iter().map(CacheOp::write));
        }
    }
}

/// Times the PDC alone over the timed segment (after an untimed warm-up
/// replay), ns.
fn pdc_twin(seg: &Segment, spans: &mut Spans) -> u64 {
    let mut replay = PdcReplay::new();
    let mut sink = Vec::with_capacity(BATCH * 1024);
    for r in seg.warm {
        sink.clear();
        replay.request(r, &mut sink);
    }
    let id = spans.open("twin.pdc");
    let mut total = 0;
    for b in seg.timed.chunks(BATCH) {
        sink.clear();
        total += spans
            .time("sim.pdc", || {
                for r in b {
                    replay.request(r, &mut sink);
                }
            })
            .1;
    }
    spans.close(id);
    total
}

fn hierarchy_pass(seg: &Segment, spans: &mut Spans, gate: &mut Gate, values: &mut Values) -> u64 {
    // Untraced twins of the whole stack: as configured, without the
    // sink, and on the closed-form backend.
    let plain = |backend: Backend, sink: bool| {
        let mut h = workload::build_hierarchy(backend, sink);
        for b in seg.warm.chunks(BATCH) {
            h.submit_batch(b);
        }
        plain_ns(seg.timed, |b| {
            h.submit_batch(b);
        }) as f64
    };
    let e_plain = plain(Backend::Event, true);
    let e_nosink = plain(Backend::Event, false);
    let e_closed = plain(Backend::ClosedForm, true);

    // Traced end-to-end run.
    let mut h = workload::build_hierarchy(Backend::Event, true);
    spans.time("setup.warmup", || {
        for b in seg.warm.chunks(BATCH) {
            h.submit_batch(b);
        }
    });
    h.reset_measurements();
    let probes0 = probe_groups(h.flash_engine().expect("flash tier"));
    let e2e = spans.open("e2e");
    let (mut e, mut missing) = (0, 0);
    for b in seg.timed.chunks(BATCH) {
        let (outs, ns) = spans.time("sim.submit_batch", || h.submit_batch(b));
        e += ns;
        missing += gate.outcomes(outs.len(), b.len());
    }
    let traced = spans.close(e2e) as f64;
    let e = e as f64;
    let flash = h.flash_engine().expect("flash tier");
    let d = flash.stats();
    let probes = probe_groups(flash) - probes0;
    gate.hits(&d);
    gate.invariants(flash.shards());
    let config = flash.shards()[0].config().clone();
    let r = h.report();
    let (queue_wait, service) = (r.flash_queue_wait.mean_us(), r.flash_service.mean_us());
    let dram_hit_ratio = r.dram_hit_pages as f64 / seg.read_pages as f64;
    let disk_read_fraction = r.disk_read_fraction();
    let export = export_ms(spans, || {
        std::hint::black_box(h.export_metrics());
        std::hint::black_box(h.flash_engine().expect("flash tier").export_metrics());
    });
    drop(h);

    // The flash op stream the hierarchy generated, rebuilt by
    // replaying the PDC alone.
    let mut replay = PdcReplay::new();
    let mut warm_ops = Vec::new();
    for r in seg.warm {
        replay.request(r, &mut warm_ops);
    }
    let timed_ops: Vec<Vec<CacheOp>> = seg
        .timed
        .chunks(BATCH)
        .map(|b| {
            let mut ops = Vec::new();
            for r in b {
                replay.request(r, &mut ops);
            }
            ops
        })
        .collect();
    let flash_ops = timed_ops.iter().map(Vec::len).sum::<usize>() as f64;

    // Core twin through `op_batch_into`; must reproduce the hierarchy's
    // flash counters exactly, which also proves the rebuilt stream.
    let configs = [config.clone()];
    let warm_split = [warm_ops];
    let mut twin = build_twins(&configs, &warm_split).remove(0);
    let at_timed = twin.stats();
    let mut out = Vec::new();
    let id = spans.open("twin.core");
    let mut core = 0;
    for ops in &timed_ops {
        out.clear();
        core += spans
            .time("core.op_batch", || twin.op_batch_into(ops, &mut out))
            .1;
    }
    spans.close(id);
    gate.check(
        counters(&delta(&at_timed, &twin.stats())) == counters(&d),
        || "core twin diverged from the hierarchy's flash tier".to_string(),
    );
    drop(twin);

    // Engine twin: the same stream through `ShardedCache::op`, the
    // hierarchy's entry into the flash tier.
    let mut engine = ShardedCache::with_engine_config(config, 1, EngineConfig::default())
        .expect("one shard is valid");
    for &op in &warm_split[0] {
        engine.op(op);
    }
    let id = spans.open("twin.engine");
    let mut eng = 0;
    for ops in &timed_ops {
        eng += spans
            .time("engine.op", || {
                for &op in ops {
                    std::hint::black_box(engine.op(op));
                }
            })
            .1;
    }
    spans.close(id);
    drop(engine);

    let timed_split: Vec<Vec<Vec<CacheOp>>> = timed_ops.into_iter().map(|o| vec![o]).collect();
    let ops = op_twin(&configs, &warm_split, &timed_split, spans);
    let pdc = pdc_twin(seg, spans);

    let p = seg.pages as f64;
    let (eng, core, pdc) = (eng as f64, core as f64, pdc as f64);
    let sink_ns = e_plain - e_nosink;
    values.extend([
        ("engine.submit_ns_per_page", eng / flash_ops, "ns"),
        (
            "engine.overhead_ns_per_page",
            (eng - core) / flash_ops,
            "ns",
        ),
        ("engine.parallel_efficiency", core / eng, "ratio"),
        ("engine.shard_imbalance", 1.0, "ratio"),
    ]);
    ops.report(values);
    core_counts(&d, probes, seg, values);
    values.extend([
        ("nand.sched_share", (e_plain - e_closed) / e_plain, "ratio"),
        ("nand.queue_wait_us_mean", queue_wait, "us"),
        ("nand.service_us_mean", service, "us"),
        ("nand.reads_per_page", d.flash_reads as f64 / p, "1/page"),
        ("sim.submit_ns_per_page", e / p, "ns"),
        ("sim.pdc_ns_per_page", pdc / p, "ns"),
        ("sim.dram_hit_ratio", dram_hit_ratio, "ratio"),
        ("sim.disk_read_fraction", disk_read_fraction, "ratio"),
        ("obs.sink_overhead_ratio", sink_ns / e_plain, "ratio"),
        ("obs.export_ms", export, "ms"),
        (
            "ledger.residual_share",
            (e - eng - pdc - sink_ns) / e,
            "ratio",
        ),
        ("ledger.tracing_overhead", traced / e_plain - 1.0, "ratio"),
    ]);
    d.internal_errors + missing
}
