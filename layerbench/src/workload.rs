//! The three replay workloads: what each generates, how much of it is
//! warm-up and how much is timed, and the cache stack it runs through.
//! README.md explains why each was chosen.

use std::sync::Arc;

use disk_trace::{DiskRequest, OpKind, WorkloadSpec};
use flash_obs::ObsSink;
use flashcache_core::FlashCacheConfig;
use flashcache_engine::{EngineConfig, ShardedCache};
use flashcache_sim::{Hierarchy, HierarchyConfig};
use nand_flash::{ChannelConfig, FlashConfig, FlashGeometry, TimingBackend};

/// Requests per submitted batch (one client thread).
pub const BATCH: usize = 512;

/// DRAM primary disk cache of `dbt2_hierarchy`, bytes.
pub const DRAM_BYTES: u64 = 16 << 20;

/// Requests between the hierarchy's periodic dirty write-backs: every
/// fourth batch flushes. At the simulator's default of 1,024, half the
/// batches would flush and take several times as long as the other half,
/// so the median batch would sit on the edge between the two and read
/// the tail of one or the other.
pub const FLUSH_INTERVAL: u64 = 4 * BATCH as u64;

/// Trace-event ring capacity of the attached sink: the figure pipeline's
/// `--trace-events` default.
const SINK_EVENTS: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ZipfRead,
    WriteChurn,
    Dbt2Hierarchy,
}

/// Which NAND timing backend a stack is built with. `dbt2_hierarchy`
/// runs the event backend; its closed-form twin isolates the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    ClosedForm,
    Event,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ZipfRead,
        Workload::WriteChurn,
        Workload::Dbt2Hierarchy,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfRead => "zipf_read",
            Workload::WriteChurn => "write_churn",
            Workload::Dbt2Hierarchy => "dbt2_hierarchy",
        }
    }

    pub fn spec(self) -> WorkloadSpec {
        match self {
            Workload::ZipfRead => {
                let mut spec = WorkloadSpec::alpha1();
                spec.write_fraction = 0.05;
                spec
            }
            Workload::WriteChurn => WorkloadSpec::financial1(),
            Workload::Dbt2Hierarchy => WorkloadSpec::dbt2(),
        }
    }

    /// Requests replayed before timing starts. Per-request cost grows as
    /// a cache ages (evictions, GC and wear migrations accumulate), so
    /// each repeat replays the same warm-up on a fresh stack and times
    /// the same segment right after it: every repeat measures the same
    /// work, whatever the host's speed.
    pub fn warmup_requests(self) -> usize {
        match self {
            Workload::ZipfRead => 512 * BATCH,
            Workload::WriteChurn => 256 * BATCH,
            Workload::Dbt2Hierarchy => 256 * BATCH,
        }
    }

    /// Requests in the timed segment: 1,024 batches, so ten batches lie
    /// beyond the p99 of a repeat's batch times.
    pub fn timed_requests(self) -> usize {
        1024 * BATCH
    }

    pub fn total_requests(self) -> usize {
        self.warmup_requests() + self.timed_requests()
    }

    /// Flash shards; `write_churn` is the only workload that drives the
    /// engine's partition, ring and merge path.
    pub fn shards(self) -> usize {
        match self {
            Workload::WriteChurn => 2,
            Workload::ZipfRead | Workload::Dbt2Hierarchy => 1,
        }
    }

    pub fn backend(self) -> Backend {
        match self {
            Workload::Dbt2Hierarchy => Backend::Event,
            Workload::ZipfRead | Workload::WriteChurn => Backend::ClosedForm,
        }
    }

    pub fn uses_hierarchy(self) -> bool {
        self == Workload::Dbt2Hierarchy
    }
}

/// 512 blocks × 64 pages of flash, on the requested timing backend
/// (event: 4 channels × 2 planes, queue depth 8).
pub fn cache_config(backend: Backend) -> FlashCacheConfig {
    let mut flash = FlashConfig {
        geometry: FlashGeometry {
            blocks: 512,
            pages_per_block: 64,
            ..FlashGeometry::default()
        },
        ..FlashConfig::default()
    };
    if backend == Backend::Event {
        flash.timing_backend = TimingBackend::EventDriven;
        flash.channel = ChannelConfig::builder()
            .channels(4)
            .planes(2)
            .queue_depth(8)
            .build()
            .expect("4x2 channel config is valid");
    }
    FlashCacheConfig::builder()
        .flash(flash)
        .build()
        .expect("benchmark cache config is valid")
}

/// The sharded engine of an engine workload. Worker count is pinned to
/// the shard count so `write_churn` always runs two persistent workers.
pub fn build_engine(w: Workload) -> ShardedCache {
    let engine = EngineConfig {
        workers: Some(w.shards()),
        ..EngineConfig::default()
    };
    ShardedCache::with_engine_config(cache_config(w.backend()), w.shards(), engine)
        .expect("benchmark shard count divides the blocks")
}

/// The `dbt2_hierarchy` stack: 16 MiB DRAM primary disk cache over one
/// flash shard, with an observability sink attached as the figure
/// pipeline's `--json-metrics` runs do (`sink = false` builds the
/// no-sink twin).
pub fn build_hierarchy(backend: Backend, sink: bool) -> Hierarchy {
    let mut h = Hierarchy::new(HierarchyConfig {
        dram_bytes: DRAM_BYTES,
        flash: Some(cache_config(backend)),
        flush_interval: FLUSH_INTERVAL,
        flash_shards: 1,
        ..HierarchyConfig::default()
    });
    if sink {
        h.attach_sink(Arc::new(ObsSink::with_capacity(SINK_EVENTS)));
    }
    h
}

/// Host pages and read pages of a request slice.
pub fn page_counts(reqs: &[DiskRequest]) -> (u64, u64) {
    reqs.iter().fold((0, 0), |(pages, reads), r| {
        let n = u64::from(r.len);
        (pages + n, reads + if r.op == OpKind::Read { n } else { 0 })
    })
}
