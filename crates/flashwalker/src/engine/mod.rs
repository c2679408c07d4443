//! The FlashWalker system simulation: an event-driven model of the
//! three-level accelerator hierarchy running a random-walk workload over
//! a partitioned graph resident in the simulated SSD.
//!
//! ## Module map
//!
//! * [`state`] — walk-in-transit, chip/channel/board state, the PWB and
//!   the Eq. 1 score.
//! * [`step`] — single-hop sampling: regular subgraphs, dense slices,
//!   pre-walking, local guiding.
//! * `events` — the event enum, [`FwStats`] and [`FwReport`].
//! * `sched` — the subgraph scheduler: Eq. 1 scoring and chip slot
//!   filling.
//! * `routing` — walk flow through the hierarchy: chip batches, channel
//!   batches, board batches and destination resolution.
//! * `partition` — the partition walk buffer, foreigner pages, partition
//!   setup and switching.
//! * `layout` — [`FwLayout`]: subgraph placement, lookup tables and each
//!   partition's static data, built once per graph and shared by every
//!   run over it.
//!
//! This file owns the simulator struct, construction over a layout
//! (per-level state) and the top-level event loop.
//!
//! ## Model granularity
//!
//! Walk updating is simulated per *drain batch* (DESIGN.md §4): when an
//! accelerator has pending walks it processes them back-to-back —
//! asynchronous updating keeps a walk hopping while it stays inside
//! subgraphs loaded at that accelerator — accumulating updater/guider
//! operation counts that are converted to busy time with the Table II
//! cycle times and PE counts. Flash, channel-bus, PCIe and DRAM timing
//! come from reservations against the shared `fw-nand`/`fw-dram` resource
//! models, so contention (the saturated channel buses of Figure 8)
//! emerges from the schedule rather than being asserted.
//!
//! ## Walk life cycle
//!
//! 1. Walks wait in the **partition walk buffer** (on-board DRAM), one
//!    entry per subgraph of the current partition; overflowing entries
//!    spill to flash as walk pages.
//! 2. The **scheduler** fills idle chip slots with the highest-score
//!    subgraph of that chip (Eq. 1; with SS disabled the score reduces to
//!    the walk count). Loading a subgraph reads its pages from the chip's
//!    own planes (no channel traffic) and fetches its walks from DRAM and
//!    spill pages (channel traffic).
//! 3. The **chip batch** updates walks until they leave the chip's loaded
//!    subgraphs; leavers cross the channel bus as roving walks.
//! 4. The **channel batch** updates walks landing in its hot subgraphs
//!    (HS) and tags the rest with a range via approximate walk search
//!    (WQ), then forwards them to the board.
//! 5. The **board batch** resolves destinations (dense table → pre-walk;
//!    query cache → mapping-table binary search), updates walks landing in
//!    board-hot subgraphs, and routes the rest: delivery to a chip that
//!    has the subgraph loaded, the partition walk buffer, or the foreigner
//!    path for walks beyond the current partition.
//! 6. When the current partition drains, the next partition with work is
//!    set up and its foreigner pages are read back.

mod events;
mod layout;
mod partition;
mod routing;
mod sched;
pub mod state;
pub mod step;

#[cfg(test)]
mod tests;

pub use events::{FwReport, FwStats};
pub use layout::FwLayout;

use std::borrow::Cow;

use fw_dram::{Dram, DramConfig};
use fw_fault::{derive_stream_seed, FaultProfile, FAULT_STREAM};
use fw_graph::{Csr, PartitionedGraph};
use fw_nand::{Lpn, Ssd, SsdConfig};
use fw_sim::{
    CriticalConfig, CriticalRecorder, JourneyConfig, JourneyRecorder, LaneRngs, RngModel, ShardId,
    ShardedClock, ShardedEventQueue, SimTime, TimeSeries, TraceConfig, Tracer, Xoshiro256pp,
};
use fw_walk::{FaultSummary, RunReport, WalkEngine, Workload, WALK_BYTES};

use crate::config::AccelConfig;
use crate::tables::WalkQueryCache;
use events::Ev;
use state::{ChannelState, ChipState, ForeignStore, Pools, Pwb, SgId, Slot, TWalk};
use step::prewalk_slice;

/// The FlashWalker system simulator.
pub struct FlashWalkerSim<'g> {
    cfg: AccelConfig,
    csr: &'g Csr,
    pg: &'g PartitionedGraph,
    wl: Workload,
    /// Placement, lookup tables and per-partition static data;
    /// read-only during the run.
    layout: Cow<'g, FwLayout>,
    ssd: Ssd,
    dram: Dram,
    /// Sharded event streams: one shard per channel (carrying that
    /// channel's chip and channel-accelerator events) plus a board/PCIe
    /// shard. The merged pop order is bit-identical to the monolithic
    /// queue, so `threads` never changes a single event delivery.
    events: ShardedEventQueue<Ev>,
    /// Worker count for window-driven execution; `1` (the default) runs
    /// the sequential reference loop.
    threads: u32,
    rng: Xoshiro256pp,
    /// Which sampled-path universe this run inhabits (DESIGN.md §14).
    /// `Global` (the default) draws every walk-sampling decision from the
    /// single root `rng`; `Sharded` draws batch-time decisions from
    /// per-lane jump-ahead streams in `lane_rngs` so lanes commit without
    /// serializing on one generator.
    rng_model: RngModel,
    /// Per-lane walk RNG streams (one per event shard), 2^128 draws
    /// apart via [`Xoshiro256pp::jump`]. Lane `i` is a pure function of
    /// `(seed, i)`, never of thread count or visit order. Only consulted
    /// when `rng_model` is `Sharded`.
    lane_rngs: LaneRngs,
    /// Construction seed, kept so [`Self::with_faults`] can derive the
    /// injector's independent stream.
    seed: u64,
    /// Fault profile; [`FaultProfile::none`] (the default) injects
    /// nothing and skips every recovery branch.
    faults: FaultProfile,

    chips: Vec<ChipState>,
    channels: Vec<ChannelState>,
    board: state::BoardState,
    caches: Vec<WalkQueryCache>,

    pwb: Pwb,
    foreign: ForeignStore,
    current_partition: u32,
    pending_loads: std::collections::HashMap<(u32, SgId), Vec<TWalk>>,
    /// Quiesce mode: the scheduler may load pools below the threshold.
    relaxed_pick: bool,

    /// Reusable batch buffer: the chip/channel/board batch bodies run
    /// serially (they only *schedule* further work), so one scratch
    /// vector serves all three drain loops without allocating.
    scratch: Vec<TWalk>,
    /// Reusable loaded-subgraph snapshot for chip batches.
    loaded_scratch: Vec<SgId>,
    /// Per-shard free lists for event-payload vectors (see
    /// [`state::Pools`]): a vector is recycled into the pool of the shard
    /// whose handler consumed it, so window-local recycling never crosses
    /// a shard boundary between sync points.
    pools: Vec<Pools>,

    total_walks: u64,
    completed: u64,
    next_lpn: Lpn,
    stats: FwStats,
    progress: TimeSeries,
    trace_window_ns: u64,
    walk_log: Option<Vec<fw_walk::Walk>>,
    pub(super) tracer: Tracer,
    /// Per-shard tracers for the accelerator batch spans and queue
    /// gauges. Merged into the root tracer at run end; the canonical
    /// [`Tracer::finish`] makes the report independent of merge order.
    pub(super) shard_tracers: Vec<Tracer>,
    /// Root journey recorder (board-side events: PWB enqueues, foreigner
    /// flushes). Merged with the shard recorders at run end.
    pub(super) journeys: JourneyRecorder,
    /// Per-shard journey recorders mirroring `shard_tracers`: chip /
    /// channel / load events ride the shard whose handler records them,
    /// and the canonical `JourneyRecorder::finish` sort makes the merged
    /// report independent of shard merge order.
    pub(super) shard_journeys: Vec<JourneyRecorder>,
    /// Root critical-path recorder (merge target). Dependency nodes are
    /// recorded by [`Self::sched_ev`] at every `schedule_at` site; node
    /// ids are the queue's global sequence numbers, which the serial
    /// commit plane makes identical at any thread count.
    pub(super) critical: CriticalRecorder,
    /// Per-shard critical recorders mirroring `shard_tracers`; gseq node
    /// ids are globally unique, so the merge is a plain union and the
    /// canonical `CriticalRecorder::finish` sort makes the report
    /// independent of merge order.
    pub(super) shard_criticals: Vec<CriticalRecorder>,
    /// Causal anchor: the gseq of the event currently being dispatched.
    /// Everything a handler schedules happens-after this event.
    crit_cause: Option<u64>,
}

/// Walks per flash page (4 KB / 16 B).
fn page_walks(ssd: &Ssd) -> u64 {
    ssd.config().geometry.page_bytes / WALK_BYTES
}

impl<'g> FlashWalkerSim<'g> {
    /// Build a simulator over a partitioned graph, laying it out in the
    /// SSD's static region. The workload is supplied at run time
    /// ([`Self::run_detailed`] / [`WalkEngine::run`]).
    ///
    /// # Panics
    /// Panics if the graph does not fit the static region, or if the
    /// partition size exceeds the mapping-table capacity.
    pub fn new(
        csr: &'g Csr,
        pg: &'g PartitionedGraph,
        cfg: AccelConfig,
        ssd_cfg: SsdConfig,
        seed: u64,
    ) -> Self {
        let layout = FwLayout::build(pg, &cfg, &ssd_cfg);
        Self::from_layout(csr, pg, Cow::Owned(layout), cfg, ssd_cfg, seed)
    }

    /// Build a simulator over a prepared [`FwLayout`], which callers
    /// running many batches over one graph build once and borrow.
    ///
    /// # Panics
    /// Panics if `layout` was not built for this partitioning, SSD
    /// geometry, range size and hot-slot config, or if the partition
    /// size exceeds the mapping-table capacity.
    pub fn from_layout(
        csr: &'g Csr,
        pg: &'g PartitionedGraph,
        layout: Cow<'g, FwLayout>,
        cfg: AccelConfig,
        ssd_cfg: SsdConfig,
        seed: u64,
    ) -> Self {
        assert!(
            pg.config.subgraphs_per_partition <= cfg.mapping_table_entries(),
            "partition ({}) exceeds mapping table capacity ({})",
            pg.config.subgraphs_per_partition,
            cfg.mapping_table_entries()
        );
        layout.assert_built_for(pg, &cfg, &ssd_cfg);
        let ssd = Ssd::new(ssd_cfg, layout.static_blocks);
        let geometry = ssd_cfg.geometry;
        let chip_slots = cfg.chip_slots(pg.config.subgraph_bytes);
        let chips = (0..geometry.num_chips())
            .map(|_| ChipState::new(chip_slots))
            .collect();
        let channels = (0..geometry.channels)
            .map(|_| ChannelState {
                inbox: Vec::new(),
                busy: false,
            })
            .collect();
        let caches = (0..cfg.query_caches)
            .map(|_| WalkQueryCache::new(cfg.query_cache_entries()))
            .collect();

        FlashWalkerSim {
            cfg,
            csr,
            pg,
            wl: Workload::paper_default(0),
            layout,
            ssd,
            dram: Dram::new(DramConfig::ddr4_1600()),
            // One shard per channel, plus the board/PCIe shard last.
            events: ShardedEventQueue::new(geometry.channels as usize + 1),
            threads: 1,
            rng: Xoshiro256pp::new(seed),
            rng_model: RngModel::Global,
            lane_rngs: LaneRngs::new(seed, geometry.channels as usize + 1),
            seed,
            faults: FaultProfile::none(),
            chips,
            channels,
            board: state::BoardState {
                inbox: Vec::new(),
                busy: false,
                foreigner_buf: Vec::new(),
                completed_buf: 0,
            },
            caches,
            pwb: Pwb::new(0, 1, 4),
            foreign: ForeignStore::default(),
            current_partition: 0,
            pending_loads: std::collections::HashMap::new(),
            relaxed_pick: false,
            scratch: Vec::new(),
            loaded_scratch: Vec::new(),
            pools: (0..geometry.channels as usize + 1)
                .map(|_| Pools::default())
                .collect(),
            total_walks: 0,
            completed: 0,
            next_lpn: 0,
            stats: FwStats::default(),
            progress: TimeSeries::new(1_000_000), // placeholder; set in run
            trace_window_ns: 1_000_000,
            walk_log: None,
            tracer: Tracer::disabled(),
            shard_tracers: (0..geometry.channels as usize + 1)
                .map(|_| Tracer::disabled())
                .collect(),
            journeys: JourneyRecorder::disabled(),
            shard_journeys: (0..geometry.channels as usize + 1)
                .map(|_| JourneyRecorder::disabled())
                .collect(),
            critical: CriticalRecorder::disabled(),
            shard_criticals: (0..geometry.channels as usize + 1)
                .map(|_| CriticalRecorder::disabled())
                .collect(),
            crit_cause: None,
        }
    }

    /// Run with `n` workers. `1` (the default) is the sequential
    /// reference loop; more switch to window-driven execution over the
    /// sharded event streams. The committed event order — and therefore
    /// every report byte — is identical at any thread count.
    pub fn with_threads(mut self, n: u32) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Select the walk-RNG universe (default [`RngModel::Global`]).
    /// `Global` reproduces the monolithic reference byte-for-byte;
    /// `Sharded` samples batch-time walk decisions from per-lane
    /// jump-ahead streams — a *different but statistically equivalent*
    /// set of walk paths that is still byte-reproducible for a fixed seed
    /// at any thread count (DESIGN.md §14).
    pub fn with_rng(mut self, model: RngModel) -> Self {
        self.rng_model = model;
        self
    }

    /// Enable span-based tracing of the whole hierarchy: flash / channel /
    /// PCIe spans from the SSD, DRAM spans, and the accelerator batch
    /// spans (`chip.batch`, `chan.batch`, `board.batch`, `sg.load`), plus
    /// queue-depth gauges and walk-step latency. The derived
    /// [`fw_sim::TraceReport`] lands in [`FwReport::trace`].
    pub fn with_span_trace(mut self, cfg: TraceConfig) -> Self {
        self.tracer = Tracer::enabled(cfg);
        for t in &mut self.shard_tracers {
            *t = Tracer::enabled(cfg);
        }
        self.ssd.enable_span_trace(cfg);
        self.dram.enable_span_trace(cfg);
        self
    }

    /// Enable fault injection and recovery under `profile`. The injector
    /// draws from its own RNG stream (derived from the construction seed
    /// via [`derive_stream_seed`]), so walk paths are identical to a
    /// fault-free run — only timing, retry/requeue metrics and the
    /// recovery schedule change. Enabling [`FaultProfile::none`] is a
    /// no-op.
    pub fn with_faults(mut self, profile: FaultProfile) -> Self {
        self.faults = profile;
        self.ssd
            .enable_faults(profile, derive_stream_seed(self.seed, FAULT_STREAM));
        self
    }

    /// Enable walk-journey recording: a deterministic sample of walk ids
    /// (pure function of `cfg.seed` and the id) gets its full lifecycle —
    /// subgraph loads, NAND reads, ECC retries, sample batches, hops,
    /// enqueues — recorded with sim-time stamps. The derived
    /// [`fw_sim::JourneyReport`] lands in [`FwReport::journeys`].
    /// Zero-cost when not called; byte-deterministic at any thread count
    /// (events commit in the same order and the finish sort is canonical).
    pub fn with_journeys(mut self, cfg: JourneyConfig) -> Self {
        self.journeys = JourneyRecorder::enabled(cfg);
        for j in &mut self.shard_journeys {
            *j = JourneyRecorder::enabled(cfg);
        }
        self
    }

    /// Enable causal critical-path recording: every scheduled event
    /// becomes a dependency-log node (component, lane, busy interval,
    /// causing event), and the derived [`fw_sim::CriticalReport`] — whose
    /// path segments sum *exactly* to end-to-end sim time — lands in
    /// [`FwReport::critical`]. Zero-cost when not called; recording never
    /// touches sim state, so enabling it leaves every other report byte
    /// unchanged, and node ids are commit-order sequence numbers, so the
    /// report is byte-identical at any thread count.
    pub fn with_critical(mut self, cfg: CriticalConfig) -> Self {
        self.critical = CriticalRecorder::enabled(cfg);
        for c in &mut self.shard_criticals {
            *c = CriticalRecorder::enabled(cfg);
        }
        self
    }

    /// Set the Figure 8 trace window (default 1 ms).
    pub fn with_trace_window(mut self, window_ns: u64) -> Self {
        self.trace_window_ns = window_ns;
        self
    }

    /// Collect every completed walk into [`FwReport::walk_log`].
    ///
    /// Besides the figure binaries, this is the serving layer's hook:
    /// `fw-serve` runs every admitted batch with the walk log on and
    /// installs the endpoint distribution of cacheable (single-source)
    /// batches into its hot-source walk cache.
    pub fn with_walk_log(mut self) -> Self {
        self.walk_log = Some(Vec::new());
        self
    }

    fn log_completed(&mut self, w: fw_walk::Walk) {
        if let Some(log) = &mut self.walk_log {
            log.push(w);
        }
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn num_chips(&self) -> u32 {
        self.ssd.config().geometry.num_chips()
    }

    /// The current partition's static data.
    fn part(&self) -> &layout::PartLayout {
        &self.layout.parts[self.current_partition as usize]
    }

    fn chip_of_sg(&self, sg: SgId) -> u32 {
        self.layout.placements[sg as usize].chip
    }

    fn channel_of_chip(&self, chip: u32) -> u32 {
        chip / self.ssd.config().geometry.chips_per_channel
    }

    /// Shard ownership: a chip's events ride its channel's stream (walks
    /// leave a chip only over that channel's bus, so the stream carries
    /// every cross-chip interaction the chip can have between syncs).
    pub(super) fn shard_of_chip(&self, chip: u32) -> ShardId {
        ShardId(self.channel_of_chip(chip))
    }

    pub(super) fn shard_of_chan(&self, ch: u32) -> ShardId {
        ShardId(ch)
    }

    /// The board/PCIe shard: the last stream, after one per channel.
    pub(super) fn board_shard(&self) -> ShardId {
        ShardId(self.ssd.config().geometry.channels)
    }

    /// Schedule `ev` on `shard` at `at` and record the happens-before
    /// edge: a dependency-log node spanning `[start, at]` on the
    /// `(comp, lane)` resource, caused by the event being dispatched
    /// (`crit_cause`). The node id is the queue's commit-order gseq, and
    /// the node lands in the *target* shard's recorder — safe because
    /// both run loops dispatch handlers serially (the commit plane is
    /// serialized by design).
    fn sched_ev(
        &mut self,
        shard: ShardId,
        at: SimTime,
        ev: Ev,
        comp: &str,
        lane: u32,
        start: SimTime,
    ) {
        let cause = self.crit_cause;
        let id = self.events.schedule_at(shard, at, ev);
        self.shard_criticals[shard.index()].node(id, comp, lane, start, at, cause);
    }

    /// Conservative window lookahead: the fastest accelerator cycle. A
    /// committed event can only reach *another* shard through a scheduled
    /// batch at least one cycle out, so no cross-shard event can land
    /// inside the window that spawned it.
    fn window_lookahead(&self) -> fw_sim::Duration {
        self.cfg
            .chip_cycle
            .min(self.cfg.chan_cycle)
            .min(self.cfg.board_cycle)
            .max(fw_sim::Duration(1))
    }

    fn alloc_lpn(&mut self) -> Lpn {
        self.next_lpn += 1;
        self.next_lpn
    }

    /// Ground-truth destination of a walk (data correctness; timing for
    /// the lookup is charged separately by the timed structures), drawing
    /// any dense-slice pre-walk from the supplied generator. Batch
    /// handlers pass their lane's stream; init paths pass the root.
    fn true_dest_in(pg: &PartitionedGraph, v: fw_graph::VertexId, rng: &mut Xoshiro256pp) -> SgId {
        if let Some(meta) = pg.find_dense(v) {
            let meta = *meta;
            let cap = pg.config.dense_slice_edges();
            let (sg, _) = prewalk_slice(&meta, cap, rng);
            sg
        } else {
            pg.subgraph_of(v)
                .expect("every vertex belongs to a subgraph")
        }
    }

    /// [`Self::true_dest_in`] on the root RNG — the init/partition path,
    /// which draws identically in both RNG universes.
    fn true_dest(&mut self, v: fw_graph::VertexId) -> SgId {
        Self::true_dest_in(self.pg, v, &mut self.rng)
    }

    /// Borrow the walk RNG a batch on `lane` must draw from: the root
    /// generator in the global universe (moved out so helpers can take it
    /// alongside `&mut self`; the same object, so the draw order is
    /// untouched), the lane's own jump-ahead stream in the sharded one.
    /// Must be returned via [`Self::put_walk_rng`] before the handler
    /// yields.
    pub(super) fn take_walk_rng(&mut self, lane: usize) -> Xoshiro256pp {
        match self.rng_model {
            RngModel::Global => std::mem::replace(&mut self.rng, Xoshiro256pp::new(0)),
            RngModel::Sharded => self.lane_rngs.take(lane),
        }
    }

    /// Return a generator borrowed with [`Self::take_walk_rng`].
    pub(super) fn put_walk_rng(&mut self, lane: usize, rng: Xoshiro256pp) {
        match self.rng_model {
            RngModel::Global => self.rng = rng,
            RngModel::Sharded => self.lane_rngs.put(lane, rng),
        }
    }

    // ------------------------------------------------------------------
    // Top level
    // ------------------------------------------------------------------

    /// Deliver one committed event to its handler.
    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::ChipLoaded { chip, sg } => self.on_chip_loaded(chip, sg, now),
            Ev::ChipBatchDone { chip, outbox } => self.on_chip_batch_done(chip, outbox, now),
            Ev::ChanArrive { ch, mut walks } => {
                self.channels[ch as usize].inbox.append(&mut walks);
                let sh = self.shard_of_chan(ch).index();
                self.pools[sh].put_walks(walks);
                self.try_start_channel(ch, now);
            }
            Ev::ChanBatchDone { ch, to_board } => self.on_chan_batch_done(ch, to_board, now),
            Ev::BoardBatchDone {
                deliveries,
                dirty_chips,
            } => self.on_board_batch_done(deliveries, dirty_chips, now),
            Ev::ChipDeliver { chip, walks } => self.on_chip_deliver(chip, walks, now),
        }
    }

    /// All shards quiesced with work left: flush leftover foreigner-
    /// buffered walks, relax the load threshold for PWB stragglers, or
    /// switch to the next partition with work. This is a global barrier —
    /// every stream agrees the queue is empty before any refill.
    fn on_quiesce(&mut self) {
        let now = self.events.now();
        if !self.board.foreigner_buf.is_empty() {
            let walks = std::mem::take(&mut self.board.foreigner_buf);
            self.flush_foreign_page(walks, now, true);
        }
        if self.pwb.total_walks() > 0 {
            // Straggler tail: relax the load threshold and free any idle
            // slots so the scheduler can make progress, then refill.
            self.relaxed_pick = true;
            for chip in 0..self.num_chips() {
                for slot in &mut self.chips[chip as usize].slots {
                    if matches!(slot, Slot::Loaded { queue, .. } if queue.is_empty()) {
                        *slot = Slot::Empty;
                    }
                }
                self.maybe_fill_chip(chip, now);
            }
            assert!(
                !self.events.is_empty(),
                "stuck: PWB has {} walks but no chip can load \
                 (completed {}/{})",
                self.pwb.total_walks(),
                self.completed,
                self.total_walks
            );
            return;
        }
        let next = self.next_partition_with_work().unwrap_or_else(|| {
            panic!(
                "stuck: no partition has work but only {}/{} walks done",
                self.completed, self.total_walks
            )
        });
        self.stats.partition_switches += 1;
        self.setup_partition(next, now, true);
    }

    /// The sequential reference loop: pop the globally next event,
    /// dispatch, repeat. Kept as the ground truth the windowed path is
    /// tested against.
    fn run_loop_sequential(&mut self) {
        let mut guard: u64 = 0;
        while self.completed < self.total_walks {
            match self.events.pop() {
                Some((now, _shard, ev)) => {
                    // The popped event is the cause of everything its
                    // handler schedules. Quiesce keeps the last anchor:
                    // refills happen-after the event that drained the
                    // queue, keeping the dependency chain unbroken.
                    self.crit_cause = self.events.last_popped_seq();
                    self.dispatch(now, ev);
                }
                None => self.on_quiesce(),
            }
            guard += 1;
            assert!(
                guard < 500_000_000,
                "event guard tripped — runaway simulation"
            );
        }
    }

    /// Window-driven execution (`threads > 1`): events drain through
    /// conservative [`fw_sim::SyncWindow`]s — lookahead one accelerator
    /// cycle, the minimum cross-shard latency — with a [`ShardedClock`]
    /// auditing that no shard escapes the open window or travels
    /// backwards. Events *commit* in the same global (time, sequence)
    /// order as the sequential reference — walk sampling draws from one
    /// shared RNG stream, so the commit plane is serialized by design —
    /// which is what makes the two paths bit-identical; the per-shard
    /// planes (tracer lanes, pool free lists, fault streams) are the
    /// window-local state workers own between sync points.
    fn run_loop_windowed(&mut self) {
        let lookahead = self.window_lookahead();
        let mut clock = ShardedClock::new(self.events.num_shards());
        let mut guard: u64 = 0;
        while self.completed < self.total_walks {
            match self.events.next_window(lookahead) {
                Some(w) => {
                    clock.open_window(w);
                    while let Some((now, shard, ev)) = self.events.pop_within(w.end) {
                        clock.advance(shard, now);
                        self.crit_cause = self.events.last_popped_seq();
                        self.dispatch(now, ev);
                        guard += 1;
                        assert!(
                            guard < 500_000_000,
                            "event guard tripped — runaway simulation"
                        );
                        if self.completed >= self.total_walks {
                            return;
                        }
                    }
                    clock.close_window();
                }
                None => {
                    self.on_quiesce();
                    // The quiesce refill may legitimately schedule before
                    // the last window's end; the barrier re-founds the
                    // per-shard clocks.
                    clock = ShardedClock::new(self.events.num_shards());
                }
            }
        }
    }

    /// The sharded-RNG commit loop: within each conservative window,
    /// lanes drain *lane-major* — every in-window event of lane 0, then
    /// lane 1, and so on — with each lane's walk sampling drawn from its
    /// own jump-ahead stream. The cross-lane interleaving inside a window
    /// therefore stops mattering: each lane's draws depend only on its
    /// own event stream, so the run is byte-reproducible for a fixed seed
    /// at ANY thread count by construction, and a lane's drain is an
    /// independent unit of work the worker pool can commit concurrently.
    ///
    /// Soundness is the conservative-window argument: the lookahead is
    /// the minimum accelerator cycle, every handler schedules follow-ups
    /// at least one cycle out, and in-window events sit at `t >= w.start`
    /// — so nothing dispatched here can schedule into a drained lane's
    /// past (every follow-up lands at or beyond `w.end`).
    fn run_loop_sharded(&mut self) {
        let lookahead = self.window_lookahead();
        let num = self.events.num_shards();
        let mut guard: u64 = 0;
        while self.completed < self.total_walks {
            match self.events.next_window(lookahead) {
                Some(w) => {
                    for lane in 0..num {
                        let sh = ShardId(lane as u32);
                        while let Some((now, ev)) = self.events.pop_lane_within(sh, w.end) {
                            self.crit_cause = self.events.last_popped_seq();
                            self.dispatch(now, ev);
                            guard += 1;
                            assert!(
                                guard < 500_000_000,
                                "event guard tripped — runaway simulation"
                            );
                            if self.completed >= self.total_walks {
                                return;
                            }
                        }
                    }
                }
                None => self.on_quiesce(),
            }
        }
    }

    /// Run `wl` to completion and return the engine-specific report with
    /// the full per-level statistics. The unified view is
    /// [`WalkEngine::run`].
    pub fn run_detailed(mut self, wl: Workload) -> FwReport {
        self.wl = wl;
        self.total_walks = wl.num_walks;
        self.ssd.enable_trace(self.trace_window_ns);
        self.progress = TimeSeries::new(self.trace_window_ns);
        self.setup_partition(0, SimTime::ZERO, false);
        self.distribute_initial_walks();
        for chip in 0..self.num_chips() {
            self.maybe_fill_chip(chip, SimTime::ZERO);
        }

        if self.rng_model.is_sharded() {
            self.run_loop_sharded();
        } else if self.threads > 1 {
            self.run_loop_windowed();
        } else {
            self.run_loop_sequential();
        }

        let end = self.events.now();
        let horizon = SimTime::ZERO.max(end);
        let cfgp = *self.ssd.config();
        let s = *self.ssd.stats();
        // Deterministic merge of the per-shard lanes: shard order here is
        // fixed, and the canonical `Tracer::finish` is merge-order
        // independent anyway (asserted in fw-trace's shuffled-merge test).
        let shard_tracers = std::mem::take(&mut self.shard_tracers);
        for t in &shard_tracers {
            self.tracer.merge(t);
        }
        let ssd_tracer = self.ssd.take_tracer();
        let dram_tracer = self.dram.take_tracer();
        self.tracer.merge(&ssd_tracer);
        self.tracer.merge(&dram_tracer);
        let span_trace = self.tracer.finish(horizon);
        let shard_journeys = std::mem::take(&mut self.shard_journeys);
        for j in &shard_journeys {
            self.journeys.merge(j);
        }
        let journeys = std::mem::replace(&mut self.journeys, JourneyRecorder::disabled()).finish();
        let shard_criticals = std::mem::take(&mut self.shard_criticals);
        for c in &shard_criticals {
            self.critical.merge(c);
        }
        let critical =
            std::mem::replace(&mut self.critical, CriticalRecorder::disabled()).finish(horizon);
        let faults = self.faults.is_on().then(|| {
            let f = self.ssd.fault_stats();
            FaultSummary {
                read_retries: f.read_retries,
                recovered_reads: f.recovered_reads,
                hard_read_fails: f.hard_read_fails,
                program_retries: f.program_retries,
                chip_stalls: f.chip_stalls,
                channel_stalls: f.channel_stalls,
                stall_ns: f.stall_ns,
                retry_ns: f.retry_ns,
                stalled_loads: self.stats.stalled_loads,
                requeues: self.stats.load_requeues,
                degraded_ops: self.stats.degraded_loads,
            }
        });
        let trace = self.ssd.trace().expect("trace enabled");
        FwReport {
            time: end - SimTime::ZERO,
            walks: self.completed,
            stats: self.stats.clone(),
            flash_read_bytes: s.array_read_bytes(&cfgp),
            flash_write_bytes: s.array_write_bytes(&cfgp),
            channel_bytes: s.channel_bytes,
            read_bw: if end == SimTime::ZERO {
                0.0
            } else {
                s.array_read_bytes(&cfgp) as f64 / end.as_secs_f64()
            },
            channel_util: self.ssd.channel_utilization(horizon),
            channel_wait_ns: s.channel_wait_ns / s.channel_transfers.max(1),
            events: self.events.events_processed(),
            progress: self.progress.windows().to_vec(),
            read_bytes_series: trace.array_read.windows().to_vec(),
            write_bytes_series: trace.array_write.windows().to_vec(),
            channel_bytes_series: trace.channel.windows().to_vec(),
            trace_window_ns: self.trace_window_ns,
            walk_log: self.walk_log.unwrap_or_default(),
            trace: span_trace,
            faults,
            journeys,
            critical,
        }
    }
}

impl WalkEngine for FlashWalkerSim<'_> {
    fn name(&self) -> &'static str {
        "flashwalker"
    }

    fn run(self, workload: Workload) -> RunReport {
        self.run_detailed(workload).into()
    }
}
