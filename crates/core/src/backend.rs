//! The ObfusMem memory back end: functional crypto + timing, end to end.
//!
//! Implements [`MemoryBackend`] for the trace-driven core at every
//! security level (Figure 4's configurations share this one type):
//!
//! * **Unprotected** — requests go straight to the PCM device; the bus
//!   trace shows plaintext headers and data.
//! * **EncryptOnly** — data at rest is counter-mode encrypted; reads may
//!   pay a counter-cache miss (an extra memory access for the counter
//!   block); addresses still cross the bus in plaintext.
//! * **Obfuscate** — adds the full ObfusMem path: per-channel session
//!   crypto, paired dummies, inter-channel injection. The engines run
//!   *functionally* (real AES on real bytes) for every simulated request,
//!   so the recorded bus trace is genuine ciphertext.
//! * **ObfuscateAuth** — adds MAC generation/verification latency per the
//!   configured scheme.

use obfusmem_cache::cache::CacheOp;
use obfusmem_cpu::core::MemoryBackend;
use obfusmem_mem::addr::{encode, DecodedAddr};
use obfusmem_mem::channel::Lane;
use obfusmem_mem::config::{BackendKind, MemConfig};
use obfusmem_mem::device::{AccessResult, PcmMemory};
use obfusmem_mem::request::{AccessKind, BlockAddr, BlockData, BLOCK_BYTES};
use obfusmem_obs::metrics::{MetricsNode, Observable};
use obfusmem_obs::trace::{TraceHandle, Track};
use obfusmem_sim::rng::SplitMix64;
use obfusmem_sim::time::{Duration, Time};

use crate::busmsg::{BusEvent, BusPacket, Direction, GroundTruth, RequestHeader};
use crate::channels::ChannelObfuscator;
use crate::config::{
    DummyAddressPolicy, MacScheme, ObfusMemConfig, PairingOrder, SecurityLevel, TimingMode,
    TypeHiding,
};
use crate::engine::{ObfuscatedPair, ProcessorEngine, FIXED_DUMMY_ADDR};
use crate::link::{obfuscate_for, receive_for, Delivery, DeliveryOutcome, FaultyLink, LinkStats};
use crate::memenc::MemoryEncryption;
use crate::memside::MemoryEngine;
use crate::recovery::{IntegrityFault, MigrationRecord, RecoveryController};
use crate::session::{ChannelSession, SessionKeyTable};
use crate::tap::BusTapHandle;
use crate::ObfusMemError;

/// Counter-cache hit latency: 5 cycles at 2 GHz (Table 2).
const COUNTER_CACHE_HIT: Duration = Duration::from_ps(2500);

/// Block-retirement attempts before a confined fault is reclassified as
/// wide damage and escalated to bank quarantine. A retirement landing on
/// another bad slot is rare (the spare cursor moves monotonically), so a
/// streak this long is stronger evidence of a sick region than bad luck.
const MAX_RETIREMENTS: usize = 4;

/// Traffic and stall accounting for one run.
#[derive(Debug, Clone, Default)]
pub struct BackendStats {
    /// Demand fills serviced.
    pub real_reads: u64,
    /// Write-backs serviced.
    pub real_writes: u64,
    /// Paired (same-channel) dummies generated.
    pub paired_dummies: u64,
    /// Inter-channel dummy pairs injected (§3.4).
    pub channel_dummies: u64,
    /// Counter-cache misses (each cost an extra memory access).
    pub counter_misses: u64,
    /// Total pad-buffer stall time, ps.
    pub pad_stall_ps: u64,
    /// Dummy array writes performed (nonzero only for the
    /// original/random dummy-address ablations).
    pub dummy_array_writes: u64,
    /// Read pairs whose dummy-write slot carried a substituted real
    /// write-back (§3.3's bandwidth optimization).
    pub substituted_pairs: u64,
    /// Dirty counter blocks written back to memory.
    pub counter_writebacks: u64,
}

/// The configurable protected-memory back end.
pub struct ObfusMemBackend {
    cfg: ObfusMemConfig,
    mem: PcmMemory,
    memenc: MemoryEncryption,
    proc: ProcessorEngine,
    mem_engines: Vec<MemoryEngine>,
    chan_obf: ChannelObfuscator,
    stats: BackendStats,
    rng: SplitMix64,
    /// Write-backs waiting for a read to ride with (substitution mode).
    pending_writes: std::collections::VecDeque<BlockAddr>,
    /// Fault-injecting link + recovery protocol. `None` when the fault
    /// plan is all-zero: the engines then talk directly and every code
    /// path is byte-identical to the pre-link backend.
    link: Option<FaultyLink>,
    /// Device-fault recovery controller (retry → resync → bank
    /// quarantine + spare remap). `None` when the device fault plan is
    /// all-zero: reads then skip the ladder entirely and stay
    /// byte-identical to pre-recovery builds.
    recovery: Option<RecoveryController>,
    /// Session-plane steering: `steer[home]` is the channel whose
    /// engines carry `home`'s traffic. Identity until a quarantine
    /// re-steers a channel's traffic onto a healthy one.
    steer: Vec<usize>,
    /// Simulated-time span recorder. Disabled by default; recording is
    /// passive (spans reuse times the timing model already computed),
    /// so traced and untraced runs are bit-identical.
    obs: TraceHandle,
    /// Streaming bus-event tap (the leakage observatory). Disabled by
    /// default; when disabled, event construction is skipped entirely
    /// and runs are byte-identical to tap-less builds.
    tap: BusTapHandle,
}

impl std::fmt::Debug for ObfusMemBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObfusMemBackend")
            .field("security", &self.cfg.security)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl ObfusMemBackend {
    /// Builds a backend whose per-channel session keys are derived from
    /// `seed` (the fast path for performance runs; the examples show the
    /// full §3.1 bootstrap producing the same table).
    pub fn new(cfg: ObfusMemConfig, mem_cfg: MemConfig, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x0BF5_BACC_E11D_0001);
        let keys: Vec<([u8; 16], u64)> = (0..mem_cfg.channels)
            .map(|_| {
                let mut k = [0u8; 16];
                for chunk in k.chunks_mut(8) {
                    chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
                }
                (k, rng.next_u64())
            })
            .collect();
        Self::with_session_keys(cfg, mem_cfg, keys, rng.next_u64())
    }

    /// Builds a backend from explicitly established channel keys (e.g.
    /// from [`crate::trust::bootstrap_platform`]).
    pub fn with_session_keys(
        cfg: ObfusMemConfig,
        mem_cfg: MemConfig,
        keys: Vec<([u8; 16], u64)>,
        seed: u64,
    ) -> Self {
        assert_eq!(keys.len(), mem_cfg.channels, "one session key per channel");
        let mut rng = SplitMix64::new(seed);
        let proc = ProcessorEngine::new(cfg, SessionKeyTable::new(keys.clone()), rng.next_u64());
        let mem_engines = keys
            .iter()
            .map(|&(k, n)| MemoryEngine::new(cfg, ChannelSession::new(k, n), rng.next_u64()))
            .collect();
        let mut enc_key = [0u8; 16];
        for chunk in enc_key.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        let channels = mem_cfg.channels;
        let link = cfg
            .faults
            .is_active()
            .then(|| FaultyLink::new(cfg.link, cfg.faults, channels));
        let recovery = cfg
            .device_faults
            .is_active()
            .then(|| RecoveryController::new(cfg.recovery, mem_cfg.clone()));
        ObfusMemBackend {
            chan_obf: ChannelObfuscator::new(cfg.channel_strategy),
            cfg,
            mem: PcmMemory::new(mem_cfg).with_fault_plan(cfg.device_faults),
            memenc: MemoryEncryption::new(enc_key),
            proc,
            mem_engines,
            stats: BackendStats::default(),
            rng,
            pending_writes: std::collections::VecDeque::new(),
            link,
            recovery,
            steer: (0..channels).collect(),
            obs: TraceHandle::disabled(),
            tap: BusTapHandle::disabled(),
        }
    }

    /// Installs a span recorder for simulated-time tracing.
    pub fn set_trace_handle(&mut self, obs: TraceHandle) {
        self.obs = obs;
    }

    /// Installs the bus-event tap: the leakage observatory, or a
    /// [`crate::tap::CollectingTap`] for analyses that need the whole
    /// trace. Events flow to the tap as they are recorded.
    pub fn set_bus_tap(&mut self, tap: BusTapHandle) {
        self.tap = tap;
    }

    /// Whether bus events need to be constructed at all.
    fn tracing(&self) -> bool {
        self.tap.is_enabled()
    }

    /// Traffic statistics.
    pub fn stats(&self) -> &BackendStats {
        &self.stats
    }

    /// The underlying memory device (wear, energy, channel stats).
    pub fn memory(&self) -> &PcmMemory {
        &self.mem
    }

    /// The inter-channel obfuscator's counters.
    pub fn channel_obfuscator(&self) -> &ChannelObfuscator {
        &self.chan_obf
    }

    /// Counter-cache hit ratio so far.
    pub fn counter_cache_hit_ratio(&self) -> f64 {
        self.memenc.counter_cache_hit_ratio()
    }

    /// The configuration in force.
    pub fn config(&self) -> &ObfusMemConfig {
        &self.cfg
    }

    /// Link recovery counters, when the fault-injecting link is active.
    pub fn link_stats(&self) -> Option<&LinkStats> {
        self.link.as_ref().map(|l| l.stats())
    }

    /// The fault-injecting link itself (health/quarantine diagnostics).
    pub fn link(&self) -> Option<&FaultyLink> {
        self.link.as_ref()
    }

    /// The device-fault recovery controller, when the device fault plan
    /// is active (quarantine/remap/journal diagnostics).
    pub fn recovery(&self) -> Option<&RecoveryController> {
        self.recovery.as_ref()
    }

    /// Channels whose traffic was re-steered away from their home
    /// (nonzero only after a quarantine).
    pub fn resteered_channels(&self) -> usize {
        self.steer
            .iter()
            .enumerate()
            .filter(|&(h, &s)| h != s)
            .count()
    }

    /// True when every healthy channel's processor- and memory-side CTR
    /// counters agree — the shared-counter discipline re-converged
    /// after whatever faults the link injected and repaired.
    ///
    /// Quarantined channels are skipped: they are abandoned
    /// mid-escalation (counters frozen wherever the failure left them)
    /// and carry no traffic, so their divergence is expected.
    pub fn counters_converged(&self) -> bool {
        (0..self.mem_engines.len()).all(|ch| {
            if self.link.as_ref().is_some_and(|l| l.is_quarantined(ch)) {
                return true;
            }
            self.proc
                .counter(ch)
                .map(|c| c == self.mem_engines[ch].counter())
                .unwrap_or(false)
        })
    }

    /// Snapshots every counter in the backend — obfuscation engine,
    /// crypto plane, memory device, and (when active) the
    /// fault-injecting link — into one deterministic metrics tree.
    pub fn observe_metrics(&self, out: &mut MetricsNode) {
        let engine = out.child("engine");
        engine.set_counter("real_reads", self.stats.real_reads);
        engine.set_counter("real_writes", self.stats.real_writes);
        engine.set_counter("paired_dummies", self.stats.paired_dummies);
        engine.set_counter("channel_dummies", self.stats.channel_dummies);
        engine.set_counter("substituted_pairs", self.stats.substituted_pairs);
        engine.set_counter("dummy_array_writes", self.stats.dummy_array_writes);
        engine.set_counter("resteered_channels", self.resteered_channels() as u64);
        let crypto = out.child("crypto");
        crypto.set_counter("pad_stall_ps", self.stats.pad_stall_ps);
        crypto.set_counter("counter_misses", self.stats.counter_misses);
        crypto.set_counter("counter_writebacks", self.stats.counter_writebacks);
        crypto.set_gauge("counter_cache_hit_ratio", self.counter_cache_hit_ratio());
        self.mem.observe(out.child("mem"));
        if let Some(link) = &self.link {
            let node = out.child("link");
            link.observe(node);
            node.set_counter("counters_converged", self.counters_converged() as u64);
        }
        if let Some(rc) = &self.recovery {
            rc.observe(out.child("recovery"));
        }
    }

    /// The bank-level track an address's array accesses land on. Bank
    /// indices are flattened rank-major to match
    /// [`PcmMemory::bank_stats`].
    fn bank_track(&self, addr: u64) -> Track {
        let d = self.mem.decode(addr);
        Track::Bank {
            channel: d.channel,
            bank: d.rank * self.mem.config().banks_per_rank + d.bank,
        }
    }

    /// The session-plane channel that carries `home`'s traffic.
    fn route(&self, home: usize) -> usize {
        self.steer[home]
    }

    /// Delivery stage: carries one request to the memory side. With the
    /// fault-injecting link active the delivery runs the full recovery
    /// protocol, re-steering and re-issuing on quarantine; otherwise the
    /// engines talk directly. Returns the channel that finally carried
    /// the request plus the delivery outcome.
    ///
    /// Termination: each quarantine shrinks the healthy set, and the last
    /// healthy channel refuses quarantine, so the loop is bounded by the
    /// channel count.
    fn deliver(
        &mut self,
        at: Time,
        home: usize,
        delivery: Delivery<'_>,
    ) -> Result<(usize, DeliveryOutcome), ObfusMemError> {
        let mut ch = self.route(home);
        loop {
            let Some(link) = self.link.as_mut() else {
                let pair = obfuscate_for(&mut self.proc, at, ch, delivery)?;
                let (decoded, companion) =
                    receive_for(&mut self.mem_engines[ch], delivery, &pair.real, &pair.dummy)?;
                let out = DeliveryOutcome {
                    pair,
                    decoded,
                    companion,
                    delay: Duration::ZERO,
                };
                return Ok((ch, out));
            };
            match link.deliver(at, ch, &mut self.proc, &mut self.mem_engines[ch], delivery) {
                Ok(out) => return Ok((ch, out)),
                Err(e @ ObfusMemError::ChannelQuarantined { .. }) => {
                    let Some(healthy) = link.first_healthy() else {
                        return Err(e);
                    };
                    for slot in self.steer.iter_mut() {
                        if link.is_quarantined(*slot) {
                            *slot = healthy;
                        }
                    }
                    ch = self.steer[home];
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Latency one side adds to a packet it encrypts or decrypts: the
    /// XOR stage plus, when authenticating, the MAC per the scheme.
    fn side_latency(&self) -> Duration {
        let l = &self.cfg.latencies;
        let mac = match (self.cfg.security.authenticates(), self.cfg.mac_scheme) {
            (false, _) => Duration::ZERO,
            (true, MacScheme::EncryptAndMac) => l.mac_overlapped_residual,
            (true, MacScheme::EncryptThenMac) => l.mac_serialized,
        };
        l.xor + mac
    }

    /// Rounds an issue time up to the next timing slot when the §6.2
    /// fixed-cadence mode is active; identity otherwise.
    fn align_to_slot(&self, t: Time) -> Time {
        match self.cfg.timing {
            TimingMode::AsReady => t,
            TimingMode::FixedSlots => {
                let slot = crate::config::TIMING_SLOT.as_ps();
                let rem = t.as_ps() % slot;
                if rem == 0 {
                    t
                } else {
                    Time::from_ps(t.as_ps() + slot - rem)
                }
            }
        }
    }

    /// Resolves the counter for `addr`: returns when the decryption *pad*
    /// is available. On a counter-cache hit the pad was pregenerated in
    /// parallel with the data fetch and only the XOR remains (§2.4). On a
    /// miss the counter block must be fetched from memory first and the
    /// AES pipeline can only then start filling — the pad arrives a full
    /// pipeline latency after the counter does.
    fn counter_ready(&mut self, at: Time, addr: u64) -> Time {
        self.counter_ready_op(at, addr, CacheOp::Read)
    }

    fn counter_ready_op(&mut self, at: Time, addr: u64, op: CacheOp) -> Time {
        let lookup = self.memenc.lookup_counter_op(addr, op);
        if let Some(victim) = lookup.victim_writeback {
            // Dirty counter block spills to memory: posted write traffic.
            self.mem.access_posted(at, victim, AccessKind::Write);
            self.stats.counter_writebacks += 1;
        }
        if lookup.hit {
            at + COUNTER_CACHE_HIT
        } else {
            self.stats.counter_misses += 1;
            let fetched = self
                .mem
                .access(at, lookup.counter_block_addr, AccessKind::Read)
                .complete_at;
            fetched + self.cfg.latencies.aes_fill
        }
    }

    /// Services the paired dummy's *array* consequences (§3.3): fixed
    /// dummies were dropped at the memory side (their wire time is already
    /// charged with the request packets); original/random dummies reach
    /// the array — and wear it when the dummy is a write.
    fn service_paired_dummy(&mut self, at: Time, dummy: &RequestHeader) {
        self.stats.paired_dummies += 1;
        match self.cfg.dummy_policy {
            DummyAddressPolicy::Fixed => {}
            DummyAddressPolicy::Original | DummyAddressPolicy::Random => {
                self.mem.access_posted(at, dummy.addr, dummy.kind);
                if dummy.kind == AccessKind::Write {
                    self.stats.dummy_array_writes += 1;
                }
            }
        }
    }

    /// Issues an array write nobody on the critical path waits for.
    ///
    /// Under the reservation backend the write completes synchronously
    /// and its [`AccessResult`] feeds the observability span — byte-for-
    /// byte the historical behavior. Under the queued backend the write
    /// is posted into the per-channel FR-FCFS controller where demand
    /// reads may jump it; its completion time is unknown at issue, so no
    /// span can be recorded (tracing must never change timing).
    fn post_array_write(&mut self, at: Time, addr: u64) -> Option<AccessResult> {
        match self.mem.config().backend {
            BackendKind::Reservation => Some(self.mem.access(at, addr, AccessKind::Write)),
            BackendKind::Queued => {
                self.mem.access_posted(at, addr, AccessKind::Write);
                None
            }
        }
    }

    /// Flushes writes still parked in the queued controller. A no-op for
    /// the reservation backend. [`crate::system::System`] calls this after
    /// the trace-driven core retires so the wear/energy/stat totals cover
    /// every posted write.
    pub fn drain_posted(&mut self) {
        self.mem.drain_queued();
    }

    /// Cross-channel injection (§3.4): dummy pairs are always of the
    /// droppable fixed-address kind. Each pair costs its wire bytes on the
    /// target channel (read packet + write packet + random-data reply).
    fn inject_channels(&mut self, at: Time, real_channel: usize) -> Result<(), ObfusMemError> {
        for ch in 0..self.mem.config().channels {
            // Quarantined channels carry no traffic, dummies included.
            // Injecting on one channel never changes another's idleness,
            // so asking channel by channel sees the same state as a
            // snapshot of every channel taken up front.
            let healthy = self.link.as_ref().is_none_or(|l| !l.is_quarantined(ch));
            let idle = self.mem.channel_idle_at(ch, at);
            if !self.chan_obf.plan(real_channel, ch, idle, healthy) {
                continue;
            }
            self.stats.channel_dummies += 1;
            // 24 B dummy-read packet + 88 B dummy-write packet out;
            // 72 B random reply for the dummy read back.
            self.mem.bus_transfer_bytes(at, ch, 24 + 88, Lane::Request);
            self.mem.bus_transfer_bytes(at, ch, 72, Lane::Response);
            if self.tracing() {
                self.record_injected_dummy(at, ch)?;
            }
        }
        Ok(())
    }

    /// Runs an injected dummy pair through the engines so the recorded
    /// trace carries genuine ciphertext. Injected dummies bypass the
    /// fault-injecting link: campaigns target demand traffic, and the
    /// health-aware planner never injects on a quarantined channel, so
    /// the engines stay synchronized on this direct path.
    fn record_injected_dummy(&mut self, at: Time, channel: usize) -> Result<(), ObfusMemError> {
        let header = RequestHeader {
            kind: AccessKind::Read,
            addr: FIXED_DUMMY_ADDR,
        };
        let pair = self.proc.obfuscate(at, channel, header, None)?;
        self.mem_engines[channel].receive_pair(&pair.real, &pair.dummy)?;
        for (packet, kind) in [
            (pair.real, AccessKind::Read),
            (pair.dummy, AccessKind::Write),
        ] {
            self.tap.deliver(&BusEvent {
                at,
                channel,
                direction: Direction::ToMemory,
                packet,
                truth: GroundTruth {
                    real: false,
                    kind,
                    addr: FIXED_DUMMY_ADDR,
                },
            });
        }
        Ok(())
    }

    /// Plaintext-bus trace events for the unprotected/encrypt-only levels.
    fn record_plain(
        &self,
        at: Time,
        channel: usize,
        header: RequestHeader,
        data: Option<BlockData>,
    ) {
        if !self.tracing() {
            return;
        }
        let packet = BusPacket {
            header_ct: header.to_bytes(), // plaintext on the wire
            data_ct: data,
            tag: None,
        };
        self.tap.deliver(&BusEvent {
            at,
            channel,
            direction: Direction::ToMemory,
            packet,
            truth: GroundTruth {
                real: true,
                kind: header.kind,
                addr: header.addr,
            },
        });
    }

    /// Functional store read through the device-fault recovery ladder.
    ///
    /// With recovery inactive this is exactly `read_block` (byte- and
    /// state-identical to pre-recovery builds). With it active, the
    /// demand readout goes through the fault overlay and is checked
    /// against the block's expected at-rest digest; a mismatch raises a
    /// typed [`IntegrityFault`] and runs the ladder. Returns the
    /// recovered bytes plus the simulated recovery time that extends the
    /// fill's critical path (zero on clean reads).
    fn load_block(&mut self, addr: BlockAddr) -> (BlockData, Duration) {
        // The controller is moved out for the ladder's duration so every
        // rung can use it alongside the device and the crypto plane.
        let Some(mut rc) = self.recovery.take() else {
            return (self.mem.read_block(addr), Duration::ZERO);
        };
        let out = self.load_checked(&mut rc, addr);
        self.recovery = Some(rc);
        out
    }

    fn load_checked(
        &mut self,
        rc: &mut RecoveryController,
        addr: BlockAddr,
    ) -> (BlockData, Duration) {
        let logical = addr.as_u64();
        if rc.is_degraded(logical) {
            // Already declared unrecoverable: serve the corrected
            // readout directly. Re-entering the ladder would re-detect
            // the same permanent fault and re-pay retries + resync on
            // every access while inflating the counters.
            let phys = rc.remap_mut().translate(logical).unwrap_or(logical);
            return (
                self.mem.read_block(BlockAddr::containing(phys)),
                Duration::ZERO,
            );
        }
        let phys = match rc.remap_mut().translate(logical) {
            Ok(p) => p,
            Err(_) => {
                // Spare region exhausted: the untranslated slot sits in
                // a quarantined bank, so the demand path can never
                // verify again. Degrade this block permanently and
                // serve the corrected readout.
                rc.mark_degraded(logical);
                return (
                    self.mem.read_block(BlockAddr::containing(logical)),
                    Duration::ZERO,
                );
            }
        };
        let phys_addr = BlockAddr::containing(phys);
        let (data, observed) = self.mem.read_block_faulty(phys_addr);
        // The corrected (ECC-margin) readout is the detection oracle and
        // recovery ground truth: the integrity substrate (counters +
        // Merkle roots, modeled as per-block digests) says what the
        // array *should* hold.
        let corrected = self.mem.read_block(phys_addr);
        if rc.verify(logical, &data, &corrected) {
            return (data, Duration::ZERO);
        }
        let fault = IntegrityFault {
            addr: logical,
            phys,
            flat_bank: self.flat_bank(phys),
            observed,
        };
        self.recover(rc, fault, corrected)
    }

    /// The flattened bank index a physical address decodes to.
    fn flat_bank(&self, phys: u64) -> u64 {
        self.mem.decode(phys).flat_bank(self.mem.config()) as u64
    }

    /// Runs the recovery ladder for a detected [`IntegrityFault`]:
    /// bounded re-reads with exponential simulated-time backoff (heals
    /// transients), escalation to a counter/Merkle resync, and — for
    /// persistent faults — bank quarantine with re-encrypt-and-migrate
    /// of the surviving blocks (cascading across banks when a spare
    /// slot turns out to be dead too). Unrecoverable faults degrade to the
    /// corrected readout (the run continues, mirroring the link layer's
    /// `force_clean`) and bump `unrecovered`.
    fn recover(
        &mut self,
        rc: &mut RecoveryController,
        fault: IntegrityFault,
        corrected: BlockData,
    ) -> (BlockData, Duration) {
        let phys_addr = BlockAddr::containing(fault.phys);
        let cfg = *rc.cfg();
        rc.stats.detected += 1;
        let mut delay = Duration::ZERO;
        // Phase 1: re-read with backoff. Transient flips redraw per read
        // and clear; persistent corruption reads back identically.
        for attempt in 0..cfg.max_retries {
            delay += cfg.retry_delay(attempt);
            rc.stats.retried += 1;
            let (again, _) = self.mem.read_block_faulty(phys_addr);
            if rc.verify(fault.addr, &again, &corrected) {
                return (again, delay);
            }
        }
        // Phase 2: counter/Merkle resync (the link layer's escalation
        // applied to the at-rest tree): rebuild the block's trust state
        // from the corrected readout, then probe the demand path once
        // more.
        delay += cfg.resync_latency;
        rc.stats.resynced += 1;
        let (probe, _) = self.mem.read_block_faulty(phys_addr);
        if rc.verify(fault.addr, &probe, &corrected) {
            return (probe, delay);
        }
        // Phase 2b: classify the damage radius before reaching for the
        // bank fuse. Two neighbourhood probes — the next column of the
        // same row and the next row of the same bank — distinguish a
        // fault confined to the demand block (a stuck cell: retire just
        // that slot to a spare) from row/bank-scale damage (quarantine).
        // Without this rung, high stuck-cell rates fuse out bank after
        // bank until none remain.
        if !self.neighborhood_corrupt(fault.phys) {
            let mut from = fault.phys;
            for _ in 0..MAX_RETIREMENTS {
                let Ok(to) = rc.remap_mut().retarget(fault.addr) else {
                    rc.mark_degraded(fault.addr);
                    return (corrected, delay);
                };
                // Same journaled re-encrypt discipline as a cohort
                // migration: the spare never reuses the dead slot's pad.
                let moved = self.reencrypt(fault.addr, corrected);
                rc.note_write(fault.addr, &moved);
                rc.record_migration(MigrationRecord {
                    logical: fault.addr,
                    from,
                    to,
                });
                self.mem.write_block(BlockAddr::containing(to), moved);
                // Evacuate the retired slot: a stale copy would be
                // re-enumerated by a later quarantine of its bank.
                self.mem.remove_block(BlockAddr::containing(from));
                delay += cfg.migrate_per_block;
                let (data, _) = self.mem.read_block_faulty(BlockAddr::containing(to));
                if rc.verify(fault.addr, &data, &moved) {
                    return (data, delay);
                }
                from = to;
            }
            // Several spare slots in a row read corrupt: treat it as
            // wide damage after all and fall through to quarantine.
        }
        // Phase 3: persistent fault — fuse out the bank and migrate its
        // surviving blocks to spare slots. A spare slot can itself sit
        // in a bank that is dead but not yet discovered, so the
        // quarantine cascades: each failed post-migration probe fuses
        // out the spare's bank too, until the block verifies from a
        // healthy slot or no healthy bank remains. The loop terminates
        // because every iteration quarantines a distinct bank (the
        // remap only hands out slots in non-quarantined banks) and the
        // remap refuses to quarantine the last healthy one.
        let mut bad_bank = fault.flat_bank;
        loop {
            let Some(migrated) = self.quarantine_and_migrate(rc, bad_bank) else {
                // Last healthy bank (or spare region exhausted): degrade
                // this block to direct corrected readouts and keep
                // serving. The fault is persistent (it survived retries
                // and a resync), so re-running the ladder on later
                // accesses could only repeat this refusal.
                rc.mark_degraded(fault.addr);
                return (corrected, delay);
            };
            delay = delay
                + cfg.quarantine_latency
                + Duration::from_ps(cfg.migrate_per_block.as_ps() * migrated as u64);
            // Re-read through the new mapping.
            let Ok(newphys) = rc.remap_mut().translate(fault.addr) else {
                rc.mark_degraded(fault.addr);
                return (corrected, delay);
            };
            let new_addr = BlockAddr::containing(newphys);
            let (data, _) = self.mem.read_block_faulty(new_addr);
            let moved = self.mem.read_block(new_addr);
            if rc.verify(fault.addr, &data, &moved) {
                return (data, delay);
            }
            bad_bank = self.flat_bank(newphys);
        }
    }

    /// Re-encrypts a block's corrected readout under its logical address
    /// with a fresh counter bump (identity when memory is unencrypted),
    /// so a migrated block never reuses the dead slot's pad stream.
    fn reencrypt(&mut self, logical: u64, corrected: BlockData) -> BlockData {
        if !self.cfg.security.encrypts_memory() {
            return corrected;
        }
        let plaintext = self.memenc.decrypt_block(logical, &corrected);
        self.memenc.encrypt_block(logical, &plaintext).0
    }

    /// Probes the two nearest neighbours of `phys` — the next column of
    /// its row and the next row of its bank — and reports whether either
    /// reads corrupt. Corruption beyond the demand block itself is the
    /// ladder's evidence of row/bank-scale damage.
    fn neighborhood_corrupt(&mut self, phys: u64) -> bool {
        let cfg = self.mem.config().clone();
        let d = self.mem.decode(phys);
        let row_bytes = cfg.blocks_per_row() * BLOCK_BYTES as u64;
        let sibling = DecodedAddr {
            column: (d.column + BLOCK_BYTES as u64) % row_bytes,
            ..d
        };
        let next_row = DecodedAddr {
            row: (d.row + 1) % cfg.rows_per_bank(),
            ..d
        };
        [sibling, next_row].iter().any(|n| {
            let a = BlockAddr::containing(encode(&cfg, n));
            // A transient flip on the probe itself must not masquerade
            // as wide damage (it would escalate a confined stuck cell
            // straight to bank quarantine): transients redraw per read,
            // so only a corrupt readout that *repeats* counts.
            self.mem.read_block_faulty(a).1.is_some() && self.mem.read_block_faulty(a).1.is_some()
        })
    }

    /// Quarantines `flat_bank` and journals a re-encrypt-and-migrate of
    /// every surviving stored block: corrected readout → decrypt under
    /// the logical address → re-encrypt with a fresh counter bump →
    /// write to a spare slot in a healthy bank. Returns the number of
    /// blocks migrated, `Some(0)` when the bank was already fused out,
    /// or `None` when quarantine was refused (last healthy bank).
    fn quarantine_and_migrate(
        &mut self,
        rc: &mut RecoveryController,
        flat_bank: u64,
    ) -> Option<usize> {
        match rc.remap_mut().quarantine(flat_bank) {
            Ok(true) => rc.stats.quarantined += 1,
            Ok(false) => return Some(0),
            Err(_) => return None,
        }
        let victims: Vec<BlockAddr> = self
            .mem
            .stored_addrs()
            .into_iter()
            .filter(|a| self.flat_bank(a.as_u64()) == flat_bank)
            .collect();
        let mut migrated = 0usize;
        for phys in victims {
            let logical = rc.remap().logical_of(phys.as_u64());
            // Only migrate a block's *current* home. A stale identity
            // copy (left by a retirement before stale-slot evacuation
            // existed) would otherwise be mistaken for live data:
            // retarget() would drop the live logical→spare mapping and
            // the dead bytes would silently replace the block.
            if !rc.remap().is_current_home(phys.as_u64()) {
                self.mem.remove_block(phys);
                continue;
            }
            // The dead bank's demand path reads garbage; the corrected
            // (ECC-margin) readout recovers the true stored bytes.
            let moved = self.reencrypt(logical, self.mem.read_block(phys));
            let Ok(to) = rc.remap_mut().retarget(logical) else {
                rc.mark_degraded(logical);
                continue;
            };
            rc.note_write(logical, &moved);
            rc.record_migration(MigrationRecord {
                logical,
                from: phys.as_u64(),
                to,
            });
            self.mem.write_block(BlockAddr::containing(to), moved);
            self.mem.remove_block(phys);
            migrated += 1;
        }
        Some(migrated)
    }

    /// Functional store write through the quarantine remap (identity
    /// when recovery is inactive), keeping the at-rest digest current.
    fn store_block(&mut self, addr: BlockAddr, data: BlockData) {
        match &mut self.recovery {
            None => self.mem.write_block(addr, data),
            Some(rc) => {
                let logical = addr.as_u64();
                let phys = match rc.remap_mut().translate(logical) {
                    Ok(p) => p,
                    Err(_) => {
                        rc.stats.unrecovered += 1;
                        logical
                    }
                };
                rc.note_write(logical, &data);
                self.mem.write_block(BlockAddr::containing(phys), data);
            }
        }
    }

    /// Ladder-free translated read of the current stored bytes (trace
    /// bookkeeping only — never advances the fault overlay).
    fn peek_block(&mut self, addr: BlockAddr) -> BlockData {
        match &mut self.recovery {
            None => self.mem.read_block(addr),
            Some(rc) => {
                let phys = rc
                    .remap_mut()
                    .translate(addr.as_u64())
                    .unwrap_or(addr.as_u64());
                self.mem.read_block(BlockAddr::containing(phys))
            }
        }
    }

    /// Write preparation: memory-encrypts the (synthetic) dirty data for
    /// `addr`, bumping its counter, and dirties the counter block with a
    /// write-op lookup. Returns the at-rest ciphertext.
    fn prepare_write(&mut self, at: Time, addr: BlockAddr) -> BlockData {
        let plaintext = synth_block(&mut self.rng);
        let (at_rest, _) = self.memenc.encrypt_block(addr.as_u64(), &plaintext);
        let _ = self.counter_ready_op(at, addr.as_u64(), CacheOp::Write);
        at_rest
    }

    /// Serves an obfuscated request. The pipeline only fails on a broken
    /// invariant (an invalid channel or desynchronized engines), so an
    /// error here is a bug, not a simulated outcome.
    fn obfuscated(&mut self, at: Time, kind: AccessKind, addr: BlockAddr) -> Time {
        self.dispatch(at, kind, addr)
            .expect("obfuscated request on a valid, synchronized channel")
    }

    /// Picks the request's §3.3 shape. Under substitution a write-back is
    /// parked to ride in the dummy slot of a later read on its channel,
    /// and overflow services the oldest parked write normally.
    fn dispatch(
        &mut self,
        at: Time,
        kind: AccessKind,
        addr: BlockAddr,
    ) -> Result<Time, ObfusMemError> {
        if self.cfg.type_hiding != TypeHiding::SplitDummyWithSubstitution {
            return self.own_request(at, kind, addr);
        }
        if kind == AccessKind::Write {
            let overflow = if self.pending_writes.len() >= MAX_PENDING_WRITES {
                self.pending_writes.pop_front()
            } else {
                None
            };
            if let Some(oldest) = overflow {
                self.own_request(at, AccessKind::Write, oldest)?;
            }
            self.pending_writes.push_back(addr);
            return Ok(at);
        }
        let channel = self.mem.decode(addr.as_u64()).channel;
        let parked = self
            .pending_writes
            .iter()
            .position(|wb| self.mem.decode(wb.as_u64()).channel == channel)
            .and_then(|pos| self.pending_writes.remove(pos));
        let Some(wb) = parked else {
            return self.own_request(at, kind, addr);
        };
        let data = self.prepare_write(at, wb);
        self.stats.substituted_pairs += 1;
        self.stats.real_writes += 1; // the parked write is serviced here
        let delivery = Delivery::Substituted {
            read: RequestHeader {
                kind: AccessKind::Read,
                addr: addr.as_u64(),
            },
            write: RequestHeader {
                kind: AccessKind::Write,
                addr: wb.as_u64(),
            },
            data: &data,
        };
        self.pipeline(at, delivery)
    }

    /// Runs `addr`'s own request as a paired (or, under type hiding by
    /// uniform packets, single) delivery.
    fn own_request(
        &mut self,
        at: Time,
        kind: AccessKind,
        addr: BlockAddr,
    ) -> Result<Time, ObfusMemError> {
        let header = RequestHeader {
            kind,
            addr: addr.as_u64(),
        };
        let data = (kind == AccessKind::Write).then(|| self.prepare_write(at, addr));
        let data = data.as_ref();
        let delivery = match self.cfg.type_hiding {
            TypeHiding::UniformPackets => Delivery::Uniform { header, data },
            _ => Delivery::Pair { header, data },
        };
        self.pipeline(at, delivery)
    }

    /// The request pipeline (DESIGN.md §10): one obfuscated request in
    /// any §3.3 shape, through delivery, functional service, bus events,
    /// wire timing and array service, spans, and the fill time. Returns
    /// a read's fill time; a write, which nothing waits on, returns when
    /// its array service completes.
    fn pipeline(&mut self, at: Time, delivery: Delivery<'_>) -> Result<Time, ObfusMemError> {
        let (header, substituted) = match delivery {
            Delivery::Pair { header, .. } | Delivery::Uniform { header, .. } => (header, None),
            Delivery::Substituted { read, write, .. } => (read, Some(write)),
        };
        let addr = header.addr;
        let is_read = header.kind == AccessKind::Read;
        let (packets, write_reply_bytes) = wire_shape(delivery);

        let home = self.mem.decode(addr).channel;
        let (channel, out) = self.deliver(at, home, delivery)?;
        let DeliveryOutcome {
            pair,
            decoded,
            companion,
            delay: req_delay,
        } = out;
        debug_assert_eq!(decoded.header, header);
        self.stats.pad_stall_ps += pair.pad_stall_ps;
        // The processor side also waits out any pad-buffer stall; the
        // memory side verifies and decrypts before servicing.
        let mem_lat = self.side_latency();
        let proc_lat = mem_lat + Duration::from_ps(pair.pad_stall_ps);

        // Functional service: the memory side stores what it decoded (a
        // write, or the write riding in a read's dummy slot), then a read
        // loads its block and replies.
        if let Some(data) = decoded.data {
            self.store_block(BlockAddr::containing(addr), data);
        }
        if let Some(write) = substituted {
            let data = companion.and_then(|c| c.data).ok_or_else(|| {
                ObfusMemError::MalformedPacket("substituted write did not surface".into())
            })?;
            self.store_block(BlockAddr::containing(write.addr), data);
        }
        let reply = if is_read {
            Some(self.reply(at, channel, addr, &pair, decoded.base_counter)?)
        } else {
            None
        };

        // Link recovery delays a write's arrival on the wire; a read's
        // recovery extends its fill instead.
        let aligned = self.align_to_slot(at + proc_lat);
        let send_at = if is_read {
            aligned
        } else {
            aligned + req_delay
        };

        if self.tracing() {
            // Events are stamped with the wire time (what probes observe).
            let truth = GroundTruth {
                real: true,
                kind: header.kind,
                addr,
            };
            let companion_truth = match substituted {
                Some(write) => GroundTruth {
                    real: true,
                    kind: AccessKind::Write,
                    addr: write.addr,
                },
                None => GroundTruth {
                    real: false,
                    kind: pair.dummy_header.kind,
                    addr: pair.dummy_header.addr,
                },
            };
            let requests = packets.iter().map(|slot| match slot {
                Slot::Real => (Direction::ToMemory, &pair.real, truth),
                Slot::Companion => (Direction::ToMemory, &pair.dummy, companion_truth),
            });
            let replies = reply
                .iter()
                .map(|r| (Direction::ToProcessor, &r.packet, truth));
            for (direction, packet, truth) in requests.chain(replies) {
                self.tap.deliver(&BusEvent {
                    at: send_at,
                    channel,
                    direction,
                    packet: packet.clone(),
                    truth,
                });
            }
        }

        // Wire timing: the request packets cross the request lane back to
        // back, and the array access waits for the real one. Under
        // write-then-read pairing (the rejected alternative) a read's
        // companion write transmits first, so the fill waits behind it.
        let mut wire = [Slot::Real; 2];
        let wire = &mut wire[..packets.len()];
        wire.copy_from_slice(packets);
        if is_read && self.cfg.pairing == PairingOrder::WriteThenRead {
            wire.reverse();
        }
        let (mut gate, mut companion_at, mut t) = (send_at, send_at, send_at);
        for &slot in wire.iter() {
            let bytes = slot.of(&pair).wire_bytes() as u64;
            t = self
                .mem
                .bus_transfer_bytes(t, channel, bytes, Lane::Request);
            match slot {
                Slot::Real => gate = t,
                Slot::Companion => companion_at = t + mem_lat,
            }
        }

        // Array service: the real request, then its companion, then the
        // cross-channel dummies (§3.4).
        let request_at = gate + mem_lat;
        let array = if is_read {
            Some(self.mem.access(request_at, addr, AccessKind::Read))
        } else {
            self.post_array_write(request_at, addr)
        };
        let companion_array = match delivery {
            Delivery::Pair { .. } => {
                self.service_paired_dummy(request_at, &pair.dummy_header);
                None
            }
            Delivery::Substituted { write, .. } => self.post_array_write(companion_at, write.addr),
            Delivery::Uniform { .. } => None,
        };
        self.inject_channels(request_at, channel)?;
        if self.obs.is_enabled() {
            self.obs.span(Track::Engine, "encrypt", at, at + proc_lat);
            if pair.pad_stall_ps > 0 {
                let stall = Duration::from_ps(pair.pad_stall_ps);
                self.obs.span(Track::Crypto, "pad-stall", at, at + stall);
            }
            if send_at > aligned {
                self.obs
                    .span(Track::Link(channel), "recovery", aligned, send_at);
            }
            self.obs
                .span(Track::Channel(channel), "request-wire", send_at, gate);
            if let Some(array) = array {
                let name = if is_read { "array-read" } else { "array-write" };
                self.obs
                    .span(self.bank_track(addr), name, request_at, array.complete_at);
            }
            if let (Some(array), Some(write)) = (companion_array, substituted) {
                let bank = self.bank_track(write.addr);
                self.obs
                    .span(bank, "array-write", companion_at, array.complete_at);
            }
        }
        let array_done = array.map_or(request_at, |a| a.complete_at);
        let Some(reply) = reply else {
            self.mem
                .bus_transfer_bytes(request_at, channel, write_reply_bytes, Lane::Response);
            return Ok(array_done);
        };

        // The reply's header/tag overhead rides back after the data burst.
        let reply_overhead = (reply.packet.wire_bytes() as u64).saturating_sub(64);
        let reply_done = if reply_overhead > 0 {
            self.mem
                .bus_transfer_bytes(array_done, channel, reply_overhead, Lane::Response)
        } else {
            array_done
        };
        let counter_done = self.counter_ready(at, addr);
        let fill_done = reply_done.max(counter_done) + self.cfg.latencies.xor + mem_lat;
        let link_delay = req_delay + reply.link_delay;
        if self.obs.is_enabled() {
            if reply_done > array_done {
                self.obs.span(
                    Track::Channel(channel),
                    "reply-wire",
                    array_done,
                    reply_done,
                );
            }
            if counter_done > at + COUNTER_CACHE_HIT {
                self.obs
                    .span(Track::Crypto, "counter-fetch", at, counter_done);
            }
            if link_delay > Duration::ZERO {
                self.obs.span(
                    Track::Link(channel),
                    "recovery",
                    fill_done,
                    fill_done + link_delay,
                );
            }
            if reply.dev_delay > Duration::ZERO {
                let bank = self.bank_track(addr);
                self.obs
                    .span(bank, "recovery", request_at, request_at + reply.dev_delay);
            }
        }
        // Link and device recovery time (retransmits, resyncs, re-keys,
        // re-reads, migrations) extends the fill's critical path; zero
        // on clean deliveries.
        Ok(fill_done + link_delay + reply.dev_delay)
    }

    /// Read service: loads the block through the recovery ladder, then
    /// runs the reply round trip (over the link when it is active).
    fn reply(
        &mut self,
        at: Time,
        channel: usize,
        addr: u64,
        pair: &ObfuscatedPair,
        base_counter: u64,
    ) -> Result<Reply, ObfusMemError> {
        let (at_rest, dev_delay) = self.load_block(BlockAddr::containing(addr));
        let packet = self.mem_engines[channel].encrypt_reply(base_counter, &at_rest);
        let (bus_data, link_delay) = match self.link.as_mut() {
            Some(link) => link.deliver_reply(
                at,
                channel,
                &self.proc,
                &self.mem_engines[channel],
                base_counter,
                &at_rest,
            )?,
            None => {
                let ct = packet.data_ct.as_ref().ok_or_else(|| {
                    ObfusMemError::MalformedPacket("reply is missing its data".into())
                })?;
                let data = self.proc.decrypt_reply(channel, pair.base_counter, ct)?;
                (data, Duration::ZERO)
            }
        };
        debug_assert_eq!(bus_data, at_rest, "bus round trip must be lossless");
        Ok(Reply {
            packet,
            link_delay,
            dev_delay,
        })
    }
}

/// Parked write-backs (substitution mode) before the oldest is serviced
/// in a pair of its own.
const MAX_PENDING_WRITES: usize = 8;

/// One request packet of an [`ObfuscatedPair`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// The real request.
    Real,
    /// The paired dummy, or the substituted write-back in its slot.
    Companion,
}

impl Slot {
    fn of(self, pair: &ObfuscatedPair) -> &BusPacket {
        match self {
            Slot::Real => &pair.real,
            Slot::Companion => &pair.dummy,
        }
    }
}

/// A delivery's bus shape (§3.3): its request packets in read-then-write
/// order, plus the response-lane bytes a write's reply occupies (the
/// dummy read's 72 B random-data reply, or the uniform scheme's
/// mandatory 88 B shape-matching reply; reads reply with their data).
fn wire_shape(delivery: Delivery<'_>) -> (&'static [Slot], u64) {
    match delivery {
        Delivery::Uniform { .. } => (&[Slot::Real], 88),
        Delivery::Pair { header, .. } if header.kind == AccessKind::Write => {
            (&[Slot::Companion, Slot::Real], 72)
        }
        Delivery::Pair { .. } | Delivery::Substituted { .. } => {
            (&[Slot::Real, Slot::Companion], 72)
        }
    }
}

/// What a read's service hands back to the pipeline.
struct Reply {
    /// The reply packet as it crosses the bus.
    packet: BusPacket,
    /// Link recovery time spent on the reply.
    link_delay: Duration,
    /// Device recovery time spent loading the block.
    dev_delay: Duration,
}

fn synth_block(rng: &mut SplitMix64) -> BlockData {
    let mut out = [0u8; 64];
    for chunk in out.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    out
}

impl MemoryBackend for ObfusMemBackend {
    fn read(&mut self, at: Time, addr: BlockAddr) -> Time {
        self.stats.real_reads += 1;
        match self.cfg.security {
            SecurityLevel::Unprotected => {
                self.record_plain(
                    at,
                    self.mem.decode(addr.as_u64()).channel,
                    RequestHeader {
                        kind: AccessKind::Read,
                        addr: addr.as_u64(),
                    },
                    None,
                );
                // The at-rest integrity check (modeled ECC) still runs
                // without encryption; zero cost when recovery is off.
                let (_at_rest, dev_delay) = self.load_block(addr);
                let array = self.mem.access(at, addr.as_u64(), AccessKind::Read);
                if self.obs.is_enabled() {
                    let bank = self.bank_track(addr.as_u64());
                    self.obs.span(bank, "array-read", at, array.complete_at);
                    if dev_delay.as_ps() > 0 {
                        self.obs.span(
                            bank,
                            "recovery",
                            array.complete_at,
                            array.complete_at + dev_delay,
                        );
                    }
                }
                array.complete_at + dev_delay
            }
            SecurityLevel::EncryptOnly => {
                self.record_plain(
                    at,
                    self.mem.decode(addr.as_u64()).channel,
                    RequestHeader {
                        kind: AccessKind::Read,
                        addr: addr.as_u64(),
                    },
                    None,
                );
                let (_at_rest, dev_delay) = self.load_block(addr);
                let array = self.mem.access(at, addr.as_u64(), AccessKind::Read);
                let counter_done = self.counter_ready(at, addr.as_u64());
                if self.obs.is_enabled() {
                    let bank = self.bank_track(addr.as_u64());
                    self.obs.span(bank, "array-read", at, array.complete_at);
                    if counter_done > at + COUNTER_CACHE_HIT {
                        self.obs
                            .span(Track::Crypto, "counter-fetch", at, counter_done);
                    }
                    if dev_delay.as_ps() > 0 {
                        self.obs.span(
                            bank,
                            "recovery",
                            array.complete_at,
                            array.complete_at + dev_delay,
                        );
                    }
                }
                array.complete_at.max(counter_done) + self.cfg.latencies.xor + dev_delay
            }
            SecurityLevel::Obfuscate | SecurityLevel::ObfuscateAuth => {
                self.obfuscated(at, AccessKind::Read, addr)
            }
        }
    }

    fn write(&mut self, at: Time, addr: BlockAddr) {
        self.stats.real_writes += 1;
        match self.cfg.security {
            SecurityLevel::Unprotected => {
                let current = self.peek_block(addr);
                self.record_plain(
                    at,
                    self.mem.decode(addr.as_u64()).channel,
                    RequestHeader {
                        kind: AccessKind::Write,
                        addr: addr.as_u64(),
                    },
                    Some(current),
                );
                let array = self.post_array_write(at, addr.as_u64());
                if let Some(array) = array.filter(|_| self.obs.is_enabled()) {
                    let bank = self.bank_track(addr.as_u64());
                    self.obs.span(bank, "array-write", at, array.complete_at);
                }
            }
            SecurityLevel::EncryptOnly => {
                let at_rest = self.prepare_write(at, addr);
                self.record_plain(
                    at,
                    self.mem.decode(addr.as_u64()).channel,
                    RequestHeader {
                        kind: AccessKind::Write,
                        addr: addr.as_u64(),
                    },
                    Some(at_rest),
                );
                self.store_block(addr, at_rest);
                let array = self.post_array_write(at, addr.as_u64());
                if let Some(array) = array.filter(|_| self.obs.is_enabled()) {
                    let bank = self.bank_track(addr.as_u64());
                    self.obs.span(bank, "array-write", at, array.complete_at);
                }
            }
            SecurityLevel::Obfuscate | SecurityLevel::ObfuscateAuth => {
                self.obfuscated(at, AccessKind::Write, addr);
            }
        }
    }

    fn label(&self) -> String {
        format!(
            "{} ({:?} channels)",
            self.cfg.security,
            self.mem.config().channels
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tap::CollectingTap;
    use obfusmem_testkit as proptest;

    fn backend(security: SecurityLevel) -> ObfusMemBackend {
        let cfg = ObfusMemConfig {
            security,
            ..ObfusMemConfig::paper_default()
        };
        ObfusMemBackend::new(cfg, MemConfig::table2(), 42)
    }

    #[test]
    fn unprotected_matches_raw_device_latency() {
        let mut b = backend(SecurityLevel::Unprotected);
        let done = b.read(Time::ZERO, BlockAddr::containing(0x40));
        assert_eq!(done.as_ps(), 78_750); // tRCD + tCL + tBURST
    }

    #[test]
    fn protection_levels_strictly_add_latency() {
        let addr = BlockAddr::containing(0x1_0000);
        let mut results = Vec::new();
        for level in [
            SecurityLevel::Unprotected,
            SecurityLevel::EncryptOnly,
            SecurityLevel::Obfuscate,
            SecurityLevel::ObfuscateAuth,
        ] {
            let mut b = backend(level);
            results.push((level, b.read(Time::ZERO, addr)));
        }
        for pair in results.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1,
                "{} ({}) should not beat {} ({})",
                pair[1].0,
                pair[1].1,
                pair[0].0,
                pair[0].1
            );
        }
    }

    #[test]
    fn obfuscated_reads_record_real_dummy_and_reply() {
        let mut b = backend(SecurityLevel::ObfuscateAuth);
        let tap = CollectingTap::default();
        b.set_bus_tap(tap.handle());
        b.read(Time::ZERO, BlockAddr::containing(0x40));
        let trace = tap.take();
        assert_eq!(trace.len(), 3);
        assert!(trace[0].truth.real);
        assert!(!trace[1].truth.real);
        assert_eq!(trace[2].direction, Direction::ToProcessor);
    }

    #[test]
    fn dummy_writes_do_not_wear_the_array() {
        let mut b = backend(SecurityLevel::ObfuscateAuth);
        let mut t = Time::ZERO;
        for i in 0..100u64 {
            t = b.read(t, BlockAddr::containing(i * 64));
        }
        assert_eq!(
            b.memory().wear().total_writes(),
            0,
            "fixed dummies must be dropped"
        );
        assert_eq!(b.stats().paired_dummies, 100);
        assert_eq!(b.stats().dummy_array_writes, 0);
    }

    #[test]
    fn original_policy_dummies_do_wear_the_array() {
        let cfg = ObfusMemConfig {
            dummy_policy: DummyAddressPolicy::Original,
            ..ObfusMemConfig::paper_default()
        };
        let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 42);
        let mut t = Time::ZERO;
        for i in 0..50u64 {
            t = b.read(t, BlockAddr::containing(i * (1 << 24)));
        }
        assert!(b.stats().dummy_array_writes > 0);
        assert!(
            b.memory().wear().total_writes() > 0,
            "original-address dummies hit cells"
        );
    }

    #[test]
    fn functional_data_round_trips_through_protection() {
        let mut b = backend(SecurityLevel::ObfuscateAuth);
        let addr = BlockAddr::containing(0x2000);
        b.write(Time::ZERO, addr);
        // The at-rest block is ciphertext, not zeros.
        assert_ne!(b.memory().read_block(addr), [0u8; 64]);
        // And the read path decrypts it without desync (debug asserts
        // inside obfuscated_read verify the round trip).
        b.read(Time::from_ps(10_000_000), addr);
    }

    fn device_backend(
        security: SecurityLevel,
        plan: obfusmem_mem::fault::DeviceFaultPlan,
    ) -> ObfusMemBackend {
        let cfg = ObfusMemConfig {
            security,
            device_faults: plan,
            ..ObfusMemConfig::paper_default()
        };
        ObfusMemBackend::new(cfg, MemConfig::table2(), 42)
    }

    #[test]
    fn inactive_device_plan_builds_no_recovery_state() {
        use crate::recovery::RecoveryConfig;
        let mut b = backend(SecurityLevel::ObfuscateAuth);
        assert!(b.recovery().is_none());
        assert!(b.memory().fault_state().is_none());
        // Recovery knobs are inert while the plan is inactive: fills are
        // time-identical whatever the ladder costs are set to.
        let cfg = ObfusMemConfig {
            recovery: RecoveryConfig {
                max_retries: 99,
                ..RecoveryConfig::default()
            },
            ..ObfusMemConfig::paper_default()
        };
        let mut tweaked = ObfusMemBackend::new(cfg, MemConfig::table2(), 42);
        let mut t_a = Time::ZERO;
        let mut t_b = Time::ZERO;
        for i in 0..50u64 {
            let addr = BlockAddr::containing(i * (1 << 20));
            t_a = b.read(t_a, addr);
            t_b = tweaked.read(t_b, addr);
            assert_eq!(t_a, t_b);
        }
        let mut m = MetricsNode::new();
        b.observe_metrics(&mut m);
        assert!(
            m.get_child("recovery").is_none(),
            "subtree only when active"
        );
    }

    #[test]
    fn transient_flips_heal_by_retry() {
        use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultPlan};
        let mut b = device_backend(
            SecurityLevel::ObfuscateAuth,
            DeviceFaultPlan::single(DeviceFaultKind::BitFlip, 0.05, 7),
        );
        let mut t = Time::ZERO;
        for i in 0..200u64 {
            let addr = BlockAddr::containing(i * (1 << 18));
            b.write(t, addr);
            t = b.read(t, addr);
        }
        let stats = b.recovery().expect("active plan").stats;
        assert!(stats.detected > 0, "some reads must flip");
        assert!(stats.retried > 0);
        assert_eq!(stats.quarantined, 0, "transients never escalate");
        assert_eq!(stats.unrecovered, 0);
        let mut m = MetricsNode::new();
        b.observe_metrics(&mut m);
        assert_eq!(m.counter("recovery.detected"), Some(stats.detected));
        assert_eq!(m.counter("recovery.unrecovered"), Some(0));
    }

    #[test]
    fn dead_banks_quarantine_and_migrate_survivors() {
        use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultPlan, DeviceFaultState};
        let banks = MemConfig::table2().total_banks() as u64;
        // Fault draws are pure functions of (seed, location): scan for a
        // seed where some banks fail and at least one stays healthy.
        let seed = (1..200u64)
            .find(|&s| {
                let st = DeviceFaultState::new(DeviceFaultPlan::single(
                    DeviceFaultKind::BankFail,
                    0.25,
                    s,
                ));
                let failed = (0..banks).filter(|&f| st.bank_failed(f)).count() as u64;
                failed >= 1 && failed < banks
            })
            .expect("a quarter-rate plan fails some bank for some seed");
        let mut b = device_backend(
            SecurityLevel::ObfuscateAuth,
            DeviceFaultPlan::single(DeviceFaultKind::BankFail, 0.25, seed),
        );
        let total_banks = b.memory().config().total_banks();
        let mut t = Time::ZERO;
        // Stride of one row buffer walks the bank bits, touching every
        // flat bank (RoRaBaChCo puts bank/rank just above the column).
        let addrs: Vec<BlockAddr> = (0..64u64)
            .map(|i| BlockAddr::containing(i * 1024))
            .collect();
        for &addr in &addrs {
            b.write(t, addr);
        }
        for &addr in &addrs {
            t = b.read(t, addr);
        }
        // Re-read everything: remapped blocks must stay stable.
        for &addr in &addrs {
            t = b.read(t, addr);
        }
        let rc = b.recovery().expect("active plan");
        let stats = rc.stats;
        assert!(stats.detected > 0, "dead banks must surface");
        assert!(stats.resynced > 0, "persistent faults pass through resync");
        assert!(stats.quarantined > 0, "dead banks get fused out");
        assert!(stats.migrated > 0, "stored blocks evacuate");
        assert_eq!(stats.unrecovered, 0, "every fault must resolve");
        assert_eq!(rc.journal().len() as u64, stats.migrated);
        assert!(rc.remap().healthy_banks() < total_banks);
        assert!(rc.remap().remapped_blocks() > 0);
    }

    #[test]
    fn stuck_cells_escalate_past_retry() {
        use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultPlan};
        let mut b = device_backend(
            SecurityLevel::ObfuscateAuth,
            DeviceFaultPlan::single(DeviceFaultKind::StuckCell, 0.10, 11),
        );
        let mut t = Time::ZERO;
        for i in 0..128u64 {
            let addr = BlockAddr::containing(i * (1 << 19));
            b.write(t, addr);
            t = b.read(t, addr);
        }
        let stats = b.recovery().expect("active plan").stats;
        assert!(stats.detected > 0, "stuck cells must surface");
        assert!(stats.quarantined > 0, "retries cannot heal a frozen bit");
        assert_eq!(stats.unrecovered, 0);
    }

    #[test]
    fn isolated_stuck_blocks_retire_without_bank_quarantine() {
        use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultPlan};
        // Scan seeds for a map where the demand block is stuck but its
        // neighbourhood reads clean; fault draws are pure in (seed,
        // location), so the scan is deterministic.
        let addr = BlockAddr::containing(0x40);
        let mut hit = None;
        for seed in 1..200u64 {
            let mut b = device_backend(
                SecurityLevel::ObfuscateAuth,
                DeviceFaultPlan::single(DeviceFaultKind::StuckCell, 0.05, seed),
            );
            b.write(Time::ZERO, addr);
            b.read(Time::from_ps(1_000_000), addr);
            let stats = b.recovery().expect("active plan").stats;
            assert_eq!(stats.unrecovered, 0, "seed {seed}");
            if stats.detected > 0 && stats.quarantined == 0 && stats.migrated > 0 {
                let rc = b.recovery().expect("active plan");
                assert_eq!(rc.journal().len() as u64, stats.migrated);
                // The retired slot keeps serving: a re-read is clean.
                b.read(Time::from_ps(2_000_000), addr);
                let after = b.recovery().expect("active plan").stats;
                assert_eq!(after.detected, stats.detected, "retired slot is clean");
                assert_eq!(after.quarantined, 0, "no bank was fused");
                hit = Some(seed);
                break;
            }
        }
        assert!(
            hit.is_some(),
            "some seed must exercise pure block retirement"
        );
    }

    #[test]
    fn quarantine_walk_skips_stale_identity_copies() {
        use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultPlan};
        // Active-but-quiet plan: the recovery machinery is live, but no
        // fault ever fires, so every store/remap move below is ours.
        let mut b = device_backend(
            SecurityLevel::ObfuscateAuth,
            DeviceFaultPlan::single(DeviceFaultKind::StuckCell, 1e-12, 1),
        );
        let cfg = b.mem.config().clone();
        let logical = (0..1u64 << 20)
            .step_by(64)
            .find(|&a| {
                let d = b.mem.decode(a);
                d.flat_bank(&cfg) as u64 == 1
            })
            .expect("some block decodes into bank 1");
        // Reconstruct the pre-fix hazard: a block retired to a spare
        // slot (in bank 0 — the cursor's first candidate) whose stale
        // identity copy was left behind in bank 1.
        let stale = [0xDEu8; BLOCK_BYTES];
        let live = [0xABu8; BLOCK_BYTES];
        b.mem.write_block(BlockAddr::containing(logical), stale);
        let rc = b.recovery.as_mut().expect("active plan");
        let spare = rc.remap_mut().retarget(logical).expect("spare available");
        assert_ne!(
            b.mem.decode(spare).flat_bank(&cfg) as u64,
            1,
            "spare must land outside the bank under test"
        );
        rc.note_write(logical, &live);
        b.mem.write_block(BlockAddr::containing(spare), live);
        // Quarantining bank 1 must not treat the stale identity copy as
        // a victim: doing so would drop the live logical→spare mapping
        // and silently serve dead bytes.
        let mut rc = b.recovery.take().expect("active plan");
        b.quarantine_and_migrate(&mut rc, 1)
            .expect("not the last healthy bank");
        assert_eq!(
            rc.remap_mut().translate(logical).expect("still mapped"),
            spare,
            "live mapping survives the quarantine walk"
        );
        assert_eq!(
            b.mem.read_block(BlockAddr::containing(spare)),
            live,
            "live bytes untouched"
        );
        assert_eq!(
            b.mem.read_block(BlockAddr::containing(logical)),
            [0u8; BLOCK_BYTES],
            "stale copy evacuated from the store"
        );
        assert_eq!(rc.stats.unrecovered, 0);
        assert_eq!(rc.stats.migrated, 0, "nothing live lived in bank 1");
    }

    #[test]
    fn unprotected_scheme_still_detects_and_recovers() {
        use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultPlan};
        let mut b = device_backend(
            SecurityLevel::Unprotected,
            DeviceFaultPlan::single(DeviceFaultKind::BitFlip, 0.10, 13),
        );
        let mut t = Time::ZERO;
        for i in 0..100u64 {
            t = b.read(t, BlockAddr::containing(i * (1 << 18)));
        }
        let stats = b.recovery().expect("active plan").stats;
        assert!(stats.detected > 0, "modeled ECC sees flips without crypto");
        assert_eq!(stats.unrecovered, 0);
    }

    #[test]
    fn multi_channel_injection_follows_strategy() {
        for (strategy, expect_some) in [
            (crate::config::ChannelStrategy::None, false),
            (crate::config::ChannelStrategy::Unopt, true),
            (crate::config::ChannelStrategy::Opt, true),
        ] {
            let cfg = ObfusMemConfig {
                channel_strategy: strategy,
                ..ObfusMemConfig::paper_default()
            };
            let mut b = ObfusMemBackend::new(cfg, MemConfig::table2().with_channels(4), 1);
            let mut t = Time::ZERO;
            for i in 0..20u64 {
                t = b.read(t, BlockAddr::containing(i * 64));
            }
            assert_eq!(
                b.stats().channel_dummies > 0,
                expect_some,
                "strategy {strategy:?}"
            );
        }
    }

    #[test]
    fn unopt_injects_more_than_opt() {
        let mut counts = Vec::new();
        for strategy in [
            crate::config::ChannelStrategy::Unopt,
            crate::config::ChannelStrategy::Opt,
        ] {
            let cfg = ObfusMemConfig {
                channel_strategy: strategy,
                ..ObfusMemConfig::paper_default()
            };
            let mut b = ObfusMemBackend::new(cfg, MemConfig::table2().with_channels(8), 1);
            // Closely spaced issue times (as a 4-core mix produces) keep
            // channels busy with in-flight traffic so OPT can suppress.
            for i in 0..200u64 {
                b.read(Time::from_ps(i * 2_000), BlockAddr::containing(i * 1024));
            }
            counts.push(b.stats().channel_dummies);
        }
        assert!(
            counts[0] > counts[1],
            "UNOPT {} !> OPT {}",
            counts[0],
            counts[1]
        );
    }

    #[test]
    fn counter_misses_generate_extra_memory_traffic() {
        let mut b = backend(SecurityLevel::EncryptOnly);
        let mut t = Time::ZERO;
        // Touch thousands of distinct pages to defeat the counter cache.
        for i in 0..8000u64 {
            t = b.read(t, BlockAddr::containing(i * 4096));
        }
        assert!(b.stats().counter_misses > 4000);
        assert!(b.counter_cache_hit_ratio() < 0.5);
    }

    #[test]
    fn substitution_replaces_dummies_with_parked_writes() {
        let cfg = ObfusMemConfig {
            type_hiding: TypeHiding::SplitDummyWithSubstitution,
            ..ObfusMemConfig::paper_default()
        };
        let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 42);
        let mut t = Time::ZERO;
        for i in 0..20u64 {
            b.write(t, BlockAddr::containing(0x10_0000 + i * 64)); // parked
            t = b.read(t, BlockAddr::containing(i * 64)); // picks one up
        }
        assert!(
            b.stats().substituted_pairs >= 15,
            "got {}",
            b.stats().substituted_pairs
        );
        // Substituted pairs generate no dummy at all on their slot.
        assert!(
            b.stats().paired_dummies < 5,
            "dummies should be rare with writes available: {}",
            b.stats().paired_dummies
        );
        // Functional store must contain the parked writes that rode along.
        assert_ne!(
            b.memory().read_block(BlockAddr::containing(0x10_0000)),
            [0u8; 64]
        );
    }

    #[test]
    fn substitution_preserves_read_correctness() {
        let cfg = ObfusMemConfig {
            type_hiding: TypeHiding::SplitDummyWithSubstitution,
            ..ObfusMemConfig::paper_default()
        };
        let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 7);
        let mut t = Time::ZERO;
        // Interleave writes and reads over the same small set; debug
        // asserts inside the read paths verify every bus round trip.
        for i in 0..50u64 {
            b.write(t, BlockAddr::containing((i % 8) * 64));
            t = b.read(t, BlockAddr::containing((i % 8) * 64));
        }
    }

    #[test]
    fn uniform_packets_round_trip_and_shape_match() {
        let cfg = ObfusMemConfig {
            type_hiding: TypeHiding::UniformPackets,
            ..ObfusMemConfig::paper_default()
        };
        let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 9);
        let tap = CollectingTap::default();
        b.set_bus_tap(tap.handle());
        let mut t = Time::ZERO;
        for i in 0..10u64 {
            b.write(t, BlockAddr::containing(i * 64));
            t = b.read(t, BlockAddr::containing(i * 64));
        }
        let trace = tap.take();
        let to_mem: Vec<_> = trace
            .iter()
            .filter(|e| e.direction == Direction::ToMemory)
            .collect();
        assert_eq!(to_mem.len(), 20, "one packet per request, no dummies");
        assert!(
            to_mem.iter().all(|e| e.packet.data_ct.is_some()),
            "every uniform packet must carry data"
        );
        let wires: std::collections::HashSet<usize> =
            to_mem.iter().map(|e| e.packet.wire_bytes()).collect();
        assert_eq!(wires.len(), 1, "reads and writes must be shape-identical");
    }

    #[test]
    fn uniform_packets_cost_more_bus_than_substitution() {
        // The §3.3 bandwidth argument: under a read+write mix, the split
        // scheme with substitution moves fewer bytes than uniform packets.
        let run = |type_hiding| {
            let cfg = ObfusMemConfig {
                type_hiding,
                ..ObfusMemConfig::paper_default()
            };
            let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 11);
            let mut t = Time::ZERO;
            for i in 0..200u64 {
                b.write(t, BlockAddr::containing(0x40_0000 + i * 64));
                t = b.read(t, BlockAddr::containing(i * 64));
            }
            b.memory().channel_stats(0).bus_busy_ps.get()
        };
        let uniform = run(TypeHiding::UniformPackets);
        let subst = run(TypeHiding::SplitDummyWithSubstitution);
        assert!(
            subst < uniform,
            "substitution ({subst} ps) must beat uniform packets ({uniform} ps)"
        );
    }

    #[test]
    fn fixed_slot_timing_quantizes_issue_times() {
        let cfg = ObfusMemConfig {
            timing: crate::config::TimingMode::FixedSlots,
            ..ObfusMemConfig::paper_default()
        };
        let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 42);
        let tap = CollectingTap::default();
        b.set_bus_tap(tap.handle());
        let mut t = Time::from_ps(1); // deliberately unaligned
        for i in 0..20u64 {
            t = b.read(t, BlockAddr::containing(i * 64));
        }
        let slot = crate::config::TIMING_SLOT.as_ps();
        for event in tap.take() {
            if event.direction == Direction::ToMemory {
                assert_eq!(
                    event.at.as_ps() % slot,
                    0,
                    "packet at {} not slot-aligned",
                    event.at
                );
            }
        }
    }

    #[test]
    fn fixed_slot_timing_costs_latency() {
        let addr = BlockAddr::containing(0x40);
        let mut normal = backend(SecurityLevel::ObfuscateAuth);
        let cfg = ObfusMemConfig {
            timing: crate::config::TimingMode::FixedSlots,
            ..ObfusMemConfig::paper_default()
        };
        let mut shielded = ObfusMemBackend::new(cfg, MemConfig::table2(), 42);
        let a = normal.read(Time::from_ps(1), addr);
        let b = shielded.read(Time::from_ps(1), addr);
        assert!(b >= a, "slot alignment cannot be free");
    }

    #[test]
    fn write_then_read_pairing_slows_fills() {
        let addr = BlockAddr::containing(0x40);
        let mut rtw = backend(SecurityLevel::ObfuscateAuth);
        let cfg = ObfusMemConfig {
            pairing: crate::config::PairingOrder::WriteThenRead,
            ..ObfusMemConfig::paper_default()
        };
        let mut wtr = ObfusMemBackend::new(cfg, MemConfig::table2(), 42);
        let a = rtw.read(Time::ZERO, addr);
        let b = wtr.read(Time::ZERO, addr);
        assert!(
            b > a,
            "write-then-read must delay fills behind the dummy write (§3.3): {a:?} vs {b:?}"
        );
    }

    #[test]
    fn tracing_is_passive_and_covers_the_request_path() {
        let drive = |traced: bool| {
            let mut b = backend(SecurityLevel::ObfuscateAuth);
            let obs = if traced {
                TraceHandle::recording()
            } else {
                TraceHandle::disabled()
            };
            b.set_trace_handle(obs.clone());
            let mut t = Time::ZERO;
            for i in 0..40u64 {
                b.write(t, BlockAddr::containing(0x20_0000 + i * 64));
                t = b.read(t, BlockAddr::containing(i * 4096));
            }
            (t, obs.finish())
        };
        let (untraced_t, none) = drive(false);
        let (traced_t, events) = drive(true);
        assert!(none.is_empty());
        assert_eq!(untraced_t, traced_t, "recording must not perturb timing");
        let names: std::collections::HashSet<String> = crate::backend::tests::track_names(&events);
        assert!(names.contains("engine"), "tracks: {names:?}");
        assert!(names.contains("bus.ch0"));
        assert!(names.iter().any(|n| n.starts_with("bank.ch0.b")));
        assert!(
            events.iter().any(|e| matches!(
                e,
                obfusmem_obs::trace::TraceEvent::Span {
                    name: "array-read",
                    ..
                }
            )),
            "bank service spans must be present"
        );
    }

    #[test]
    fn every_shape_spans_its_pad_stalls() {
        use obfusmem_obs::trace::TraceEvent;
        // Same-instant requests on one channel drain the 64-pad buffer
        // (six pads per request), so the later ones stall on cold pads.
        for type_hiding in [
            TypeHiding::SplitDummy,
            TypeHiding::SplitDummyWithSubstitution,
            TypeHiding::UniformPackets,
        ] {
            for kind in [AccessKind::Read, AccessKind::Write] {
                let cfg = ObfusMemConfig {
                    type_hiding,
                    ..ObfusMemConfig::paper_default()
                };
                let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), 42);
                let obs = TraceHandle::recording();
                b.set_trace_handle(obs.clone());
                for i in 0..24u64 {
                    let addr = BlockAddr::containing(i * 64);
                    match kind {
                        AccessKind::Read => {
                            b.read(Time::ZERO, addr);
                        }
                        AccessKind::Write => b.write(Time::ZERO, addr),
                    }
                }
                // Parked write-backs only reach the bus on overflow.
                let stall = Duration::from_ps(b.stats().pad_stall_ps);
                assert!(stall > Duration::ZERO, "{type_hiding:?} {kind:?}: no stall");
                let spanned = obs
                    .finish()
                    .iter()
                    .filter_map(|e| match e {
                        TraceEvent::Span {
                            name: "pad-stall",
                            start,
                            end,
                            ..
                        } => Some(end.since(*start)),
                        _ => None,
                    })
                    .fold(Duration::ZERO, |a, d| a + d);
                assert_eq!(
                    spanned, stall,
                    "{type_hiding:?} {kind:?}: pad-stall spans must cover every stall"
                );
            }
        }
    }

    fn track_names(
        events: &[obfusmem_obs::trace::TraceEvent],
    ) -> std::collections::HashSet<String> {
        events.iter().map(|e| e.track().name()).collect()
    }

    #[test]
    fn metrics_snapshot_carries_engine_crypto_and_per_bank_counters() {
        let mut b = backend(SecurityLevel::ObfuscateAuth);
        let mut t = Time::ZERO;
        for i in 0..100u64 {
            t = b.read(t, BlockAddr::containing(i * 4096));
        }
        let mut snap = MetricsNode::new();
        b.observe_metrics(&mut snap);
        assert_eq!(snap.counter("engine.real_reads"), Some(100));
        assert_eq!(snap.counter("engine.paired_dummies"), Some(100));
        assert!(snap.counter("crypto.counter_misses").is_some());
        assert!(
            snap.counter("mem.ch0.reads").unwrap_or(0) > 0,
            "per-channel device counters must be present"
        );
        let ch0 = snap.get_child("mem").and_then(|m| m.get_child("ch0"));
        assert!(
            ch0.is_some_and(|c| c.children().any(|(name, _)| name.starts_with("bank"))),
            "per-bank counters must be present"
        );
        // Fault-free backends carry no link subtree at all.
        assert!(snap.get_child("link").is_none());
    }

    #[test]
    fn encrypt_then_mac_is_slower_than_encrypt_and_mac() {
        let addr = BlockAddr::containing(0x40);
        let mut and_mac = backend(SecurityLevel::ObfuscateAuth);
        let cfg = ObfusMemConfig {
            mac_scheme: MacScheme::EncryptThenMac,
            ..ObfusMemConfig::paper_default()
        };
        let mut then_mac = ObfusMemBackend::new(cfg, MemConfig::table2(), 42);
        let a = and_mac.read(Time::ZERO, addr);
        let b = then_mac.read(Time::ZERO, addr);
        assert!(
            b > a,
            "encrypt-then-MAC must serialize MAC latency (Observation 4)"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]
        /// Re-encrypt-and-migrate must be lossless at the plaintext level:
        /// for random engine seeds and random bank-failure maps, every
        /// stored block decrypts to exactly the bytes it held before the
        /// quarantine — while migrated blocks change address *and*
        /// ciphertext (the spare slot never reuses the dead slot's pad).
        #[test]
        fn migration_re_encrypts_yet_round_trips_plaintext_bit_exactly(
            engine_seed: u64,
            fault_salt in 0u64..500
        ) {
            use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultPlan, DeviceFaultState};
            let banks = MemConfig::table2().total_banks() as u64;
            // Fault draws are pure in (seed, location): scan from the
            // drawn salt for a map that kills some banks but not all.
            let fault_seed = (0..400u64)
                .map(|d| fault_salt * 400 + d + 1)
                .find(|&s| {
                    let st = DeviceFaultState::new(DeviceFaultPlan::single(
                        DeviceFaultKind::BankFail,
                        0.25,
                        s,
                    ));
                    let failed = (0..banks).filter(|&f| st.bank_failed(f)).count() as u64;
                    failed >= 1 && failed < banks
                })
                .expect("a quarter-rate plan fails some bank for some seed");
            let cfg = ObfusMemConfig {
                device_faults: DeviceFaultPlan::single(DeviceFaultKind::BankFail, 0.25, fault_seed),
                ..ObfusMemConfig::paper_default()
            };
            let mut b = ObfusMemBackend::new(cfg, MemConfig::table2(), engine_seed);

            // Row-buffer stride walks every flat bank (RoRaBaChCo).
            let addrs: Vec<BlockAddr> = (0..64u64)
                .map(|i| BlockAddr::containing(i * 1024))
                .collect();
            let mut t = Time::ZERO;
            for &addr in &addrs {
                b.write(t, addr);
            }
            // Pre-quarantine snapshot: at-rest ciphertext and the
            // plaintext it protects, per logical block.
            let mut pre_ct = std::collections::HashMap::new();
            let mut pre_pt = std::collections::HashMap::new();
            for &addr in &addrs {
                let ct = b.peek_block(addr);
                pre_pt.insert(addr.as_u64(), b.memenc.decrypt_block(addr.as_u64(), &ct));
                pre_ct.insert(addr.as_u64(), ct);
            }

            // Demand reads hit the dead banks and run the full ladder.
            for &addr in &addrs {
                t = b.read(t, addr);
            }
            let rc = b.recovery().expect("active plan");
            proptest::prop_assert!(rc.stats.quarantined > 0, "dead banks must fuse out");
            proptest::prop_assert!(rc.stats.migrated > 0, "stored blocks must evacuate");
            proptest::prop_assert_eq!(rc.stats.unrecovered, 0, "every fault must resolve");
            let moves: Vec<MigrationRecord> = rc.journal().to_vec();
            proptest::prop_assert_eq!(moves.len() as u64, rc.stats.migrated);

            // Bit-exact round trip: every logical block still decrypts to
            // its pre-quarantine plaintext through the new mapping.
            for &addr in &addrs {
                let ct = b.peek_block(addr);
                let pt = b.memenc.decrypt_block(addr.as_u64(), &ct);
                proptest::prop_assert_eq!(
                    pt,
                    pre_pt[&addr.as_u64()],
                    "block {:#x} plaintext must survive migration",
                    addr.as_u64()
                );
            }
            // Migrated blocks moved and were freshly encrypted: same
            // plaintext, different slot, different ciphertext.
            for m in &moves {
                proptest::prop_assert_ne!(m.from, m.to, "migration must relocate");
                if let Some(old_ct) = pre_ct.get(&m.logical) {
                    let new_ct = b.peek_block(BlockAddr::containing(m.logical));
                    proptest::prop_assert_ne!(
                        &new_ct,
                        old_ct,
                        "spare slot must not reuse the dead slot's pad"
                    );
                }
            }
        }
    }
}
