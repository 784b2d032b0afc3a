//! Device-fault recovery: typed integrity faults, a retry → resync →
//! quarantine escalation ladder, and a spare-region remap table with a
//! journaled re-encrypt-and-migrate path.
//!
//! PR 3 hardened the *bus* (`link::FaultyLink` + ARQ); this module
//! handles faults *inside* the module's trust boundary — the stored
//! array bytes themselves (`obfusmem_mem::fault::DeviceFaultPlan`). The
//! controller is pure bookkeeping over simulated time: the backend owns
//! the device and crypto engines and drives the ladder, while this
//! module owns the state machine's data:
//!
//! * [`IntegrityFault`] — the typed event a failed at-rest integrity
//!   check raises (instead of the panic it used to be);
//! * [`RecoveryConfig`] — retry count, exponential simulated-time
//!   backoff, and the modeled costs of resync, quarantine, and per-block
//!   migration;
//! * [`SpareRemap`] — per-bank quarantine flags plus a logical→spare
//!   block remap. Spare slots are carved from the *top rows* of healthy
//!   banks (workloads live at the bottom of the address space), assigned
//!   round-robin so a quarantined bank's load spreads across survivors.
//!   Assignment is monotone — a spare slot is never reused — so the map
//!   is a bijection over live addresses by construction;
//! * [`RecoveryController`] — ties the above to per-block SHA-1 digests
//!   of the at-rest bytes (the detection oracle for schemes without a
//!   bus MAC, and a cross-check for those with one) and a
//!   [`MigrationRecord`] journal of every re-encrypt-and-migrate.
//!
//! Everything here is `Option`-gated in the backend: a run with an
//! inactive `DeviceFaultPlan` never constructs a controller and stays
//! byte-identical to pre-fault builds.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use obfusmem_crypto::sha1::{Sha1, DIGEST_LEN};
use obfusmem_mem::addr::{decode, encode, DecodedAddr};
use obfusmem_mem::config::MemConfig;
use obfusmem_mem::fault::DeviceFaultKind;
use obfusmem_mem::request::{BlockData, BLOCK_BYTES};
use obfusmem_obs::metrics::MetricsNode;
use obfusmem_sim::time::Duration;

/// A typed at-rest integrity failure: the readout of `phys` did not
/// match the expected digest for logical block `addr`. Flows through the
/// recovery ladder instead of killing the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityFault {
    /// Logical (pre-remap) block address whose readout failed.
    pub addr: u64,
    /// Physical (post-remap) address that was actually read.
    pub phys: u64,
    /// Flat bank index of the failing physical address.
    pub flat_bank: u64,
    /// The injected fault kind, when the device overlay reported one.
    /// `None` means the corruption was observed only via the digest
    /// (e.g. a stuck cell planted by an earlier read).
    pub observed: Option<DeviceFaultKind>,
}

/// Costs and bounds of the recovery ladder, in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Re-read attempts before escalating to resync.
    pub max_retries: u32,
    /// Backoff before retry `n`: `retry_backoff << min(n, backoff_cap)`.
    pub retry_backoff: Duration,
    /// Exponent cap for the backoff shift.
    pub backoff_cap: u32,
    /// Modeled cost of a counter/Merkle resync (PR 3's escalation step,
    /// applied to the at-rest tree instead of the link).
    pub resync_latency: Duration,
    /// Fixed cost of quarantining a bank (fusing it out of the decoder).
    pub quarantine_latency: Duration,
    /// Per-block cost of re-encrypt-and-migrate to a spare slot.
    pub migrate_per_block: Duration,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_retries: 4,
            retry_backoff: Duration::from_ns(50),
            backoff_cap: 4,
            resync_latency: Duration::from_ns(200),
            quarantine_latency: Duration::from_ns(2000),
            migrate_per_block: Duration::from_ns(300),
        }
    }
}

impl RecoveryConfig {
    /// Simulated-time backoff before retry `attempt` (0-based).
    pub fn retry_delay(&self, attempt: u32) -> Duration {
        let shift = attempt.min(self.backoff_cap);
        Duration::from_ps(self.retry_backoff.as_ps() << shift)
    }
}

/// Per-phase counters for the recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Integrity faults detected (digest mismatches on readout).
    pub detected: u64,
    /// Re-read attempts issued.
    pub retried: u64,
    /// Counter/Merkle resyncs performed.
    pub resynced: u64,
    /// Banks quarantined.
    pub quarantined: u64,
    /// Blocks re-encrypted and migrated to spare slots.
    pub migrated: u64,
    /// Faults the ladder could not clear (run continues on the
    /// corrected ECC-margin readout, mirroring `link`'s `force_clean`).
    pub unrecovered: u64,
}

impl RecoveryStats {
    /// Emits the counters into `out` (the `recovery.*` subtree).
    pub fn observe(&self, out: &mut MetricsNode) {
        out.set_counter("detected", self.detected);
        out.set_counter("retried", self.retried);
        out.set_counter("resynced", self.resynced);
        out.set_counter("quarantined", self.quarantined);
        out.set_counter("migrated", self.migrated);
        out.set_counter("unrecovered", self.unrecovered);
    }
}

/// Why a recovery step was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryError {
    /// Quarantining `bank` would leave no healthy bank to remap into.
    LastHealthyBank {
        /// The bank whose quarantine was refused.
        bank: u64,
    },
    /// The spare region of every healthy bank is exhausted.
    SpareExhausted {
        /// The logical address that could not be remapped.
        addr: u64,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::LastHealthyBank { bank } => {
                write!(f, "refusing to quarantine bank {bank}: last healthy bank")
            }
            RecoveryError::SpareExhausted { addr } => {
                write!(f, "no spare slot left for block {addr:#x}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// One journaled re-encrypt-and-migrate of a surviving block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRecord {
    /// Logical block address.
    pub logical: u64,
    /// Physical slot the block was evacuated from.
    pub from: u64,
    /// Spare slot it now lives in.
    pub to: u64,
}

/// Bank-quarantine state plus the logical→spare block remap.
///
/// Spare slots are enumerated by a monotone cursor: slot `s` lands in
/// bank `s % total_banks` (skipping quarantined banks), filling rows
/// from the top of the bank downward. The cursor never rewinds, so no
/// spare slot is handed out twice and the map stays injective. A spare
/// target can itself be quarantined later; migration then retargets the
/// block to a fresh slot.
///
/// Spares are carved from the top rows on the *assumption* that
/// workloads live at the bottom of the address space — but the remap
/// does not trust it: every identity translation is recorded, the
/// cursor skips slots that collide with an identity-served address, and
/// an identity address that aliases an already-assigned spare is
/// displaced to a spare of its own. Injectivity holds for any workload
/// footprint, not just low addresses.
#[derive(Debug, Clone)]
pub struct SpareRemap {
    cfg: MemConfig,
    quarantined: Vec<bool>,
    healthy: usize,
    /// logical → spare physical.
    map: BTreeMap<u64, u64>,
    /// spare physical → logical (the inverse, for migration walks).
    rev: BTreeMap<u64, u64>,
    /// Addresses served at identity at least once — slots the spare
    /// cursor must never hand out (a workload block can legitimately
    /// decode into the spare region).
    identity_live: BTreeSet<u64>,
    next_spare: u64,
}

impl SpareRemap {
    /// A remap with every bank healthy and no blocks displaced.
    pub fn new(cfg: MemConfig) -> Self {
        let banks = cfg.total_banks();
        SpareRemap {
            cfg,
            quarantined: vec![false; banks],
            healthy: banks,
            map: BTreeMap::new(),
            rev: BTreeMap::new(),
            identity_live: BTreeSet::new(),
            next_spare: 0,
        }
    }

    /// The memory geometry the remap encodes against.
    pub fn mem_cfg(&self) -> &MemConfig {
        &self.cfg
    }

    /// True when `flat_bank` is fused out.
    pub fn is_quarantined(&self, flat_bank: u64) -> bool {
        self.quarantined
            .get(flat_bank as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Number of banks still healthy.
    pub fn healthy_banks(&self) -> usize {
        self.healthy
    }

    /// Number of blocks currently displaced to spare slots.
    pub fn remapped_blocks(&self) -> usize {
        self.map.len()
    }

    /// Fuses out `flat_bank`. Returns `Ok(true)` when newly quarantined,
    /// `Ok(false)` when it already was, and refuses to take down the
    /// last healthy bank (the caller records the fault as unrecovered
    /// and the run continues on corrected readouts).
    pub fn quarantine(&mut self, flat_bank: u64) -> Result<bool, RecoveryError> {
        let i = flat_bank as usize;
        if self.quarantined[i] {
            return Ok(false);
        }
        if self.healthy <= 1 {
            return Err(RecoveryError::LastHealthyBank { bank: flat_bank });
        }
        self.quarantined[i] = true;
        self.healthy -= 1;
        Ok(true)
    }

    /// Physical address logical block `addr` lives at: its spare slot if
    /// displaced, a freshly assigned slot if its bank is quarantined,
    /// identity otherwise. A spare whose own bank has since been fused
    /// out is reassigned on the spot — that arises only for spares the
    /// cohort migration skipped (blocks that were never stored), so no
    /// data moves with it. This keeps the invariant that `translate`
    /// never returns a slot in a quarantined bank, which bounds the
    /// caller's cascading-quarantine loop.
    pub fn translate(&mut self, addr: u64) -> Result<u64, RecoveryError> {
        if let Some(&t) = self.map.get(&addr) {
            let d = decode(&self.cfg, t);
            if !self.quarantined[d.flat_bank(&self.cfg)] {
                return Ok(t);
            }
            return self.retarget(addr);
        }
        let d = decode(&self.cfg, addr);
        // Identity home — unless this address was already handed out as
        // another block's spare (a workload block can decode into the
        // spare region): sharing the slot would break injectivity and
        // cross-corrupt the two blocks' digests, so displace this block
        // to a spare of its own instead.
        if !self.quarantined[d.flat_bank(&self.cfg)] && !self.rev.contains_key(&addr) {
            self.identity_live.insert(addr);
            return Ok(addr);
        }
        self.assign_spare(addr)
    }

    /// The logical block stored at physical slot `phys` (identity unless
    /// `phys` is an assigned spare).
    pub fn logical_of(&self, phys: u64) -> u64 {
        self.rev.get(&phys).copied().unwrap_or(phys)
    }

    /// True when physical slot `phys` is the *current* home of the block
    /// it holds: either an assigned spare, or an identity slot whose
    /// block has not been displaced. False for the stale identity slot
    /// of a block that was retired/migrated to a spare — migration walks
    /// must skip those rather than resurrect their dead bytes.
    pub fn is_current_home(&self, phys: u64) -> bool {
        self.rev.contains_key(&phys) || !self.map.contains_key(&phys)
    }

    /// Drops `logical`'s current spare (if any) and assigns a fresh one —
    /// used when the bank holding its spare slot is itself quarantined.
    pub fn retarget(&mut self, logical: u64) -> Result<u64, RecoveryError> {
        if let Some(old) = self.map.remove(&logical) {
            self.rev.remove(&old);
        }
        self.assign_spare(logical)
    }

    /// Hands out the next unused spare slot in a healthy bank, skipping
    /// slots whose address is live at identity. Terminates because at
    /// least one bank is always healthy (quarantine refuses the last
    /// one) and that bank's candidate rows run out at `row_back >=
    /// rows`; the cap is a defensive backstop at the full slot space.
    fn assign_spare(&mut self, logical: u64) -> Result<u64, RecoveryError> {
        let banks = self.cfg.total_banks() as u64;
        let per_row = self.cfg.blocks_per_row();
        let rows = self.cfg.rows_per_bank();
        let scanned_cap = banks.saturating_mul(per_row.saturating_mul(rows)) + banks;
        let mut scanned = 0;
        loop {
            let seq = self.next_spare;
            self.next_spare += 1;
            scanned += 1;
            if scanned > scanned_cap {
                return Err(RecoveryError::SpareExhausted { addr: logical });
            }
            let fb = seq % banks;
            if self.quarantined[fb as usize] {
                continue;
            }
            let slot = seq / banks;
            let row_back = slot / per_row;
            if row_back >= rows {
                return Err(RecoveryError::SpareExhausted { addr: logical });
            }
            let d = DecodedAddr {
                channel: (fb as usize) / (self.cfg.ranks_per_channel * self.cfg.banks_per_rank),
                rank: (fb as usize / self.cfg.banks_per_rank) % self.cfg.ranks_per_channel,
                bank: fb as usize % self.cfg.banks_per_rank,
                row: rows - 1 - row_back,
                column: (slot % per_row) * BLOCK_BYTES as u64,
            };
            let phys = encode(&self.cfg, &d);
            if self.identity_live.contains(&phys) {
                continue;
            }
            self.map.insert(logical, phys);
            self.rev.insert(phys, logical);
            return Ok(phys);
        }
    }
}

/// Bookkeeping half of the recovery subsystem: remap + at-rest digests +
/// migration journal + per-phase counters. The backend drives the
/// retry/resync/quarantine ladder against the device and crypto engines.
#[derive(Debug)]
pub struct RecoveryController {
    cfg: RecoveryConfig,
    remap: SpareRemap,
    /// Expected SHA-1 of the at-rest bytes, keyed by *logical* address.
    /// Lazily seeded from the corrected (ECC-margin) readout on first
    /// check, updated on every store and migration.
    digests: HashMap<u64, [u8; DIGEST_LEN]>,
    journal: Vec<MigrationRecord>,
    /// Logical blocks the ladder permanently failed (spare region
    /// exhausted or last healthy bank refused): served from the
    /// corrected readout without re-entering the ladder, so one
    /// unrecoverable fault counts once instead of re-detecting (and
    /// re-paying retries + resync + a refused quarantine) on every
    /// subsequent access.
    degraded: BTreeSet<u64>,
    /// Per-phase counters (`recovery.*`).
    pub stats: RecoveryStats,
}

impl RecoveryController {
    /// A controller over `mem_cfg`'s geometry with ladder costs `cfg`.
    pub fn new(cfg: RecoveryConfig, mem_cfg: MemConfig) -> Self {
        RecoveryController {
            cfg,
            remap: SpareRemap::new(mem_cfg),
            digests: HashMap::new(),
            journal: Vec::new(),
            degraded: BTreeSet::new(),
            stats: RecoveryStats::default(),
        }
    }

    /// Ladder costs and bounds.
    pub fn cfg(&self) -> &RecoveryConfig {
        &self.cfg
    }

    /// The quarantine/remap table.
    pub fn remap(&self) -> &SpareRemap {
        &self.remap
    }

    /// Mutable access for translate/quarantine/retarget.
    pub fn remap_mut(&mut self) -> &mut SpareRemap {
        &mut self.remap
    }

    /// The migration journal, in commit order.
    pub fn journal(&self) -> &[MigrationRecord] {
        &self.journal
    }

    /// Records a store of `data` at logical `addr` (digest update).
    pub fn note_write(&mut self, addr: u64, data: &BlockData) {
        self.digests.insert(addr, Sha1::digest(data));
    }

    /// Expected at-rest digest for logical `addr`, lazily seeded from
    /// the corrected readout `corrected` when the block has never been
    /// written through the controller.
    pub fn expected_digest(&mut self, addr: u64, corrected: &BlockData) -> [u8; DIGEST_LEN] {
        *self
            .digests
            .entry(addr)
            .or_insert_with(|| Sha1::digest(corrected))
    }

    /// True when `data` matches the expected at-rest digest for `addr`.
    pub fn verify(&mut self, addr: u64, data: &BlockData, corrected: &BlockData) -> bool {
        Sha1::digest(data) == self.expected_digest(addr, corrected)
    }

    /// Journals one migration and bumps the counter.
    pub fn record_migration(&mut self, rec: MigrationRecord) {
        self.stats.migrated += 1;
        self.journal.push(rec);
    }

    /// True when logical `addr` was declared unrecoverable and degraded
    /// to direct corrected readouts.
    pub fn is_degraded(&self, addr: u64) -> bool {
        self.degraded.contains(&addr)
    }

    /// Marks logical `addr` permanently degraded. A newly marked block
    /// counts once in `unrecovered` (not once per access); returns true
    /// when the mark is new.
    pub fn mark_degraded(&mut self, addr: u64) -> bool {
        let new = self.degraded.insert(addr);
        self.stats.unrecovered += new as u64;
        new
    }

    /// Emits the `recovery.*` metrics subtree.
    pub fn observe(&self, out: &mut MetricsNode) {
        self.stats.observe(out);
        out.set_counter(
            "quarantined_banks",
            (self.remap.cfg.total_banks() - self.remap.healthy) as u64,
        );
        out.set_counter("remapped_blocks", self.remap.remapped_blocks() as u64);
        out.set_counter("journal_len", self.journal.len() as u64);
        out.set_counter("degraded_blocks", self.degraded.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_testkit as proptest;

    fn small_cfg() -> MemConfig {
        // 2 channels × 2 ranks × 2 banks = 8 flat banks; small rows so
        // tests can exhaust the spare region quickly.
        let mut cfg = MemConfig::table2();
        cfg.channels = 2;
        cfg.capacity_bytes = 1 << 24; // 16 MiB → 2 Ki rows/bank
        cfg
    }

    #[test]
    fn translate_is_identity_until_quarantine() {
        let cfg = small_cfg();
        let mut r = SpareRemap::new(cfg.clone());
        for a in [0u64, 0x40, 0x1000, 0x2_0000] {
            assert_eq!(r.translate(a).unwrap(), a);
        }
        assert_eq!(r.healthy_banks(), cfg.total_banks());
    }

    #[test]
    fn quarantine_remaps_into_healthy_banks_only() {
        let cfg = small_cfg();
        let mut r = SpareRemap::new(cfg.clone());
        // Find an address in bank 0 and quarantine that bank.
        let victim = (0..0x10000u64)
            .step_by(64)
            .find(|&a| decode(&cfg, a).flat_bank(&cfg) == 0)
            .unwrap();
        assert!(r.quarantine(0).unwrap());
        assert!(!r.quarantine(0).unwrap(), "second quarantine is a no-op");
        let t = r.translate(victim).unwrap();
        assert_ne!(t, victim);
        assert_ne!(decode(&cfg, t).flat_bank(&cfg), 0, "spare must be healthy");
        // Stable: same logical → same spare.
        assert_eq!(r.translate(victim).unwrap(), t);
        assert_eq!(r.logical_of(t), victim);
    }

    #[test]
    fn last_healthy_bank_is_refused() {
        let cfg = small_cfg();
        let banks = cfg.total_banks() as u64;
        let mut r = SpareRemap::new(cfg);
        for b in 0..banks - 1 {
            assert!(r.quarantine(b).unwrap());
        }
        assert_eq!(
            r.quarantine(banks - 1),
            Err(RecoveryError::LastHealthyBank { bank: banks - 1 })
        );
        assert_eq!(r.healthy_banks(), 1);
    }

    #[test]
    fn retarget_moves_off_a_newly_dead_spare_bank() {
        let cfg = small_cfg();
        let mut r = SpareRemap::new(cfg.clone());
        let victim = (0..0x10000u64)
            .step_by(64)
            .find(|&a| decode(&cfg, a).flat_bank(&cfg) == 0)
            .unwrap();
        r.quarantine(0).unwrap();
        let first = r.translate(victim).unwrap();
        let spare_bank = decode(&cfg, first).flat_bank(&cfg) as u64;
        r.quarantine(spare_bank).unwrap();
        let second = r.retarget(victim).unwrap();
        assert_ne!(second, first);
        assert!(!r.is_quarantined(decode(&cfg, second).flat_bank(&cfg) as u64));
        assert_eq!(r.logical_of(second), victim);
        assert_eq!(r.logical_of(first), first, "old spare slot is released");
    }

    /// Regression: `translate` must never return a slot in a quarantined
    /// bank — not even for a spare assigned before that bank was fused
    /// out. (Never-stored spares are skipped by the cohort migration, so
    /// without the in-place reassignment a caller's cascading-quarantine
    /// loop would re-probe the same dead slot forever.)
    #[test]
    fn translate_reassigns_spares_stranded_in_fused_banks() {
        let cfg = small_cfg();
        let mut r = SpareRemap::new(cfg.clone());
        let victim = (0..0x10000u64)
            .step_by(64)
            .find(|&a| decode(&cfg, a).flat_bank(&cfg) == 0)
            .unwrap();
        r.quarantine(0).unwrap();
        let first = r.translate(victim).unwrap();
        let spare_bank = decode(&cfg, first).flat_bank(&cfg) as u64;
        r.quarantine(spare_bank).unwrap();
        // No retarget call: plain translate must notice and move.
        let second = r.translate(victim).unwrap();
        assert_ne!(second, first);
        assert!(!r.is_quarantined(decode(&cfg, second).flat_bank(&cfg) as u64));
        assert_eq!(r.translate(victim).unwrap(), second, "then stays stable");
        assert_eq!(r.logical_of(second), victim);
    }

    /// First slot the spare cursor would hand out in `flat_bank` (top
    /// row, column 0) — the collision point for workload addresses that
    /// decode into the spare region.
    fn first_spare_slot(cfg: &MemConfig, flat_bank: usize) -> u64 {
        let d = DecodedAddr {
            channel: flat_bank / (cfg.ranks_per_channel * cfg.banks_per_rank),
            rank: (flat_bank / cfg.banks_per_rank) % cfg.ranks_per_channel,
            bank: flat_bank % cfg.banks_per_rank,
            row: cfg.rows_per_bank() - 1,
            column: 0,
        };
        encode(cfg, &d)
    }

    #[test]
    fn assign_spare_skips_identity_live_addresses() {
        let cfg = small_cfg();
        let mut r = SpareRemap::new(cfg.clone());
        // Serve the cursor's first candidate slot (top row of bank 0)
        // at identity *before* any spare is handed out.
        let top = first_spare_slot(&cfg, 0);
        assert_eq!(r.translate(top).unwrap(), top);
        // Quarantine a different bank and displace one of its blocks:
        // the spare must skip the identity-live slot.
        let victim = (0..0x10000u64)
            .step_by(64)
            .find(|&a| decode(&cfg, a).flat_bank(&cfg) == 1)
            .unwrap();
        r.quarantine(1).unwrap();
        let spare = r.translate(victim).unwrap();
        assert_ne!(spare, top, "spare cursor must not reuse a live slot");
        assert_eq!(r.translate(top).unwrap(), top, "identity block unmoved");
        assert_eq!(r.logical_of(spare), victim);
    }

    #[test]
    fn identity_address_aliasing_an_assigned_spare_is_displaced() {
        let cfg = small_cfg();
        let mut r = SpareRemap::new(cfg.clone());
        let victim = (0..0x10000u64)
            .step_by(64)
            .find(|&a| decode(&cfg, a).flat_bank(&cfg) == 1)
            .unwrap();
        r.quarantine(1).unwrap();
        let spare = r.translate(victim).unwrap();
        // A workload block whose address *is* the handed-out spare slot
        // arrives afterwards: it must not share the slot.
        let t = r.translate(spare).unwrap();
        assert_ne!(t, spare, "identity alias of a spare must be displaced");
        assert_eq!(r.logical_of(t), spare);
        assert_eq!(r.logical_of(spare), victim, "original mapping intact");
        assert_eq!(r.translate(victim).unwrap(), spare);
    }

    #[test]
    fn stale_identity_slots_are_not_current_homes() {
        let cfg = small_cfg();
        let mut r = SpareRemap::new(cfg.clone());
        let victim = (0..0x10000u64)
            .step_by(64)
            .find(|&a| decode(&cfg, a).flat_bank(&cfg) == 0)
            .unwrap();
        r.quarantine(0).unwrap();
        let spare = r.translate(victim).unwrap();
        assert!(r.is_current_home(spare), "assigned spare is the home");
        assert!(
            !r.is_current_home(victim),
            "displaced block's identity slot is stale"
        );
        assert!(r.is_current_home(victim + 64 * 1024), "untouched identity");
    }

    #[test]
    fn degraded_marking_is_idempotent() {
        let mut rc = RecoveryController::new(RecoveryConfig::default(), small_cfg());
        assert!(!rc.is_degraded(0x40));
        assert!(rc.mark_degraded(0x40), "first mark is new");
        assert!(!rc.mark_degraded(0x40), "only the first mark counts");
        assert!(rc.is_degraded(0x40));
        assert_eq!(rc.stats.unrecovered, 1, "one block, one unrecovered");
    }

    #[test]
    fn retry_delay_backs_off_exponentially_and_caps() {
        let cfg = RecoveryConfig::default();
        assert_eq!(cfg.retry_delay(0), Duration::from_ns(50));
        assert_eq!(cfg.retry_delay(1), Duration::from_ns(100));
        assert_eq!(cfg.retry_delay(3), Duration::from_ns(400));
        assert_eq!(cfg.retry_delay(4), Duration::from_ns(800));
        assert_eq!(cfg.retry_delay(40), Duration::from_ns(800), "capped");
    }

    #[test]
    fn digests_seed_lazily_and_update_on_write() {
        let mut rc = RecoveryController::new(RecoveryConfig::default(), small_cfg());
        let clean = [7u8; 64];
        assert!(rc.verify(0x40, &clean, &clean));
        let mut bad = clean;
        bad[0] ^= 1;
        assert!(!rc.verify(0x40, &bad, &clean));
        rc.note_write(0x40, &bad);
        assert!(rc.verify(0x40, &bad, &clean), "write moves the expectation");
    }

    #[test]
    fn observe_emits_phase_counters() {
        let mut rc = RecoveryController::new(RecoveryConfig::default(), small_cfg());
        rc.stats.detected = 3;
        rc.stats.unrecovered = 1;
        rc.remap_mut().quarantine(2).unwrap();
        rc.record_migration(MigrationRecord {
            logical: 0x40,
            from: 0x40,
            to: 0x80,
        });
        let mut m = MetricsNode::new();
        rc.observe(&mut m);
        assert_eq!(m.counter("detected"), Some(3));
        assert_eq!(m.counter("unrecovered"), Some(1));
        assert_eq!(m.counter("quarantined_banks"), Some(1));
        assert_eq!(m.counter("migrated"), Some(1));
        assert_eq!(m.counter("journal_len"), Some(1));
    }

    proptest::proptest! {
        #[test]
        fn remap_is_a_bijection_off_quarantined_banks(
            dead in proptest::collection::vec(0u64..8, 4),
            // Spans the whole address space — including the top rows the
            // spare cursor carves from, so identity blocks colliding
            // with the spare region are exercised, not just the
            // "workloads live at the bottom" happy path.
            blocks in proptest::collection::vec(0u64..(1u64 << 18), 64)
        ) {
            let cfg = small_cfg();
            let mut r = SpareRemap::new(cfg.clone());
            for b in dead {
                // Refusal of the last healthy bank is fine; everything
                // else must succeed.
                let _ = r.quarantine(b);
            }
            let live: Vec<u64> = blocks.iter().map(|b| b * 64).collect();
            let mut targets = std::collections::BTreeMap::new();
            for &a in &live {
                let t = r.translate(a).unwrap();
                // Never lands in a quarantined bank.
                let fb = decode(&cfg, t).flat_bank(&cfg) as u64;
                proptest::prop_assert!(!r.is_quarantined(fb));
                // Stable under re-translation.
                proptest::prop_assert_eq!(r.translate(a).unwrap(), t);
                // Injective: distinct logical addresses never share a
                // physical slot.
                if let Some(prev) = targets.insert(t, a) {
                    proptest::prop_assert_eq!(prev, a, "two blocks mapped to one slot");
                }
                // Round trip through the inverse.
                proptest::prop_assert_eq!(r.logical_of(t), if t == a { t } else { a });
            }
        }
    }
}
