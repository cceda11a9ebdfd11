//! The out-of-order core pipeline.
//!
//! One [`Core`] is stepped one cycle at a time against a shared
//! [`MemoryHierarchy`]. Each step: (1) pump store-buffer drains and detect
//! imprecise store exceptions, (2) retire completed instructions in order
//! up to the core width, (3) fetch/dispatch new instructions into the ROB.
//!
//! Exceptions surface as [`StepOutcome`] values; the embedding system
//! (ise-sim) routes them through the FSBC/FSB and the OS model and then
//! calls [`Core::resume_at`]. The core itself never blocks on software.

use crate::rob::{ReplayRing, RobEntry, RobRing};
use crate::store_buffer::{DrainFault, StoreBuffer};
use crate::trace::{PersistTrace, TraceSource};
use ise_engine::{skip_clock, Cycle};
use ise_mem::hierarchy::{Access, MemoryHierarchy};
use ise_types::addr::{Addr, ByteMask};
use ise_types::config::CoreConfig;
use ise_types::exception::ExceptionKind;
use ise_types::instr::{FenceKind, InstrKind};
use ise_types::stats::CoreStats;
use ise_types::{CoreId, FaultingStoreEntry, Instruction};

/// What a single [`Core::step`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// Normal progress (possibly zero instructions retired this cycle).
    Progress,
    /// The core is waiting for a previously reported exception to be
    /// resolved (see [`Core::resume_at`]).
    Waiting,
    /// A store-buffer drain came back denied: the whole buffer has been
    /// drained (same-stream, §4.6) and the pipeline flushed. The entries
    /// must be written to this core's FSB and the OS handler invoked.
    Imprecise(Vec<FaultingStoreEntry>),
    /// A precise exception is pending on the oldest instruction (a load or
    /// atomic whose access was denied). The store buffer is already empty,
    /// as §5.3 requires. The OS must resolve it; the instruction then
    /// re-executes.
    Precise {
        /// Faulting address.
        addr: Addr,
        /// Exception kind.
        kind: ExceptionKind,
    },
    /// Trace exhausted, ROB and store buffer empty: the program finished.
    Finished,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreState {
    Running,
    /// Stalled until the OS resumes us.
    WaitResume,
    Finished,
}

/// One simulated out-of-order core.
pub struct Core<T> {
    id: CoreId,
    cfg: CoreConfig,
    trace: T,
    trace_done: bool,
    rob: RobRing,
    /// Instructions squashed by a flush, awaiting re-dispatch (oldest
    /// first). Refilled before pulling from the trace.
    replay: ReplayRing,
    sb: StoreBuffer,
    state: CoreState,
    resume_at: Cycle,
    /// Whether the most recent [`Core::step`] changed any state beyond
    /// the per-cycle stall accounting. A "dead" step (no drain
    /// completion/issue, no retirement, no dispatch) lets the
    /// cycle-skipping clock jump ahead; see [`Core::next_event`].
    step_activity: bool,
    /// Set when a precise fault was reported and the OS has resolved it:
    /// the faulting instruction's next access must succeed-or-re-fault.
    stats: CoreStats,
}

/// Which stall counter one dead cycle charges (see
/// [`Core::charge_idle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IdleCharge {
    /// No counter: the head is still computing or the ROB is empty.
    Nothing,
    /// `store_stall_cycles`: retire blocked by a store.
    StoreStall,
    /// `sync_stall_cycles`: retire blocked by a fence/atomic/precise
    /// drain.
    SyncStall,
}

impl<T> std::fmt::Debug for Core<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("rob", &self.rob.len())
            .field("sb", &self.sb.len())
            .finish_non_exhaustive()
    }
}

impl<T: TraceSource> Core<T> {
    /// Creates a core executing `trace` under `cfg`.
    pub fn new(id: CoreId, cfg: CoreConfig, trace: T) -> Self {
        Core {
            id,
            cfg,
            trace,
            trace_done: false,
            rob: RobRing::new(cfg.rob_entries),
            replay: ReplayRing::new(cfg.rob_entries),
            sb: StoreBuffer::new(id, cfg.sb_entries, cfg.model),
            state: CoreState::Running,
            resume_at: 0,
            step_activity: true,
            stats: CoreStats::default(),
        }
    }

    /// This core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Statistics so far. `cycles` is maintained by [`Core::step`].
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Exports this core's pipeline and store-buffer counters into the
    /// shared telemetry registry, keyed `core<N>.<counter>` in a fixed
    /// order — the per-core shard of the system-wide metrics spine.
    pub fn export_telemetry(&self, reg: &mut ise_telemetry::Registry) {
        let n = self.id.index();
        for (name, v) in self.stats.fields() {
            reg.add(&format!("core{n}.{name}"), v);
        }
        reg.add(&format!("core{n}.sb_drained"), self.sb.drained());
        reg.add(&format!("core{n}.sb_coalesced"), self.sb.coalesced());
    }

    /// Store-buffer occupancy (exposed for the ASO study).
    pub fn sb_len(&self) -> usize {
        self.sb.len()
    }

    /// Stores this core's buffer drained to the hierarchy — one term of
    /// the chaos campaigns' store-conservation invariant.
    pub fn sb_drained(&self) -> u64 {
        self.sb.drained()
    }

    /// Stores coalesced away in the buffer (WC only) — the other
    /// non-OS-applied term of store conservation.
    pub fn sb_coalesced(&self) -> u64 {
        self.sb.coalesced()
    }

    /// Stores ever retired into this core's buffer — the left-hand side
    /// of the killed-core conservation check (see
    /// [`StoreBuffer::retired`]).
    pub fn sb_retired(&self) -> u64 {
        self.sb.retired()
    }

    /// Stores still sitting in the buffer (neither drained, coalesced,
    /// nor handed to the FSB) — the residual term of killed-core
    /// conservation.
    pub fn sb_pending(&self) -> usize {
        self.sb.len()
    }

    /// Caps concurrently in-flight store-buffer drains (the ASO
    /// checkpoint budget; see `ise-aso`).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn set_sb_max_in_flight(&mut self, cap: usize) {
        self.sb.set_max_in_flight(cap);
    }

    /// Whether the core has fully finished its trace.
    pub fn is_finished(&self) -> bool {
        self.state == CoreState::Finished
    }

    /// Stalls a running core until `cycle` (external interrupt delivery:
    /// the handler borrows the pipeline without flushing it — interrupts
    /// do not require draining the store buffer, paper §5.3).
    pub fn stall_until(&mut self, cycle: Cycle) {
        if self.state == CoreState::Running {
            self.resume_at = self.resume_at.max(cycle);
        }
    }

    /// Resumes the core at `cycle` after the OS finished handling the
    /// exception it reported.
    ///
    /// # Panics
    ///
    /// Panics if the core was not waiting on an exception.
    pub fn resume_at(&mut self, cycle: Cycle) {
        assert_eq!(
            self.state,
            CoreState::WaitResume,
            "resume_at without a pending exception"
        );
        self.state = CoreState::Running;
        self.resume_at = cycle;
    }

    fn flush_pipeline(&mut self) {
        // Move every uncommitted instruction back for re-dispatch, oldest
        // first, ahead of anything already queued for replay.
        while let Some(instr) = self.rob.pop_back() {
            self.replay.push_front(instr);
        }
    }

    fn next_instruction(&mut self) -> Option<Instruction> {
        if let Some(i) = self.replay.pop_front() {
            return Some(i);
        }
        if self.trace_done {
            return None;
        }
        match self.trace.next_instr() {
            Some(i) => Some(i),
            None => {
                self.trace_done = true;
                None
            }
        }
    }

    /// Handles a detected drain fault per the configured drain policy:
    /// same-stream (§4.6, the design) drains the whole store buffer to
    /// the FSB; split-stream (§4.5, the ablation) extracts only the
    /// faulting entry and leaves younger stores draining to memory.
    /// Either way the pipeline flushes and fetch stops (paper §5.3).
    fn take_imprecise(&mut self, fault: DrainFault) -> StepOutcome {
        let entries = match self.cfg.drain_policy {
            ise_types::DrainPolicy::SameStream => self.sb.drain_to_fsb(fault),
            ise_types::DrainPolicy::SplitStream => self
                .sb
                .extract_faulting(fault)
                // `pump` reported this index against the same buffer state
                // this cycle; it cannot be stale.
                .unwrap_or_else(|e| unreachable!("{e}")),
        };
        self.flush_pipeline();
        self.state = CoreState::WaitResume;
        self.stats.imprecise_exceptions += 1;
        self.stats.faulting_stores += entries.iter().filter(|e| e.is_faulting()).count() as u64;
        StepOutcome::Imprecise(entries)
    }

    /// Advances the core by one cycle.
    pub fn step(&mut self, now: Cycle, hier: &mut MemoryHierarchy) -> StepOutcome {
        match self.state {
            CoreState::Finished => return StepOutcome::Finished,
            CoreState::WaitResume => return StepOutcome::Waiting,
            CoreState::Running if now < self.resume_at => return StepOutcome::Waiting,
            CoreState::Running => {}
        }
        self.stats.cycles = self.stats.cycles.max(now + 1);
        // Assume activity until the normal exit proves otherwise, so the
        // exception paths (which return early) always count as active.
        self.step_activity = true;
        let sb_before = (self.sb.len(), self.sb.in_flight(), self.sb.drained());
        let mut issued_at_head = false;

        // 1. Store-buffer drains; a denied response triggers the
        //    imprecise path immediately.
        if let Some(fault) = self.sb.pump(now, hier) {
            return self.take_imprecise(fault);
        }

        // 2. In-order retirement.
        let mut retired = 0;
        while retired < self.cfg.width {
            let Some(head) = self.rob.front() else {
                break;
            };
            match head.instr.kind {
                InstrKind::Store { addr, value } if self.cfg.model.has_store_buffer() => {
                    if head.complete_at > now {
                        break; // address/data not ready
                    }
                    if !self.sb.has_space() {
                        self.stats.store_stall_cycles += 1;
                        break;
                    }
                    self.sb.push(addr, value, ByteMask::FULL);
                    self.rob.pop_front();
                    self.stats.retired += 1;
                    retired += 1;
                }
                InstrKind::Store { addr, .. } => {
                    // SC: the store accesses memory non-speculatively at
                    // the head of the ROB and must complete (fault-free)
                    // before retiring — the "disable the store buffer"
                    // baseline of §2.3 whose cost the paper quantifies.
                    if !head.issued {
                        let r = hier.access(Access::store(self.id, addr), now);
                        if r.latency > hier.config().l1d.latency {
                            self.stats.l1d_misses += 1;
                        }
                        self.rob.head_mark_issued(now + r.latency, r.fault);
                        issued_at_head = true;
                        self.stats.store_stall_cycles += 1;
                        break;
                    }
                    if head.complete_at > now {
                        self.stats.store_stall_cycles += 1;
                        break;
                    }
                    if let Some(kind) = head.fault {
                        return self.take_precise(head.instr, kind);
                    }
                    self.rob.pop_front();
                    self.stats.retired += 1;
                    retired += 1;
                }
                InstrKind::Load { .. } => {
                    if head.complete_at > now {
                        break;
                    }
                    if let Some(kind) = head.fault {
                        // Precise exception: drain the store buffer first
                        // (§5.3). If a drain faults meanwhile, the pump at
                        // the next step takes the imprecise path instead.
                        if !self.sb.is_empty() {
                            self.stats.sync_stall_cycles += 1;
                            break;
                        }
                        return self.take_precise(head.instr, kind);
                    }
                    self.rob.pop_front();
                    self.stats.retired += 1;
                    retired += 1;
                }
                InstrKind::Fence(kind) => {
                    let needs_empty = match kind {
                        FenceKind::Full | FenceKind::StoreStore => !self.sb.is_empty(),
                        // Loads already complete before retirement in this
                        // model, so load-load order is enforced for free.
                        FenceKind::LoadLoad => false,
                    };
                    if needs_empty {
                        self.stats.sync_stall_cycles += 1;
                        break;
                    }
                    self.rob.pop_front();
                    self.stats.retired += 1;
                    retired += 1;
                }
                InstrKind::Atomic { addr, .. } => {
                    // Atomics wait for the store buffer to drain, then
                    // perform their access non-speculatively at the head.
                    if !self.sb.is_empty() {
                        self.stats.sync_stall_cycles += 1;
                        break;
                    }
                    if !head.issued {
                        let r = hier.access(Access::store(self.id, addr), now);
                        self.rob.head_mark_issued(now + r.latency, r.fault);
                        issued_at_head = true;
                        break;
                    }
                    if head.complete_at > now {
                        self.stats.sync_stall_cycles += 1;
                        break;
                    }
                    if let Some(kind) = head.fault {
                        return self.take_precise(head.instr, kind);
                    }
                    self.rob.pop_front();
                    self.stats.retired += 1;
                    retired += 1;
                }
                InstrKind::Other { .. } => {
                    if head.complete_at > now {
                        break;
                    }
                    self.rob.pop_front();
                    self.stats.retired += 1;
                    retired += 1;
                }
            }
        }

        // 3. Fetch/dispatch.
        let mut dispatched = 0;
        while dispatched < self.cfg.width && self.rob.len() < self.cfg.rob_entries {
            let Some(instr) = self.next_instruction() else {
                break;
            };
            let entry = self.dispatch(instr, now, hier);
            self.rob.push_back(entry);
            dispatched += 1;
        }

        // A step is "dead" when it neither moved the store buffer
        // (completion or issue), retired, dispatched, nor issued a
        // head-of-ROB access: re-running it at a later cycle would make
        // the same decisions, so the clock may skip ahead (charging the
        // per-cycle stall counters in bulk — see `charge_idle`).
        self.step_activity = sb_before != (self.sb.len(), self.sb.in_flight(), self.sb.drained())
            || retired > 0
            || dispatched > 0
            || issued_at_head;

        if self.trace_done && self.replay.is_empty() && self.rob.is_empty() && self.sb.is_empty() {
            self.state = CoreState::Finished;
            return StepOutcome::Finished;
        }
        StepOutcome::Progress
    }

    /// The earliest future cycle at which stepping this core could do
    /// anything a dead step would not — the core's wake-up time for the
    /// cycle-skipping clock.
    ///
    /// Must be called after [`Core::step`] at `now`. The result is
    /// *conservative*: waking early is harmless (the step re-evaluates
    /// and charges exactly what the reference clock would have), waking
    /// late never happens because every state change is driven by one of
    /// the deadlines below:
    ///
    /// * a finished core never acts again (`Cycle::MAX`);
    /// * a core waiting on the OS acts only once `resume_at` is set
    ///   (`Cycle::MAX`; the embedding system resumes or kills it
    ///   synchronously within the same cycle it faulted);
    /// * a stalled-but-running core acts at `resume_at`;
    /// * after an *active* step, the very next cycle may differ
    ///   (`now + 1`);
    /// * after a dead step, only an in-flight drain completing or the
    ///   ROB head's `complete_at` arriving can change a decision.
    pub fn next_event(&self, now: Cycle) -> Cycle {
        match self.state {
            CoreState::Finished => return Cycle::MAX,
            CoreState::WaitResume => return Cycle::MAX,
            CoreState::Running if now < self.resume_at => return self.resume_at,
            CoreState::Running => {}
        }
        if self.step_activity {
            return now + 1;
        }
        let mut next = Cycle::MAX;
        if let Some(c) = self.sb.next_completion() {
            // A PC drain that completed out of FIFO order can sit in the
            // past; clamp forward (the wake is a no-op re-evaluation).
            next = next.min(c.max(now + 1));
        }
        if let Some(head) = self.rob.front() {
            if head.complete_at > now {
                next = next.min(head.complete_at);
            }
        }
        if next == Cycle::MAX {
            // No deadline found — step every cycle (conservative; a dead
            // step with neither an in-flight drain nor a pending head
            // deadline resolves within one cycle anyway).
            next = now + 1;
        }
        next
    }

    /// Which stall counter one dead cycle at time `t` charges, given the
    /// decisions [`Core::step`] provably makes on a dead cycle. Mirrors
    /// the retirement stage's `break` arms exactly:
    ///
    /// * a buffered-model store whose data is ready but whose buffer is
    ///   full charges `store_stall_cycles`;
    /// * an issued SC store still awaiting its access charges
    ///   `store_stall_cycles`;
    /// * a completed-but-faulting load waiting for the store buffer to
    ///   drain charges `sync_stall_cycles`;
    /// * a full/store-store fence over a non-empty buffer charges
    ///   `sync_stall_cycles`;
    /// * an atomic waiting on the buffer, or issued and awaiting its
    ///   access, charges `sync_stall_cycles`;
    /// * everything else (head still computing, empty ROB) charges
    ///   nothing.
    fn idle_charge(&self, t: Cycle) -> IdleCharge {
        let Some(head) = self.rob.front() else {
            return IdleCharge::Nothing;
        };
        match head.instr.kind {
            InstrKind::Store { .. } if self.cfg.model.has_store_buffer() => {
                if head.complete_at <= t && !self.sb.has_space() {
                    IdleCharge::StoreStall
                } else {
                    IdleCharge::Nothing
                }
            }
            InstrKind::Store { .. } => {
                if head.issued && head.complete_at > t {
                    IdleCharge::StoreStall
                } else {
                    IdleCharge::Nothing
                }
            }
            InstrKind::Load { .. } => {
                if head.complete_at <= t && head.fault.is_some() && !self.sb.is_empty() {
                    IdleCharge::SyncStall
                } else {
                    IdleCharge::Nothing
                }
            }
            InstrKind::Fence(kind) => {
                let needs_empty = match kind {
                    FenceKind::Full | FenceKind::StoreStore => !self.sb.is_empty(),
                    FenceKind::LoadLoad => false,
                };
                if needs_empty {
                    IdleCharge::SyncStall
                } else {
                    IdleCharge::Nothing
                }
            }
            InstrKind::Atomic { .. } => {
                if !self.sb.is_empty() || (head.issued && head.complete_at > t) {
                    IdleCharge::SyncStall
                } else {
                    IdleCharge::Nothing
                }
            }
            InstrKind::Other { .. } => IdleCharge::Nothing,
        }
    }

    /// Bulk-charges the per-cycle stall accounting for `skipped` dead
    /// cycles following a step at `now` — cycles `now + 1` through
    /// `now + skipped` that the cycle-skipping clock did not execute.
    ///
    /// On every executed cycle the reference clock (a) advances
    /// `stats.cycles` and (b) charges at most one stall counter from the
    /// retirement stage's blocked arm. Because the skipped cycles are
    /// dead, no state changes across the window and the blocked arm's
    /// decision is constant (every deadline that could flip it bounds the
    /// window via [`Core::next_event`]), so charging `per-cycle × skipped`
    /// reproduces the reference counters exactly.
    pub fn charge_idle(&mut self, now: Cycle, skipped: u64) {
        if skipped == 0 || self.state != CoreState::Running || now < self.resume_at {
            // Finished/waiting cores never execute the charging path in
            // the reference loop either.
            return;
        }
        self.stats.cycles = self.stats.cycles.max(now + skipped + 1);
        match self.idle_charge(now + 1) {
            IdleCharge::Nothing => {}
            IdleCharge::StoreStall => self.stats.store_stall_cycles += skipped,
            IdleCharge::SyncStall => self.stats.sync_stall_cycles += skipped,
        }
    }

    fn take_precise(&mut self, instr: Instruction, kind: ExceptionKind) -> StepOutcome {
        let addr = instr
            .kind
            .addr()
            .expect("precise faults come from memory ops");
        self.flush_pipeline();
        self.state = CoreState::WaitResume;
        self.stats.precise_exceptions += 1;
        StepOutcome::Precise { addr, kind }
    }

    /// Whether an older, still-unretired store to the same 8-byte word
    /// sits in the ROB (store-to-load forwarding source).
    fn rob_forwards(&self, addr: Addr) -> bool {
        self.rob.forwards_store(addr.raw() >> 3)
    }

    fn dispatch(&mut self, instr: Instruction, now: Cycle, hier: &mut MemoryHierarchy) -> RobEntry {
        let mut fault = None;
        let mut issued = false;
        let complete_at = match instr.kind {
            InstrKind::Other { latency } => now + latency as u64,
            InstrKind::Fence(_) => now,
            InstrKind::Load { addr, .. } => {
                if self.sb.forwards(addr) || self.rob_forwards(addr) {
                    // Store-to-load forwarding from the store buffer or an
                    // older in-flight store: one-cycle bypass.
                    now + 1
                } else {
                    let r = hier.access(Access::load(self.id, addr), now);
                    fault = r.fault;
                    if r.latency > hier.config().l1d.latency {
                        self.stats.l1d_misses += 1;
                    }
                    now + r.latency
                }
            }
            InstrKind::Store { .. } => {
                // Address generation + data ready. PC/WC access memory
                // post-retirement via the store buffer; SC issues the
                // access non-speculatively once the store reaches the ROB
                // head (see the retirement stage).
                now + 1
            }
            InstrKind::Atomic { .. } => {
                issued = false;
                now + 1
            }
        };
        let _ = issued;
        RobEntry {
            instr,
            complete_at,
            fault,
            issued: false,
        }
    }
}

impl<T: PersistTrace> Core<T> {
    /// Saves the core's dynamic state under a `CORE` section: the trace
    /// cursor, pipeline rings, store buffer, stall/resume machine, and
    /// statistics. Static identity (`id`, `cfg`, the trace *contents*)
    /// is not serialized — the embedder rebuilds the core from
    /// configuration and then calls [`Core::restore_state`], which
    /// validates saved occupancies against that configuration.
    pub fn save_state(&self, w: &mut ise_types::persist::Writer) {
        use ise_types::persist::Persist;
        w.section(*b"CORE", |w| {
            self.trace.save_cursor(w);
            w.bool(self.trace_done);
            self.rob.save_state(w);
            self.replay.save_state(w);
            self.sb.save_state(w);
            w.u8(match self.state {
                CoreState::Running => 0,
                CoreState::WaitResume => 1,
                CoreState::Finished => 2,
            });
            w.u64(self.resume_at);
            w.bool(self.step_activity);
            self.stats.save(w);
        });
    }

    /// Restores the core in place from a [`Core::save_state`] stream.
    /// The core must have been built with the same configuration and
    /// trace contents the snapshot was taken against.
    pub fn restore_state(
        &mut self,
        r: &mut ise_types::persist::Reader,
    ) -> Result<(), ise_types::persist::PersistError> {
        use ise_types::persist::{Persist, PersistError};
        r.section(*b"CORE", |r| {
            self.trace.restore_cursor(r)?;
            self.trace_done = r.bool()?;
            self.rob = RobRing::restore_state(r, self.cfg.rob_entries)?;
            self.replay = ReplayRing::restore_state(r, self.cfg.rob_entries)?;
            self.sb.restore_state(r)?;
            self.state = match r.u8()? {
                0 => CoreState::Running,
                1 => CoreState::WaitResume,
                2 => CoreState::Finished,
                _ => return Err(PersistError::Corrupt("CoreState discriminant")),
            };
            self.resume_at = r.u64()?;
            self.step_activity = r.bool()?;
            self.stats = Persist::restore(r)?;
            Ok(())
        })
    }
}

/// Runs a single core to completion against a hierarchy with no faults and
/// returns its stats — the building block of the Table 3 speedup study.
///
/// `max_cycles` bounds runaway executions. The clock is the one
/// [`ise_engine::skip_clock`] picks for the hierarchy's configuration;
/// both clocks produce identical statistics (see [`run_cores`]).
///
/// # Panics
///
/// Panics if the core reports an exception (callers wanting exception
/// handling must embed the core in a system) or if `max_cycles` elapses.
pub fn run_to_completion<T: TraceSource>(
    core: &mut Core<T>,
    hier: &mut MemoryHierarchy,
    max_cycles: Cycle,
) -> CoreStats {
    let skip = skip_clock(hier.config());
    run_cores(std::slice::from_mut(core), hier, max_cycles, skip, |_| {});
    core.stats()
}

/// Steps a set of cores round-robin against a shared hierarchy until all
/// finish, returning per-core stats — the multicore building block of the
/// Table 3 study (exception-free runs only). The clock is picked as in
/// [`run_to_completion`].
///
/// # Panics
///
/// Panics if any core reports an exception or `max_cycles` elapses.
pub fn run_multicore<T: TraceSource>(
    cores: &mut [Core<T>],
    hier: &mut MemoryHierarchy,
    max_cycles: Cycle,
) -> Vec<CoreStats> {
    let skip = skip_clock(hier.config());
    run_cores(cores, hier, max_cycles, skip, |_| {});
    cores.iter().map(|c| c.stats()).collect()
}

/// The bare-core clock loop: steps `cores` round-robin against a shared
/// hierarchy from cycle 0 until all finish, handing each core to
/// `on_step` right after its step (the ASO sweep samples store-buffer
/// occupancy there).
///
/// `skip = false` runs the reference `now += 1` loop. `skip = true`
/// jumps the clock to the minimum of every core's [`Core::next_event`] —
/// a global window in which *no* core acts, so no core's view of the
/// shared hierarchy can diverge from the reference schedule — and
/// bulk-charges each core for the window via [`Core::charge_idle`].
/// Both clocks step every core at the same cycles, so they produce
/// identical [`CoreStats`] and identical `on_step` observations; the
/// differential tests pin that down.
///
/// # Panics
///
/// Panics if any core reports an exception or `max_cycles` elapses — at
/// the same cycle under either clock, since jumps clamp to `max_cycles`.
pub fn run_cores<T: TraceSource>(
    cores: &mut [Core<T>],
    hier: &mut MemoryHierarchy,
    max_cycles: Cycle,
    skip: bool,
    mut on_step: impl FnMut(&Core<T>),
) {
    let mut now = 0;
    loop {
        let mut all_done = true;
        for core in cores.iter_mut() {
            match core.step(now, hier) {
                StepOutcome::Finished => {}
                StepOutcome::Progress | StepOutcome::Waiting => all_done = false,
                StepOutcome::Imprecise(_) | StepOutcome::Precise { .. } => {
                    panic!("unexpected exception on a bare core")
                }
            }
            on_step(core);
        }
        if all_done {
            return;
        }
        let next = if skip {
            cores
                .iter()
                .map(|c| c.next_event(now))
                .min()
                .unwrap_or(Cycle::MAX)
                .clamp(now + 1, max_cycles)
        } else {
            now + 1
        };
        let skipped = next - now - 1;
        if skipped > 0 {
            for core in cores.iter_mut() {
                core.charge_idle(now, skipped);
            }
        }
        now = next;
        assert!(now < max_cycles, "exceeded cycle budget");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::VecTrace;
    use ise_types::config::SystemConfig;
    use ise_types::instr::Reg;
    use ise_types::model::ConsistencyModel;

    fn hier() -> MemoryHierarchy {
        let mut cfg = SystemConfig::isca23();
        cfg.cores = 2;
        cfg.noc.mesh_x = 2;
        cfg.noc.mesh_y = 1;
        MemoryHierarchy::new(cfg)
    }

    fn core_with(model: ConsistencyModel, instrs: Vec<Instruction>) -> Core<VecTrace> {
        let cfg = CoreConfig::isca23().with_model(model);
        Core::new(CoreId(0), cfg, VecTrace::new(instrs))
    }

    fn store_heavy_trace(n: u64) -> Vec<Instruction> {
        // Stores to distinct lines, interleaved with ALU work: the WC-vs-SC
        // separation case.
        let mut v = Vec::new();
        for i in 0..n {
            v.push(Instruction::store(Addr::new(i * 64), i));
            for _ in 0..3 {
                v.push(Instruction::other());
            }
        }
        v
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let mut c = core_with(ConsistencyModel::Wc, vec![]);
        let mut h = hier();
        assert_eq!(c.step(0, &mut h), StepOutcome::Finished);
        assert!(c.is_finished());
    }

    #[test]
    fn alu_trace_retires_at_full_width() {
        let n = 400;
        let mut c = core_with(ConsistencyModel::Wc, vec![Instruction::other(); n]);
        let mut h = hier();
        let stats = run_to_completion(&mut c, &mut h, 10_000);
        assert_eq!(stats.retired, n as u64);
        // 4-wide: ~n/4 cycles plus small pipeline fill.
        assert!(
            stats.cycles <= (n as u64 / 4) + 16,
            "cycles {}",
            stats.cycles
        );
    }

    #[test]
    fn wc_outperforms_sc_on_store_misses() {
        let trace = store_heavy_trace(200);
        let mut h1 = hier();
        let mut sc = core_with(ConsistencyModel::Sc, trace.clone());
        let sc_stats = run_to_completion(&mut sc, &mut h1, 10_000_000);
        let mut h2 = hier();
        let mut wc = core_with(ConsistencyModel::Wc, trace);
        let wc_stats = run_to_completion(&mut wc, &mut h2, 10_000_000);
        let speedup = sc_stats.cycles as f64 / wc_stats.cycles as f64;
        assert!(
            speedup > 1.2,
            "WC should clearly beat SC on store misses, got {speedup:.2}x \
             (SC {} vs WC {})",
            sc_stats.cycles,
            wc_stats.cycles
        );
    }

    #[test]
    fn pc_between_sc_and_wc() {
        let trace = store_heavy_trace(200);
        let run = |m| {
            let mut h = hier();
            let mut c = core_with(m, trace.clone());
            run_to_completion(&mut c, &mut h, 10_000_000).cycles
        };
        let (sc, pc, wc) = (
            run(ConsistencyModel::Sc),
            run(ConsistencyModel::Pc),
            run(ConsistencyModel::Wc),
        );
        assert!(wc <= pc, "WC {wc} should be <= PC {pc}");
        assert!(pc <= sc, "PC {pc} should be <= SC {sc}");
    }

    #[test]
    fn fence_waits_for_store_buffer() {
        let trace = vec![
            Instruction::store(Addr::new(0x1000), 1),
            Instruction::fence(FenceKind::Full),
            Instruction::other(),
        ];
        let mut c = core_with(ConsistencyModel::Wc, trace);
        let mut h = hier();
        let stats = run_to_completion(&mut c, &mut h, 100_000);
        assert!(
            stats.sync_stall_cycles > 0,
            "fence must stall for the drain"
        );
        assert_eq!(stats.retired, 3);
    }

    #[test]
    fn atomic_drains_and_accesses() {
        let trace = vec![
            Instruction::store(Addr::new(0x2000), 1),
            Instruction::atomic(Addr::new(0x3000), 1, Reg(0)),
        ];
        let mut c = core_with(ConsistencyModel::Wc, trace);
        let mut h = hier();
        let stats = run_to_completion(&mut c, &mut h, 100_000);
        assert_eq!(stats.retired, 2);
        assert!(stats.sync_stall_cycles > 0);
    }

    #[test]
    fn store_to_load_forwarding_is_fast() {
        let a = Addr::new(0x4000);
        let trace = vec![Instruction::store(a, 7), Instruction::load(a, Reg(0))];
        let mut c = core_with(ConsistencyModel::Wc, trace);
        let mut h = hier();
        let stats = run_to_completion(&mut c, &mut h, 100_000);
        assert_eq!(stats.retired, 2);
        // The load must not have missed to memory.
        assert_eq!(stats.l1d_misses, 0);
    }

    struct DenyPage;
    impl ise_mem::FaultOracle for DenyPage {
        fn check(&self, addr: Addr, _s: bool) -> Option<ExceptionKind> {
            (addr.page().index() == 0x100).then_some(ExceptionKind::BusError)
        }
    }

    fn faulting_hier() -> MemoryHierarchy {
        let mut cfg = SystemConfig::isca23();
        cfg.cores = 2;
        cfg.noc.mesh_x = 2;
        cfg.noc.mesh_y = 1;
        MemoryHierarchy::with_oracle(cfg, std::rc::Rc::new(DenyPage))
    }

    #[test]
    fn store_fault_raises_imprecise_with_same_stream_drain() {
        let bad = Addr::new(0x100 * 4096);
        let trace = vec![
            Instruction::store(bad, 1),
            Instruction::store(Addr::new(0x9000), 2), // younger, non-faulting
            Instruction::other(),
        ];
        let mut c = core_with(ConsistencyModel::Pc, trace);
        let mut h = faulting_hier();
        let mut now = 0;
        loop {
            match c.step(now, &mut h) {
                StepOutcome::Imprecise(entries) => {
                    // Same-stream: both stores drained, in program order.
                    assert_eq!(entries.len(), 2);
                    assert_eq!(entries[0].addr, bad);
                    assert!(entries[0].is_faulting());
                    assert_eq!(entries[1].addr, Addr::new(0x9000));
                    assert!(!entries[1].is_faulting());
                    assert_eq!(c.stats().imprecise_exceptions, 1);
                    return;
                }
                StepOutcome::Precise { .. } => panic!("store fault must be imprecise"),
                StepOutcome::Finished => panic!("must fault before finishing"),
                _ => {}
            }
            now += 1;
            assert!(now < 100_000);
        }
    }

    #[test]
    fn split_stream_extracts_only_the_faulting_store() {
        let bad = Addr::new(0x100 * 4096);
        let trace = vec![
            Instruction::store(bad, 1),
            Instruction::store(Addr::new(0x9000), 2), // younger, clean
        ];
        let mut cfg = CoreConfig::isca23().with_model(ConsistencyModel::Pc);
        cfg.drain_policy = ise_types::DrainPolicy::SplitStream;
        let mut c = Core::new(CoreId(0), cfg, VecTrace::new(trace));
        let mut h = faulting_hier();
        let mut now = 0;
        loop {
            match c.step(now, &mut h) {
                StepOutcome::Imprecise(entries) => {
                    assert_eq!(
                        entries.len(),
                        1,
                        "split-stream sends only the faulting store"
                    );
                    assert_eq!(entries[0].addr, bad);
                    assert!(entries[0].is_faulting());
                    // The clean younger store stays in the SB.
                    assert_eq!(c.sb_len(), 1);
                    // Resume; the remaining store drains to memory and the
                    // core finishes.
                    c.resume_at(now + 100);
                    break;
                }
                StepOutcome::Finished => panic!("must fault first"),
                _ => {}
            }
            now += 1;
            assert!(now < 100_000);
        }
        let mut t = now + 100;
        loop {
            match c.step(t, &mut h) {
                StepOutcome::Finished => break,
                StepOutcome::Imprecise(_) | StepOutcome::Precise { .. } => {
                    panic!("remaining store is clean; no further exceptions")
                }
                _ => {}
            }
            t += 1;
            assert!(t < now + 100_000);
        }
        assert_eq!(c.stats().retired, 2);
    }

    #[test]
    fn load_fault_raises_precise_and_reexecutes() {
        let bad = Addr::new(0x100 * 4096);
        let trace = vec![Instruction::load(bad, Reg(0)), Instruction::other()];
        let mut c = core_with(ConsistencyModel::Wc, trace);
        let mut h = faulting_hier();
        let mut now = 0;
        let mut seen_precise = false;
        loop {
            match c.step(now, &mut h) {
                StepOutcome::Precise { addr, kind } => {
                    assert_eq!(addr, bad);
                    assert_eq!(kind, ExceptionKind::BusError);
                    seen_precise = true;
                    // "OS" resolves nothing (page still faults), but we
                    // can still resume; the load will fault again. To
                    // terminate the test, resume and expect a second
                    // precise fault.
                    c.resume_at(now + 10);
                    if c.stats().precise_exceptions >= 2 {
                        break;
                    }
                }
                StepOutcome::Finished => panic!("faulting load cannot finish"),
                _ => {}
            }
            now += 1;
            if now > 200_000 {
                break;
            }
        }
        assert!(seen_precise);
        assert!(
            c.stats().precise_exceptions >= 2,
            "load must re-execute and re-fault"
        );
    }

    #[test]
    fn sc_store_fault_is_precise() {
        let bad = Addr::new(0x100 * 4096);
        let trace = vec![Instruction::store(bad, 1)];
        let mut c = core_with(ConsistencyModel::Sc, trace);
        let mut h = faulting_hier();
        let mut now = 0;
        loop {
            match c.step(now, &mut h) {
                StepOutcome::Precise { addr, .. } => {
                    assert_eq!(addr, bad);
                    return;
                }
                StepOutcome::Imprecise(_) => panic!("SC has no store buffer: must be precise"),
                StepOutcome::Finished => panic!("must fault"),
                _ => {}
            }
            now += 1;
            assert!(now < 100_000);
        }
    }

    /// One core through the shared loop on an explicit clock.
    fn run_one_clocked(c: &mut Core<VecTrace>, h: &mut MemoryHierarchy, skip: bool) -> CoreStats {
        run_cores(std::slice::from_mut(c), h, 10_000_000, skip, |_| {});
        c.stats()
    }

    #[test]
    fn cycle_skip_matches_reference_per_model() {
        for model in [
            ConsistencyModel::Sc,
            ConsistencyModel::Pc,
            ConsistencyModel::Wc,
        ] {
            let trace = store_heavy_trace(120);
            let mut h_ref = hier();
            let mut c_ref = core_with(model, trace.clone());
            let reference = run_one_clocked(&mut c_ref, &mut h_ref, false);
            let mut h_skip = hier();
            let mut c_skip = core_with(model, trace);
            let skipped = run_one_clocked(&mut c_skip, &mut h_skip, true);
            assert_eq!(reference, skipped, "model {model:?}");
        }
    }

    #[test]
    fn cycle_skip_matches_reference_with_fences_and_atomics() {
        let mut trace = Vec::new();
        for i in 0..40u64 {
            trace.push(Instruction::store(Addr::new(i * 64), i));
            if i % 5 == 0 {
                trace.push(Instruction::fence(FenceKind::Full));
            }
            if i % 7 == 0 {
                trace.push(Instruction::atomic(Addr::new(0x5_0000 + i * 64), i, Reg(0)));
            }
            trace.push(Instruction::load(Addr::new(0x8_0000 + i * 64), Reg(1)));
        }
        for model in [ConsistencyModel::Pc, ConsistencyModel::Wc] {
            let mut h_ref = hier();
            let mut c_ref = core_with(model, trace.clone());
            let reference = run_one_clocked(&mut c_ref, &mut h_ref, false);
            let mut h_skip = hier();
            let mut c_skip = core_with(model, trace.clone());
            let skipped = run_one_clocked(&mut c_skip, &mut h_skip, true);
            assert_eq!(reference, skipped, "model {model:?}");
            assert!(
                reference.sync_stall_cycles > 0,
                "workload must exercise sync stalls for the comparison to bite"
            );
        }
    }

    #[test]
    fn cycle_skip_matches_reference_multicore() {
        let build = |model| {
            let cfg = CoreConfig::isca23().with_model(model);
            vec![
                Core::new(CoreId(0), cfg, VecTrace::new(store_heavy_trace(80))),
                Core::new(
                    CoreId(1),
                    cfg,
                    VecTrace::new(
                        (0..160)
                            .map(|i| Instruction::load(Addr::new(0x10_0000 + i * 64), Reg(0)))
                            .collect(),
                    ),
                ),
            ]
        };
        // Stats and the per-step hook's view (peak store-buffer
        // occupancy, the ASO sweep's sample) must agree across clocks.
        let run = |model, skip| {
            let mut h = hier();
            let mut cores = build(model);
            let mut peak = 0;
            run_cores(&mut cores, &mut h, 10_000_000, skip, |c| {
                peak = peak.max(c.sb_len())
            });
            let stats: Vec<CoreStats> = cores.iter().map(|c| c.stats()).collect();
            (stats, peak)
        };
        for model in [ConsistencyModel::Sc, ConsistencyModel::Wc] {
            assert_eq!(run(model, false), run(model, true), "model {model:?}");
        }
    }

    #[test]
    fn persist_round_trip_mid_run_continues_identically() {
        use ise_types::persist::{Reader, Writer};
        for model in [
            ConsistencyModel::Sc,
            ConsistencyModel::Pc,
            ConsistencyModel::Wc,
        ] {
            let trace = store_heavy_trace(60);
            let mut orig = core_with(model, trace.clone());
            let mut h_orig = hier();
            // Run partway so the snapshot catches a busy pipeline: a
            // part-full ROB, buffered stores, drains in flight.
            let mut now = 0;
            while orig.stats().retired < 100 {
                match orig.step(now, &mut h_orig) {
                    StepOutcome::Finished => panic!("trace too short for a mid-run snapshot"),
                    StepOutcome::Imprecise(_) | StepOutcome::Precise { .. } => {
                        panic!("fault-free workload")
                    }
                    _ => {}
                }
                now += 1;
                assert!(now < 1_000_000);
            }
            let mut w = Writer::container();
            orig.save_state(&mut w);
            h_orig.save_state(&mut w);
            let bytes = w.finish();
            let mut back = core_with(model, trace);
            let mut h_back = hier();
            let mut r = Reader::container(&bytes).unwrap();
            back.restore_state(&mut r).unwrap();
            h_back.restore_state(&mut r).unwrap();
            // Re-save is byte-identical: the logical pipeline contents
            // are the canonical form.
            let mut w2 = Writer::container();
            back.save_state(&mut w2);
            h_back.save_state(&mut w2);
            assert_eq!(w2.finish(), bytes, "model {model:?}");
            assert_eq!(back.stats(), orig.stats());
            // Lockstep continuation to completion: outcomes, wake-ups and
            // stats must agree every cycle.
            loop {
                let (a, b) = (orig.step(now, &mut h_orig), back.step(now, &mut h_back));
                assert_eq!(a, b, "outcome at {now} ({model:?})");
                assert_eq!(back.next_event(now), orig.next_event(now));
                assert_eq!(back.stats(), orig.stats(), "stats at {now}");
                if a == StepOutcome::Finished {
                    break;
                }
                now += 1;
                assert!(now < 10_000_000);
            }
        }
    }

    #[test]
    fn persist_round_trip_of_waiting_core_resumes_identically() {
        use ise_types::persist::{Reader, Writer};
        let bad = Addr::new(0x100 * 4096);
        let trace = vec![
            Instruction::store(bad, 1),
            Instruction::store(Addr::new(0x9000), 2),
            Instruction::other(),
        ];
        let mut orig = core_with(ConsistencyModel::Pc, trace.clone());
        let mut h_orig = faulting_hier();
        let mut now = 0;
        loop {
            if let StepOutcome::Imprecise(_) = orig.step(now, &mut h_orig) {
                break;
            }
            now += 1;
            assert!(now < 100_000);
        }
        // Snapshot while the core waits on the OS, between the fault
        // being detected and the resume — the mid-fault checkpoint case.
        let mut w = Writer::container();
        orig.save_state(&mut w);
        let bytes = w.finish();
        let mut back = core_with(ConsistencyModel::Pc, trace);
        let mut r = Reader::container(&bytes).unwrap();
        back.restore_state(&mut r).unwrap();
        assert_eq!(back.step(now + 1, &mut h_orig), StepOutcome::Waiting);
        assert_eq!(back.next_event(now), Cycle::MAX);
        assert_eq!(back.stats().imprecise_exceptions, 1);
        // Both resume and finish the same way (the faulting store went to
        // the FSB; the flushed ALU op re-dispatches from the replay ring).
        orig.resume_at(now + 50);
        back.resume_at(now + 50);
        let mut h_back = faulting_hier();
        let mut t = now + 50;
        loop {
            let (a, b) = (orig.step(t, &mut h_orig), back.step(t, &mut h_back));
            assert_eq!(a, b, "outcome at {t}");
            if a == StepOutcome::Finished {
                break;
            }
            t += 1;
            assert!(t < now + 100_000);
        }
        assert_eq!(back.stats(), orig.stats());
    }

    #[test]
    fn next_event_respects_resume_deadline() {
        let bad = Addr::new(0x100 * 4096);
        let mut c = core_with(ConsistencyModel::Wc, vec![Instruction::store(bad, 1)]);
        let mut h = faulting_hier();
        let mut now = 0;
        loop {
            if let StepOutcome::Imprecise(_) = c.step(now, &mut h) {
                break;
            }
            now += 1;
            assert!(now < 100_000);
        }
        assert_eq!(
            c.next_event(now),
            Cycle::MAX,
            "a core waiting on the OS has no self-wake"
        );
        c.resume_at(now + 500);
        assert_eq!(c.next_event(now), now + 500);
    }

    #[test]
    fn charge_idle_is_inert_for_waiting_and_finished_cores() {
        let mut c = core_with(ConsistencyModel::Wc, vec![]);
        let mut h = hier();
        assert_eq!(c.step(0, &mut h), StepOutcome::Finished);
        let before = c.stats();
        c.charge_idle(0, 1000);
        assert_eq!(c.stats(), before, "finished cores accrue nothing");
    }

    #[test]
    #[should_panic(expected = "without a pending exception")]
    fn resume_without_exception_panics() {
        let mut c = core_with(ConsistencyModel::Wc, vec![]);
        c.resume_at(5);
    }

    #[test]
    fn waiting_until_resumed() {
        let bad = Addr::new(0x100 * 4096);
        let trace = vec![Instruction::store(bad, 1), Instruction::other()];
        let mut c = core_with(ConsistencyModel::Wc, trace);
        let mut h = faulting_hier();
        let mut now = 0;
        loop {
            if let StepOutcome::Imprecise(_) = c.step(now, &mut h) {
                break;
            }
            now += 1;
            assert!(now < 100_000);
        }
        assert_eq!(c.step(now + 1, &mut h), StepOutcome::Waiting);
        c.resume_at(now + 50);
        assert_eq!(c.step(now + 2, &mut h), StepOutcome::Waiting);
        // After the resume point the flushed ALU instruction re-dispatches
        // and the core finishes.
        let mut t = now + 50;
        loop {
            match c.step(t, &mut h) {
                StepOutcome::Finished => break,
                StepOutcome::Imprecise(_) | StepOutcome::Precise { .. } => {
                    panic!("store was drained to the FSB; it must not re-execute")
                }
                _ => {}
            }
            t += 1;
            assert!(t < now + 100_000);
        }
        assert_eq!(c.stats().retired, 2);
    }
}
