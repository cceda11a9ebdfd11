//! The assembled multicore system of Fig. 4.

use ise_core::{CompositeResolver, ContractMonitor, EInject, FaultResolver, Fsb, Fsbc, OrderEvent};
use ise_cpu::{Core, StepOutcome, VecTrace};
use ise_engine::{skip_clock, Cycle};
use ise_mem::{FlatMemory, MemoryHierarchy};
use ise_os::handler::OverheadBreakdown;
use ise_os::{InterruptControl, OsKernel, Process, ProcessState};
use ise_telemetry::{Registry, Telemetry, TelemetryConfig, TraceEventKind};
use ise_types::addr::Addr;
use ise_types::config::SystemConfig;
use ise_types::json::{Json, ToJson};
use ise_types::model::ConsistencyModel;
use ise_types::stats::CoreStats;
use ise_types::CoreId;
use ise_workloads::layout::{EINJECT_BASE, EINJECT_SIZE};
use ise_workloads::Workload;
use std::rc::Rc;

/// Physical base of the OS-pinned FSB rings (outside the EInject region).
const FSB_REGION_BASE: u64 = 0x2000_0000;

/// Identity fingerprint of a (configuration, workload) pair: the FNV-1a
/// hash of the configuration's rendered form plus the full instruction
/// streams and EInject page set. A snapshot carries this fingerprint and
/// [`System::restore_from`] refuses to load state into a system built
/// from different inputs — the trace contents and config are *not* in
/// the snapshot, so they must match exactly for resume to be sound.
fn system_identity(cfg: &SystemConfig, workload: &Workload) -> u64 {
    use ise_types::persist::{fnv1a, Persist, Writer};
    let mut w = Writer::container();
    format!("{cfg:?}").save(&mut w);
    workload.name.save(&mut w);
    w.usize(workload.traces.len());
    for t in &workload.traces {
        w.usize(t.len());
        for i in t.iter() {
            i.save(&mut w);
        }
    }
    workload.einject_pages.save(&mut w);
    fnv1a(&w.finish())
}

/// Aggregate results of one system run.
#[derive(Debug, Clone)]
pub struct SystemStats {
    /// Per-core pipeline statistics.
    pub cores: Vec<CoreStats>,
    /// Total cycles until the last core finished.
    pub cycles: Cycle,
    /// Imprecise store exceptions handled.
    pub imprecise_exceptions: u64,
    /// Precise exceptions handled.
    pub precise_exceptions: u64,
    /// Stores applied by the OS (faulting + same-stream companions).
    pub stores_applied: u64,
    /// Stores whose drain actually faulted (FSB entries with a nonzero
    /// error code).
    pub faulting_stores: u64,
    /// Aggregate handler-cost breakdown (µarch / apply / other-OS).
    pub breakdown: OverheadBreakdown,
    /// Transactions EInject denied.
    pub denied: u64,
    /// Processes killed by irrecoverable exceptions.
    pub killed: u64,
    /// Timer interrupts delivered.
    pub interrupts_delivered: u64,
    /// Timer interrupts deferred because an exception handler held the
    /// IE bit (the §5.3 serialization).
    pub interrupts_deferred: u64,
    /// Demand-paging IO wait cycles accumulated across handler
    /// invocations (zero unless enabled).
    pub io_cycles: Cycle,
    /// Distinct faulting pages the OS resolved.
    pub pages_resolved: u64,
    /// Kernel store re-issues that backed off on a still-present fault.
    pub transient_retries: u64,
    /// Stores that applied after at least one backed-off retry.
    pub transient_recovered: u64,
    /// Early-drain interrupts: drain episodes larger than the FSB ring
    /// that the FSBC delivered to the OS in capacity-sized chunks
    /// instead of erroring at the rim.
    pub early_drain_interrupts: u64,
    /// Deepest FSB occupancy observed on any core.
    pub fsb_high_water_mark: usize,
    /// Stores the OS applied on behalf of each core — one term of the
    /// chaos campaigns' store-conservation invariant.
    pub applied_per_core: Vec<u64>,
}

impl SystemStats {
    /// Total instructions retired across cores.
    pub fn retired(&self) -> u64 {
        self.cores.iter().map(|c| c.retired).sum()
    }

    /// Aggregate IPC.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired() as f64 / self.cycles as f64
        }
    }

    /// Mean *faulting* stores handled per imprecise exception (the
    /// batching factor of §5.3).
    pub fn batch_factor(&self) -> f64 {
        if self.imprecise_exceptions == 0 {
            0.0
        } else {
            self.faulting_stores as f64 / self.imprecise_exceptions as f64
        }
    }
}

impl SystemStats {
    /// The telemetry-registry view of these stats: every counter under
    /// its JSON key, per-core and breakdown sections as structured
    /// leaves, in the exact order the report renders. This registry *is*
    /// the stats surface — [`SystemStats`]'s `ToJson` renders it, so
    /// there is no second JSON path to drift from it.
    pub fn to_registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.add("cycles", self.cycles);
        reg.put("cores", Json::arr(self.cores.iter().map(|c| c.to_json())));
        reg.add("imprecise_exceptions", self.imprecise_exceptions);
        reg.add("precise_exceptions", self.precise_exceptions);
        reg.add("stores_applied", self.stores_applied);
        reg.add("faulting_stores", self.faulting_stores);
        reg.put("breakdown", self.breakdown.to_json());
        reg.add("denied", self.denied);
        reg.add("killed", self.killed);
        reg.add("interrupts_delivered", self.interrupts_delivered);
        reg.add("interrupts_deferred", self.interrupts_deferred);
        reg.add("io_cycles", self.io_cycles);
        reg.add("pages_resolved", self.pages_resolved);
        reg.add("transient_retries", self.transient_retries);
        reg.add("transient_recovered", self.transient_recovered);
        reg.add("early_drain_interrupts", self.early_drain_interrupts);
        reg.add("fsb_high_water_mark", self.fsb_high_water_mark as u64);
        reg.put(
            "applied_per_core",
            Json::arr(self.applied_per_core.iter().map(|&a| Json::from(a))),
        );
        reg
    }
}

impl ToJson for SystemStats {
    fn to_json(&self) -> Json {
        self.to_registry().to_json()
    }
}

/// The full system: cores, hierarchy, FSBs, EInject, OS.
pub struct System {
    pub(crate) cfg: SystemConfig,
    hier: MemoryHierarchy,
    cores: Vec<Core<VecTrace>>,
    fsbs: Vec<Fsb>,
    fsbcs: Vec<Fsbc>,
    einject: Rc<EInject>,
    resolver: Rc<dyn FaultResolver>,
    os: OsKernel,
    mem: FlatMemory,
    processes: Vec<Process>,
    ictl: Vec<InterruptControl>,
    monitor: Option<ContractMonitor>,
    breakdown: OverheadBreakdown,
    /// Per-core cycle until which an exception handler is executing (the
    /// IE bit is set in this window; interrupts are deferred).
    handler_busy_until: Vec<Cycle>,
    interrupt_interval: Option<Cycle>,
    interrupt_cost: Cycle,
    interrupts_delivered: u64,
    interrupts_deferred: u64,
    io_cycles: Cycle,
    early_drain_interrupts: u64,
    applied_per_core: Vec<u64>,
    /// FSB entries lost to each core's kill paths: the triggering entry,
    /// the drained remainder, and any chunks never delivered because the
    /// process died mid-episode. The residual term that closes store
    /// conservation on killed cores.
    discarded_per_core: Vec<u64>,
    /// Early-drain interrupts taken per core — the fairness/high-water
    /// accounting the adversary's stall objective reads.
    early_drain_per_core: Vec<u64>,
    now: Cycle,
    /// Fingerprint of the (config, workload) pair this system was built
    /// from; snapshots embed it and restore validates it.
    identity: u64,
    /// Built exactly once when [`System::run`] completes; [`System::stats`]
    /// serves this cache instead of re-collecting per-core vectors.
    final_stats: Option<SystemStats>,
    /// The unified metrics/trace plane (DESIGN.md §11). The registry is
    /// populated at end of run from every component's exported counters;
    /// the trace records live when enabled.
    tel: Telemetry,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl System {
    /// Builds a system running `workload` (one trace per core; the core
    /// count is taken from the workload, capped by the configuration).
    ///
    /// The EInject device covers the standard region; the workload's
    /// `einject_pages` are marked faulting before the run, reproducing
    /// the §6.5 setup.
    ///
    /// # Panics
    ///
    /// Panics if the workload has no traces or more traces than the
    /// configuration has cores/mesh tiles.
    pub fn new(cfg: SystemConfig, workload: &Workload) -> Self {
        Self::with_fault_sources(cfg, workload, Vec::new())
    }

    /// Builds a system with additional fault sources chained behind
    /// EInject — a täkō accelerator, a Midgard MMU, or any other
    /// [`FaultResolver`]. All sources watch the LLC↔memory boundary; the
    /// OS handler resolves whichever source raised each fault.
    ///
    /// # Panics
    ///
    /// Panics if the workload has no traces or more traces than the
    /// configuration has cores/mesh tiles.
    pub fn with_fault_sources(
        mut cfg: SystemConfig,
        workload: &Workload,
        extra: Vec<Rc<dyn FaultResolver>>,
    ) -> Self {
        assert!(!workload.traces.is_empty(), "workload needs traces");
        assert!(
            workload.traces.len() <= cfg.noc.nodes(),
            "more traces than mesh tiles"
        );
        cfg.cores = workload.traces.len();
        let einject = Rc::new(EInject::new(Addr::new(EINJECT_BASE), EINJECT_SIZE));
        for page in &workload.einject_pages {
            einject.set_faulting(page.base());
        }
        let mut sources: Vec<Rc<dyn FaultResolver>> = vec![einject.clone()];
        sources.extend(extra);
        let resolver: Rc<CompositeResolver> = Rc::new(CompositeResolver::new(sources));
        let hier = MemoryHierarchy::with_oracle(cfg, resolver.clone());
        let cores: Vec<Core<VecTrace>> = workload
            .traces
            .iter()
            .enumerate()
            .map(|(i, t)| Core::new(CoreId(i), cfg.core, VecTrace::shared(t.clone())))
            .collect();
        let fsbs: Vec<Fsb> = (0..cfg.cores)
            .map(|i| {
                let fsb = Fsb::new(
                    Addr::new(FSB_REGION_BASE + (i as u64) * 0x1000),
                    cfg.core.sb_entries,
                );
                // §5.4: FSB pages are pinned and must be outside any
                // faulting region.
                for p in fsb.backing_pages() {
                    debug_assert!(!einject.covers(p.base()), "FSB pages must not fault");
                }
                fsb
            })
            .collect();
        let fsbcs = (0..cfg.cores)
            .map(|i| Fsbc::new(CoreId(i), &cfg.os))
            .collect();
        let tel = Telemetry::new(TelemetryConfig::from_env());
        let mut hier = hier;
        hier.set_tlb_refill_logging(tel.trace.enabled());
        System {
            hier,
            cores,
            fsbs,
            fsbcs,
            einject,
            resolver,
            os: OsKernel::new(cfg.os),
            mem: FlatMemory::new(),
            processes: (0..cfg.cores)
                .map(|i| Process::spawn(i as u32, CoreId(i)))
                .collect(),
            ictl: vec![InterruptControl::new(); cfg.cores],
            monitor: None,
            breakdown: OverheadBreakdown::default(),
            handler_busy_until: vec![0; cfg.cores],
            interrupt_interval: None,
            interrupt_cost: cfg.os.dispatch_overhead / 4,
            interrupts_delivered: 0,
            interrupts_deferred: 0,
            io_cycles: 0,
            early_drain_interrupts: 0,
            applied_per_core: vec![0; cfg.cores],
            discarded_per_core: vec![0; cfg.cores],
            early_drain_per_core: vec![0; cfg.cores],
            now: 0,
            identity: system_identity(&cfg, workload),
            final_stats: None,
            tel,
            cfg,
        }
    }

    /// Enables event tracing with a ring of `capacity` events,
    /// overriding the `ISE_TRACE`/`ISE_TRACE_CAP` environment default.
    /// Tracing never changes [`SystemStats`] — the determinism suite
    /// pins stats byte-identical with tracing on and off.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.tel = Telemetry::new(TelemetryConfig::traced(capacity));
        self.hier.set_tlb_refill_logging(true);
        self
    }

    /// The telemetry plane: the merged metrics registry (complete once
    /// [`System::run`] finishes) and the event trace.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// The recorded event trace as JSON (empty when tracing is off).
    pub fn trace_json(&self) -> Json {
        self.tel.trace.to_json()
    }

    /// Records an externally-observed event — chaos fault activation,
    /// campaign milestones — into the trace at the current cycle. A
    /// single inlined branch when tracing is off.
    pub fn record_event(&mut self, core: u32, kind: TraceEventKind) {
        self.tel.event(self.now, core, kind);
    }

    /// Rebuilds every FSB ring with `entries` capacity (rounded up to a
    /// power of two by the ring). The default capacity matches the store
    /// buffer, so a full drain always fits; a smaller ring exercises the
    /// early-drain recovery path, where an episode larger than the ring
    /// reaches the OS in capacity-sized chunks.
    ///
    /// # Panics
    ///
    /// Panics if the system has already started running or `entries` is
    /// zero.
    pub fn with_fsb_capacity(mut self, entries: usize) -> Self {
        assert_eq!(self.now, 0, "resize FSBs before running");
        self.fsbs = (0..self.cfg.cores)
            .map(|i| Fsb::new(Addr::new(FSB_REGION_BASE + (i as u64) * 0x1000), entries))
            .collect();
        self
    }

    /// Enables demand-paging IO in the OS handler: each resolved page
    /// schedules a page-in of `io_latency` cycles; page-ins within one
    /// imprecise-exception invocation overlap (§5.3 batching).
    ///
    /// # Panics
    ///
    /// Panics if `io_latency` is zero.
    pub fn with_demand_paging_io(mut self, io_latency: Cycle) -> Self {
        self.os = self.os.clone().with_demand_paging_io(io_latency);
        self
    }

    /// Enables periodic timer interrupts every `interval` cycles.
    /// Interrupts are delivered concurrently with normal execution but
    /// serialized against exception handlers through the IE bit (§5.3):
    /// an interrupt arriving while a handler runs is deferred.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_timer_interrupts(mut self, interval: Cycle) -> Self {
        assert!(interval > 0, "interrupt interval must be positive");
        self.interrupt_interval = Some(interval);
        self
    }

    /// Enables Table 5 contract auditing (records PUT/GET/S_OS/... events
    /// during the run; check with [`System::check_contract`]).
    pub fn with_contract_monitor(mut self) -> Self {
        self.monitor = Some(ContractMonitor::new());
        self
    }

    /// The EInject device (for tests that toggle faults mid-run).
    pub fn einject(&self) -> &Rc<EInject> {
        &self.einject
    }

    /// Whether every FSB ring has drained to head == tail — a post-run
    /// invariant the chaos campaigns assert.
    pub fn fsbs_empty(&self) -> bool {
        self.fsbs.iter().all(|f| f.is_empty())
    }

    /// Whether core `i`'s process was killed (its stores are deliberately
    /// discarded, so conservation invariants skip it).
    pub fn process_killed(&self, i: usize) -> bool {
        self.processes[i].state == ProcessState::Killed
    }

    /// The cores, read-only — the conservation invariant reads each
    /// core's `sb_drained`/`sb_coalesced` terms.
    pub fn cores(&self) -> &[Core<VecTrace>] {
        &self.cores
    }

    /// The OS kernel, read-only — the adversary's objective scoring and
    /// the containment invariants read its recovery-path counters
    /// (backoff cycles, retry exhaustion, kill discards, continuation
    /// chunks).
    pub fn os_kernel(&self) -> &OsKernel {
        &self.os
    }

    /// FSB entries lost to each core's kill paths (triggering entry,
    /// drained remainder, undelivered chunks) — the residual term that
    /// closes store conservation on killed cores.
    pub fn discarded_per_core(&self) -> &[u64] {
        &self.discarded_per_core
    }

    /// Early-drain interrupts taken per core.
    pub fn early_drain_per_core(&self) -> &[u64] {
        &self.early_drain_per_core
    }

    /// The deepest FSB occupancy core `i`'s controller ever saw.
    pub fn fsb_high_water(&self, i: usize) -> usize {
        self.fsbcs[i].high_water_mark()
    }

    /// The functional memory image (stores applied by the OS land here).
    pub fn memory(&self) -> &FlatMemory {
        &self.mem
    }

    /// The recorded Table 5 event log, if the monitor is enabled.
    pub fn contract_log(&self) -> Option<&[OrderEvent]> {
        self.monitor.as_ref().map(|m| m.log())
    }

    /// Verifies the Table 5 contract over the recorded event log.
    ///
    /// # Panics
    ///
    /// Panics if the monitor was not enabled.
    pub fn check_contract(&self) -> Result<(), ise_core::ContractViolation> {
        self.monitor
            .as_ref()
            .expect("enable with_contract_monitor() first")
            .check(self.cfg.core.model)
    }

    fn handle_imprecise(&mut self, i: usize, entries: Vec<ise_types::FaultingStoreEntry>) {
        let core_id = CoreId(i);
        if let Some(m) = self.monitor.as_mut() {
            m.record(OrderEvent::Detect { core: core_id });
        }
        let episode_begin = self.now;
        let applied_before = self.applied_per_core[i];
        self.tel.event(
            self.now,
            i as u32,
            TraceEventKind::FsbDrainBegin {
                pending: entries.len(),
            },
        );
        if self.tel.trace.enabled() {
            for e in entries.iter().filter(|e| e.error.0 != 0) {
                self.tel.event(
                    self.now,
                    i as u32,
                    TraceEventKind::FaultDetected {
                        page: e.addr.page().index(),
                    },
                );
            }
        }
        self.ictl[i].enter_handler();
        // An episode larger than the FSB ring is delivered in chunks: the
        // FSBC fills the ring to its rim, raises the exception early, and
        // the OS drains head-to-tail before the next chunk lands. Each
        // chunk after the first is an early-drain interrupt — the
        // recovery path that replaces erroring on a full ring.
        let mut offset = 0;
        let mut resume = self.now;
        let mut chunks = 0u64;
        loop {
            if offset > 0 {
                self.tel
                    .event(resume, i as u32, TraceEventKind::EarlyDrainChunk);
            }
            let free = self.fsbs[i].capacity() - self.fsbs[i].len();
            let take = (entries.len() - offset).min(free);
            let chunk = &entries[offset..offset + take];
            let receipt = self.fsbcs[i]
                .drain(&mut self.fsbs[i], chunk, resume)
                // The chunk was just sized to the ring's free space.
                .unwrap_or_else(|e| unreachable!("{e}"));
            if let Some(m) = self.monitor.as_mut() {
                for e in chunk {
                    m.record(OrderEvent::Put {
                        core: core_id,
                        entry: *e,
                    });
                }
            }
            self.breakdown.uarch += receipt.uarch_cycles;
            let resolver = self.resolver.clone();
            let outcome = self.os.handle_imprecise_chunk(
                core_id,
                &mut self.fsbs[i],
                resolver.as_ref(),
                &mut self.mem,
                receipt.ready_at,
                self.monitor.as_mut(),
                offset > 0,
            );
            self.breakdown.merge(&outcome.breakdown);
            self.io_cycles += outcome.io_cycles;
            self.applied_per_core[i] += outcome.applied as u64;
            resume = outcome.resume_at;
            self.handler_busy_until[i] = resume;
            offset += take;
            chunks += 1;
            if outcome.terminated {
                // Remaining chunks die with the process: the entries the
                // handler discarded from the ring, plus everything never
                // delivered, all land in the per-core discard ledger so
                // killed-core conservation still closes.
                self.discarded_per_core[i] +=
                    outcome.discarded as u64 + (entries.len() - offset) as u64;
                self.early_drain_interrupts += chunks - 1;
                self.early_drain_per_core[i] += chunks - 1;
                self.processes[i].kill();
                self.ictl[i].exit_handler();
                self.end_drain_episode(i, episode_begin, resume, applied_before);
                return;
            }
            if offset >= entries.len() {
                break;
            }
        }
        self.early_drain_interrupts += chunks - 1;
        self.early_drain_per_core[i] += chunks - 1;
        self.end_drain_episode(i, episode_begin, resume, applied_before);
        self.cores[i].resume_at(resume);
        self.ictl[i].exit_handler();
        if let Some(m) = self.monitor.as_mut() {
            m.record(OrderEvent::Resume { core: core_id });
        }
    }

    /// Closes an FSB drain episode in the telemetry plane: one
    /// `fsb.drain_cycles` observation plus the trailing trace event.
    fn end_drain_episode(&mut self, i: usize, begin: Cycle, resume: Cycle, applied_before: u64) {
        let cycles = resume.saturating_sub(begin);
        self.tel.registry.observe("fsb.drain_cycles", cycles as f64);
        self.tel.event(
            resume,
            i as u32,
            TraceEventKind::FsbDrainEnd {
                applied: self.applied_per_core[i] - applied_before,
                cycles,
            },
        );
    }

    fn handle_precise(&mut self, i: usize, addr: Addr, kind: ise_types::ExceptionKind) {
        self.tel.event(
            self.now,
            i as u32,
            TraceEventKind::PreciseException {
                code: kind.error_code().0,
            },
        );
        self.ictl[i].enter_handler();
        let resolver = self.resolver.clone();
        let outcome = self
            .os
            .handle_precise(CoreId(i), addr, kind, resolver.as_ref(), self.now);
        self.breakdown.merge(&outcome.breakdown);
        self.io_cycles += outcome.io_cycles;
        self.handler_busy_until[i] = outcome.resume_at;
        if outcome.terminated {
            self.processes[i].kill();
        } else {
            self.cores[i].resume_at(outcome.resume_at);
        }
        self.ictl[i].exit_handler();
    }

    /// The earliest cycle after `self.now` at which anything in the
    /// system can act: the minimum of every live core's
    /// [`Core::next_event`] (which folds in OS resume deadlines, since
    /// the handler sets them via `resume_at`/`stall_until`), clamped to
    /// the next timer-interrupt multiple so every delivery/deferral
    /// decision point is visited exactly as the reference clock would.
    ///
    /// `handler_busy_until` needs no candidate of its own: it is only
    /// *read* at interrupt multiples (the IE-bit check), and those are
    /// all visited via the clamp.
    fn next_wake(&self, max_cycles: Cycle) -> Cycle {
        let mut next = self
            .cores
            .iter()
            .enumerate()
            .filter(|(i, _)| self.processes[*i].state != ProcessState::Killed)
            .map(|(_, c)| c.next_event(self.now))
            .min()
            .unwrap_or(Cycle::MAX);
        if let Some(interval) = self.interrupt_interval {
            next = next.min((self.now / interval + 1) * interval);
        }
        next.clamp(self.now + 1, max_cycles)
    }

    /// Serializes the complete mid-run state of the system — every core
    /// pipeline, the hierarchy, FSB rings and controllers, fault sources,
    /// OS kernel, functional memory, processes, interrupt machinery and
    /// the telemetry plane — into one self-describing container. The
    /// contract: restore this into a system built from the *same*
    /// configuration, workload and builder calls, run to the end, and
    /// every registry and stat is byte-identical to the uninterrupted
    /// run. Configuration and trace contents are not captured; the
    /// embedded identity fingerprint enforces their reconstruction.
    pub fn snapshot(&self) -> Vec<u8> {
        use ise_types::persist::{Persist, Writer};
        let mut w = Writer::container();
        w.section(*b"SYS0", |w| {
            w.u64(self.identity);
            w.u64(self.now);
            self.interrupt_interval.save(w);
            w.u64(self.interrupt_cost);
            self.hier.save_state(w);
            w.usize(self.cores.len());
            for c in &self.cores {
                c.save_state(w);
            }
            self.fsbs.save(w);
            for f in &self.fsbcs {
                f.save_state(w);
            }
            self.resolver.save_state(w);
            self.os.save_state(w);
            self.mem.save(w);
            self.processes.save(w);
            self.ictl.save(w);
            self.monitor.save(w);
            self.breakdown.save(w);
            self.handler_busy_until.save(w);
            w.u64(self.interrupts_delivered);
            w.u64(self.interrupts_deferred);
            w.u64(self.io_cycles);
            w.u64(self.early_drain_interrupts);
            self.applied_per_core.save(w);
            self.discarded_per_core.save(w);
            self.early_drain_per_core.save(w);
            self.tel.registry.save(w);
            self.tel.trace.save(w);
        });
        w.finish()
    }

    /// Restores a [`System::snapshot`] into this system, which must have
    /// been freshly built from the same configuration, workload and
    /// builder calls (`with_fsb_capacity`, `with_demand_paging_io`,
    /// `with_timer_interrupts`, fault sources, ...). After a successful
    /// restore the system continues exactly where the snapshot was
    /// taken.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`](ise_types::persist::PersistError) if the
    /// container is malformed, truncated, hash-mismatched, or was taken
    /// from a system with a different identity or topology.
    pub fn restore_from(&mut self, bytes: &[u8]) -> Result<(), ise_types::persist::PersistError> {
        use ise_types::persist::{Persist, PersistError, Reader};
        let mut r = Reader::container(bytes)?;
        r.section(*b"SYS0", |r| {
            let identity = r.u64()?;
            if identity != self.identity {
                return Err(PersistError::Corrupt("system identity mismatch"));
            }
            self.now = r.u64()?;
            let interval: Option<Cycle> = Persist::restore(r)?;
            if interval != self.interrupt_interval {
                return Err(PersistError::Corrupt(
                    "timer-interrupt configuration mismatch",
                ));
            }
            self.interrupt_cost = r.u64()?;
            self.hier.restore_state(r)?;
            let n = r.usize()?;
            if n != self.cores.len() {
                return Err(PersistError::Corrupt("core count mismatch"));
            }
            for c in &mut self.cores {
                c.restore_state(r)?;
            }
            self.fsbs = Persist::restore(r)?;
            if self.fsbs.len() != n {
                return Err(PersistError::Corrupt("FSB count mismatch"));
            }
            for f in &mut self.fsbcs {
                f.restore_state(r)?;
            }
            self.resolver.restore_state(r)?;
            self.os.restore_state(r)?;
            self.mem = Persist::restore(r)?;
            self.processes = Persist::restore(r)?;
            self.ictl = Persist::restore(r)?;
            if self.processes.len() != n || self.ictl.len() != n {
                return Err(PersistError::Corrupt("per-core vector length mismatch"));
            }
            self.monitor = Persist::restore(r)?;
            self.breakdown = Persist::restore(r)?;
            self.handler_busy_until = Persist::restore(r)?;
            self.interrupts_delivered = r.u64()?;
            self.interrupts_deferred = r.u64()?;
            self.io_cycles = r.u64()?;
            self.early_drain_interrupts = r.u64()?;
            self.applied_per_core = Persist::restore(r)?;
            self.discarded_per_core = Persist::restore(r)?;
            self.early_drain_per_core = Persist::restore(r)?;
            if [
                &self.handler_busy_until,
                &self.applied_per_core,
                &self.discarded_per_core,
                &self.early_drain_per_core,
            ]
            .iter()
            .any(|v| v.len() != n)
            {
                return Err(PersistError::Corrupt("per-core counter length mismatch"));
            }
            self.tel.registry = Persist::restore(r)?;
            self.tel.trace = Persist::restore(r)?;
            Ok(())
        })?;
        // Tracing configuration follows the snapshot; re-sync the
        // hierarchy's refill logging with it.
        self.hier.set_tlb_refill_logging(self.tel.trace.enabled());
        self.final_stats = None;
        Ok(())
    }

    /// Runs until every live core finishes (or is killed).
    ///
    /// Uses the event-driven cycle-skipping clock unless
    /// [`SystemConfig::reference_clock`] (or `ISE_CYCLE_SKIP=0`) selects
    /// the per-cycle reference loop; the two produce byte-identical
    /// [`SystemStats`] (the differential suite in
    /// `tests/clock_equivalence.rs` pins this down).
    ///
    /// # Panics
    ///
    /// Panics if `max_cycles` elapses first — at the same cycle under
    /// either clock, since jumps clamp to `max_cycles`.
    pub fn run(&mut self, max_cycles: Cycle) -> SystemStats {
        self.run_clocked(max_cycles, skip_clock(&self.cfg))
    }

    /// [`System::run`] with an explicit clock choice, ignoring both the
    /// configuration toggle and the environment override — the entry
    /// point the differential suite uses to compare the two clocks
    /// in-process regardless of how the test run itself is pinned.
    ///
    /// # Panics
    ///
    /// Panics if `max_cycles` elapses first.
    pub fn run_clocked(&mut self, max_cycles: Cycle, skip: bool) -> SystemStats {
        let (stats, timed_out) = self.run_bounded(max_cycles, skip);
        assert!(!timed_out, "exceeded cycle budget at {}", self.now);
        stats
    }

    /// [`System::run_clocked`] that *reports* budget exhaustion instead
    /// of panicking: returns the stats as of the cut-off cycle plus a
    /// `timed_out` flag. The campaign cell runners (chaos, fuzz,
    /// adversary) use this so a pathological searched fault plan degrades
    /// to a deterministic `Timeout` outcome rather than tearing down a
    /// whole worker. Both clocks cut at exactly `self.now == max_cycles`
    /// (skip jumps clamp to the budget), so a timed-out run is as
    /// byte-deterministic as a completed one.
    pub fn run_bounded(&mut self, max_cycles: Cycle, skip: bool) -> (SystemStats, bool) {
        if let Some(every) = ise_engine::ckpt_every() {
            let dir = std::env::var("ISE_CKPT_DIR").unwrap_or_else(|_| "ise-ckpt".to_string());
            return self.run_checkpointed(max_cycles, skip, every, &dir);
        }
        let completed = self.run_to(max_cycles, skip);
        let stats = self.finalize();
        (stats, !completed)
    }

    /// [`System::run_bounded`] with a periodic-checkpoint cadence: every
    /// `every` cycles the run pauses and a [`System::snapshot`] is
    /// written to `dir` as `ckpt-<identity>-<cycle>.ises`. This is what
    /// `ISE_CKPT_EVERY`/`ISE_CKPT_DIR` route [`System::run`] through;
    /// checkpointing never changes the run's results — the trajectory is
    /// the same one `run_to` resume semantics guarantee.
    pub fn run_checkpointed(
        &mut self,
        max_cycles: Cycle,
        skip: bool,
        every: Cycle,
        dir: &str,
    ) -> (SystemStats, bool) {
        assert!(every > 0, "checkpoint cadence must be positive");
        let completed = loop {
            let stop = (self.now / every + 1) * every;
            if stop >= max_cycles {
                break self.run_to(max_cycles, skip);
            }
            if self.run_to(stop, skip) {
                break true;
            }
            let _ = std::fs::create_dir_all(dir);
            let path = format!("{dir}/ckpt-{:016x}-{:012}.ises", self.identity, self.now);
            let _ = std::fs::write(path, self.snapshot());
        };
        let stats = self.finalize();
        (stats, !completed)
    }

    /// Advances the system until every live core finishes or the clock
    /// reaches `target`, whichever comes first, *without* finalizing
    /// statistics or telemetry. Returns `true` when the run completed.
    ///
    /// This is the checkpointing entry point: call `run_to` to park the
    /// system at a warm-up or snapshot boundary, take a
    /// [`System::snapshot`], then keep going with another `run_to` or a
    /// finalizing [`System::run_bounded`]/[`System::run_clocked`] — the
    /// resumed trajectory is byte-identical to an uninterrupted run
    /// under either clock.
    pub fn run_to(&mut self, target: Cycle, skip: bool) -> bool {
        let mut completed = true;
        loop {
            // Timer interrupts (delivered unless an exception handler
            // currently holds the IE bit).
            if let Some(interval) = self.interrupt_interval {
                if self.now > 0 && self.now.is_multiple_of(interval) {
                    for i in 0..self.cores.len() {
                        if self.processes[i].state == ProcessState::Killed {
                            continue;
                        }
                        if self.now >= self.handler_busy_until[i] {
                            self.cores[i].stall_until(self.now + self.interrupt_cost);
                            self.interrupts_delivered += 1;
                            self.tel
                                .event(self.now, i as u32, TraceEventKind::InterruptDelivered);
                        } else {
                            self.interrupts_deferred += 1;
                            self.tel
                                .event(self.now, i as u32, TraceEventKind::InterruptDeferred);
                        }
                    }
                }
            }
            let mut all_done = true;
            for i in 0..self.cores.len() {
                if self.processes[i].state == ProcessState::Killed {
                    continue;
                }
                let outcome = self.cores[i].step(self.now, &mut self.hier);
                if self.tel.trace.enabled() {
                    for (page, walked) in self.hier.drain_tlb_refills(i) {
                        let kind = if walked {
                            TraceEventKind::PageWalk { page: page.index() }
                        } else {
                            TraceEventKind::TlbRefill { page: page.index() }
                        };
                        self.tel.event(self.now, i as u32, kind);
                    }
                }
                match outcome {
                    StepOutcome::Finished => {}
                    StepOutcome::Progress | StepOutcome::Waiting => all_done = false,
                    StepOutcome::Imprecise(entries) => {
                        self.handle_imprecise(i, entries);
                        // A kill leaves nothing to wake this core again;
                        // keeping the loop alive would send the skip clock
                        // straight to the budget and misreport a timeout.
                        if self.processes[i].state != ProcessState::Killed {
                            all_done = false;
                        }
                    }
                    StepOutcome::Precise { addr, kind } => {
                        self.handle_precise(i, addr, kind);
                        if self.processes[i].state != ProcessState::Killed {
                            all_done = false;
                        }
                    }
                }
            }
            if all_done {
                break;
            }
            let next = if skip {
                self.next_wake(target)
            } else {
                self.now + 1
            };
            let skipped = next - self.now - 1;
            if skipped > 0 {
                for i in 0..self.cores.len() {
                    if self.processes[i].state != ProcessState::Killed {
                        self.cores[i].charge_idle(self.now, skipped);
                    }
                }
            }
            self.now = next;
            if self.now >= target {
                completed = false;
                break;
            }
        }
        completed
    }

    /// Builds the end-of-run statistics and assembles the telemetry
    /// spine. Called exactly once per run by [`System::run_bounded`].
    fn finalize(&mut self) -> SystemStats {
        let stats = self.build_stats();
        // Assemble the full telemetry spine: the system-level stats
        // registry, then every component's exported counters, written
        // over the plane that already holds the run's drain-episode
        // summaries. The counters are cumulative, so a later finalize
        // (a run resumed after a `run_bounded` cut) must overwrite the
        // earlier one's values, not add to them.
        let mut reg = stats.to_registry();
        for core in &self.cores {
            core.export_telemetry(&mut reg);
        }
        for i in 0..self.cores.len() {
            reg.add(
                &format!("core{i}.early_drain_interrupts"),
                self.early_drain_per_core[i],
            );
            reg.add(
                &format!("core{i}.kill_discarded"),
                self.discarded_per_core[i],
            );
            reg.add(
                &format!("core{i}.fsb_high_water"),
                self.fsbcs[i].high_water_mark() as u64,
            );
        }
        self.hier.export_telemetry(&mut reg);
        self.os.export_telemetry(&mut reg);
        self.tel.registry.overwrite(&reg);
        self.final_stats = Some(stats.clone());
        stats
    }

    /// Statistics of the completed run, served from the end-of-run cache
    /// without re-collecting the per-core vectors.
    ///
    /// # Panics
    ///
    /// Panics if called before [`System::run`] has completed.
    pub fn stats(&self) -> &SystemStats {
        self.final_stats
            .as_ref()
            .expect("stats() is available once run() has completed")
    }

    fn build_stats(&self) -> SystemStats {
        let cores: Vec<CoreStats> = self.cores.iter().map(|c| c.stats()).collect();
        let os = self.os.counters();
        SystemStats {
            cycles: cores.iter().map(|c| c.cycles).max().unwrap_or(0),
            imprecise_exceptions: cores.iter().map(|c| c.imprecise_exceptions).sum(),
            precise_exceptions: cores.iter().map(|c| c.precise_exceptions).sum(),
            stores_applied: os.stores_applied,
            faulting_stores: os.faulting_applied,
            breakdown: self.breakdown,
            denied: self.einject.denied_count(),
            killed: self
                .processes
                .iter()
                .filter(|p| p.state == ProcessState::Killed)
                .count() as u64,
            interrupts_delivered: self.interrupts_delivered,
            interrupts_deferred: self.interrupts_deferred,
            io_cycles: self.io_cycles,
            pages_resolved: os.pages_resolved,
            transient_retries: os.transient_retries,
            transient_recovered: os.transient_recovered,
            early_drain_interrupts: self.early_drain_interrupts,
            fsb_high_water_mark: self
                .fsbcs
                .iter()
                .map(|c| c.high_water_mark())
                .max()
                .unwrap_or(0),
            applied_per_core: self.applied_per_core.clone(),
            cores,
        }
    }
}

/// Convenience: run `workload` on `cfg` and return the stats.
pub fn run_workload(cfg: SystemConfig, workload: &Workload, max_cycles: Cycle) -> SystemStats {
    System::new(cfg, workload).run(max_cycles)
}

/// Convenience: run the same workload under a different model.
pub fn run_workload_with_model(
    cfg: SystemConfig,
    model: ConsistencyModel,
    workload: &Workload,
    max_cycles: Cycle,
) -> SystemStats {
    run_workload(cfg.with_model(model), workload, max_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_types::addr::PAGE_SIZE;
    use ise_types::Instruction;
    use ise_workloads::microbench::{microbench, MicrobenchConfig};

    fn small_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::isca23();
        cfg.noc.mesh_x = 2;
        cfg.noc.mesh_y = 1;
        cfg.cores = 2;
        cfg
    }

    fn store_workload(faulting: bool) -> Workload {
        let base = Addr::new(EINJECT_BASE);
        let mut trace = Vec::new();
        for i in 0..50u64 {
            trace.push(Instruction::store(base.offset(i * 8), i + 1));
            trace.push(Instruction::other());
        }
        Workload {
            name: "stores".into(),
            traces: vec![trace.into()],
            einject_pages: if faulting { vec![base.page()] } else { vec![] },
        }
    }

    #[test]
    fn clean_run_takes_no_exceptions() {
        let stats = run_workload(small_cfg(), &store_workload(false), 1_000_000);
        assert_eq!(stats.imprecise_exceptions, 0);
        assert_eq!(stats.denied, 0);
        assert_eq!(stats.retired(), 100);
    }

    #[test]
    fn faulting_run_handles_imprecise_and_applies_stores() {
        let mut sys = System::new(small_cfg(), &store_workload(true)).with_contract_monitor();
        let stats = sys.run(10_000_000);
        assert!(stats.imprecise_exceptions >= 1);
        assert!(stats.stores_applied >= 1);
        assert_eq!(stats.killed, 0);
        assert_eq!(
            stats.retired(),
            100,
            "all instructions retire despite faults"
        );
        // The OS applied the faulting stores to memory in order; the
        // values must be visible.
        let base = Addr::new(EINJECT_BASE);
        assert_eq!(sys.memory().read(base), 1);
        // The page was cleared, so EInject shows no residual faults.
        assert!(!sys.einject().is_faulting(base));
        // The Table 5 contract held.
        sys.check_contract().expect("contract must hold");
    }

    #[test]
    fn faulting_costs_cycles_but_not_much_user_work() {
        let clean = run_workload(small_cfg(), &store_workload(false), 10_000_000);
        let faulty = run_workload(small_cfg(), &store_workload(true), 10_000_000);
        assert!(faulty.cycles > clean.cycles);
        assert_eq!(clean.retired(), faulty.retired());
    }

    #[test]
    fn sc_system_takes_precise_exceptions_instead() {
        let cfg = small_cfg().with_model(ConsistencyModel::Sc);
        let stats = run_workload(cfg, &store_workload(true), 10_000_000);
        assert_eq!(stats.imprecise_exceptions, 0);
        assert!(stats.precise_exceptions >= 1);
        assert_eq!(stats.retired(), 100);
    }

    #[test]
    fn microbenchmark_runs_end_to_end() {
        let mb = microbench(&MicrobenchConfig::small(8));
        let workload = Workload {
            name: "mbench".into(),
            traces: vec![mb.iterations[0].trace.clone()],
            einject_pages: mb.iterations[0].faulting_pages.clone(),
        };
        let stats = run_workload(small_cfg(), &workload, 100_000_000);
        assert!(stats.imprecise_exceptions > 0);
        assert!(stats.batch_factor() >= 1.0);
    }

    #[test]
    fn split_stream_timing_applies_fewer_stores_through_the_os() {
        // The §4.5 ablation in the timing pipeline: only faulting entries
        // travel through the FSB; companions drain to memory directly.
        let w = store_workload(true);
        let same = run_workload(small_cfg(), &w, 10_000_000);
        let mut split_cfg = small_cfg();
        split_cfg.core.drain_policy = ise_types::DrainPolicy::SplitStream;
        let split = run_workload(split_cfg, &w, 10_000_000);
        assert_eq!(same.retired(), split.retired(), "same user work");
        assert!(
            split.stores_applied < same.stores_applied,
            "split-stream must not route companions through the OS: {} vs {}",
            split.stores_applied,
            same.stores_applied
        );
        assert!(split.imprecise_exceptions >= 1);
    }

    #[test]
    fn timer_interrupts_coexist_with_imprecise_exceptions() {
        // Interrupts slow the run but never break it; interrupts arriving
        // while an exception handler runs are deferred (IE bit, §5.3).
        let w = store_workload(true);
        let plain = System::new(small_cfg(), &w).run(10_000_000);
        let mut sys = System::new(small_cfg(), &w).with_timer_interrupts(200);
        let stats = sys.run(10_000_000);
        assert_eq!(stats.retired(), plain.retired());
        assert!(stats.interrupts_delivered > 0, "interrupts must fire");
        assert!(
            stats.interrupts_deferred > 0,
            "some interrupts must land inside the long handler window \
             (delivered {}, deferred {})",
            stats.interrupts_delivered,
            stats.interrupts_deferred
        );
        assert!(stats.imprecise_exceptions >= 1);
        assert!(stats.cycles > plain.cycles, "interrupt handlers cost time");
    }

    #[test]
    fn interrupt_free_system_reports_zero_interrupts() {
        let stats = run_workload(small_cfg(), &store_workload(false), 1_000_000);
        assert_eq!(stats.interrupts_delivered, 0);
        assert_eq!(stats.interrupts_deferred, 0);
    }

    #[test]
    fn undersized_fsb_triggers_early_drain_interrupts() {
        // Ring of 4 on a run whose drain episodes can exceed 4 entries:
        // the episode is chunked, nothing is lost, the contract holds.
        let w = store_workload(true);
        let full = System::new(small_cfg(), &w).with_contract_monitor();
        let mut full = full;
        let full_stats = full.run(10_000_000);
        assert_eq!(full_stats.early_drain_interrupts, 0, "default ring fits");

        let mut sys = System::new(small_cfg(), &w)
            .with_fsb_capacity(4)
            .with_contract_monitor();
        let stats = sys.run(10_000_000);
        assert_eq!(stats.retired(), 100, "all work completes despite chunking");
        assert_eq!(stats.killed, 0);
        assert_eq!(
            stats.stores_applied, full_stats.stores_applied,
            "chunking must not lose stores"
        );
        assert!(stats.fsb_high_water_mark <= 4);
        assert!(sys.fsbs_empty(), "handler drains head to tail");
        sys.check_contract().expect("contract holds across chunks");
        if stats.stores_applied > 4 {
            assert!(stats.early_drain_interrupts > 0, "ring must have chunked");
        }
    }

    #[test]
    fn kill_mid_early_drain_leaves_no_orphans_and_conserves_stores() {
        use crate::invariants;
        use ise_core::{FaultInjector, FaultPlan, FaultResolver};
        use ise_types::{ExceptionKind, FaultKind, FaultSpec};
        // 40 back-to-back stores; the one at index 20 hits the only
        // faulting page, whose drain denial carries a machine check. By
        // then the buffer holds a long tail of clean not-yet-drained
        // companions, so the process dies in the middle of a chunked
        // (FSB ring of 4) drain episode.
        let base = Addr::new(EINJECT_BASE);
        let mc_addr = base.offset(PAGE_SIZE);
        let trace: Vec<Instruction> = (0..40u64)
            .map(|i| {
                if i == 20 {
                    Instruction::store(mc_addr, 999)
                } else {
                    Instruction::store(base.offset(i * 8), i + 1)
                }
            })
            .collect();
        let workload = Workload {
            name: "kill-mid-drain".into(),
            traces: vec![trace.into()],
            einject_pages: vec![],
        };
        let injector: Rc<FaultInjector> = Rc::new(
            FaultPlan::new(7)
                .page(
                    mc_addr.page(),
                    FaultSpec::bus_error(FaultKind::Permanent)
                        .with_exception(ExceptionKind::MachineCheck),
                )
                .build(),
        );
        let mut sys = System::with_fault_sources(
            small_cfg(),
            &workload,
            vec![injector as Rc<dyn FaultResolver>],
        )
        .with_fsb_capacity(4)
        .with_contract_monitor();
        let stats = sys.run(10_000_000);

        assert_eq!(stats.killed, 1, "the machine check must kill");
        assert!(sys.process_killed(0));
        assert!(sys.fsbs_empty(), "kill leaves no orphaned FSB entries");
        let discarded = sys.discarded_per_core()[0];
        assert!(discarded > 0, "the kill path must discard something");
        // Killed-core conservation closes through the discard ledger, and
        // everything the kernel recorded as applied is visible.
        let audit = invariants::audit(&sys, &workload, &stats);
        assert_eq!(audit.violations, Vec::<String>::new());
        assert_eq!(audit.corruption, Vec::<String>::new());
        // The telemetry plane merged the kill-path counters cleanly.
        let reg = &sys.telemetry().registry;
        assert_eq!(reg.counter("core0.kill_discarded"), discarded);
        assert!(reg.counter("os.kill_discarded") <= discarded);
        assert!(reg.counter("os.kill_discarded") > 0);
        assert_eq!(reg.counter("os.processes_killed"), 1);
    }

    #[test]
    fn applied_per_core_sums_to_stores_applied() {
        let w = store_workload(true);
        let stats = System::new(small_cfg(), &w).run(10_000_000);
        assert_eq!(
            stats.applied_per_core.iter().sum::<u64>(),
            stats.stores_applied
        );
    }

    #[test]
    fn cycle_skip_json_identical_on_faulting_workload() {
        let w = store_workload(true);
        let reference = System::new(small_cfg(), &w)
            .run_clocked(10_000_000, false)
            .to_json()
            .render();
        let skipped = System::new(small_cfg(), &w)
            .run_clocked(10_000_000, true)
            .to_json()
            .render();
        assert_eq!(reference, skipped);
    }

    #[test]
    fn reference_clock_config_toggle_selects_the_loop() {
        // Both clocks agree, so the toggle is only observable as
        // identical output — this pins the builder wiring itself.
        let w = store_workload(false);
        let cfg = small_cfg().with_reference_clock(true);
        assert!(cfg.reference_clock);
        let a = run_workload(cfg, &w, 1_000_000).to_json().render();
        let b = run_workload(small_cfg(), &w, 1_000_000).to_json().render();
        assert_eq!(a, b);
    }

    #[test]
    fn interrupts_identical_across_skip_boundaries_when_all_cores_stall() {
        // A workload whose faulting stores park every core in long
        // handler/drain stalls spanning several timer multiples:
        // delivery and deferral decisions all happen at skipped-into
        // ticks, and must match the reference exactly.
        let base = Addr::new(EINJECT_BASE + PAGE_SIZE * 128);
        let mk = |seed: u64| {
            let mut t: Vec<Instruction> = (0..30u64)
                .map(|i| Instruction::store(base.offset((seed * 64 + i) * 512), i))
                .collect();
            // Plain work after the faulting burst so later ticks land on
            // ordinarily-running cores and are delivered, not deferred.
            t.extend((0..2_000).map(|_| Instruction::other()));
            t
        };
        let mut pages = Vec::new();
        for off in (0..30u64).flat_map(|i| [i * 512, (64 + i) * 512]) {
            let page = base.offset(off).page();
            if !pages.contains(&page) {
                pages.push(page);
            }
        }
        let w = Workload {
            name: "all-stalled".into(),
            traces: vec![mk(0).into(), mk(1).into()],
            einject_pages: pages,
        };
        // Intervals above the per-delivery stall (~130 cycles, so the
        // cores make progress between ticks) but below the exception
        // handler's dispatch window, so ticks landing inside a handler
        // are deferred.
        for interval in [150u64, 220, 300] {
            let reference = System::new(small_cfg(), &w)
                .with_timer_interrupts(interval)
                .run_clocked(10_000_000, false);
            let skipped = System::new(small_cfg(), &w)
                .with_timer_interrupts(interval)
                .run_clocked(10_000_000, true);
            assert!(
                reference.interrupts_delivered > 2,
                "workload must actually cross several timer multiples \
                 (interval {interval}: delivered {})",
                reference.interrupts_delivered
            );
            assert!(
                reference.interrupts_deferred > 0,
                "a tick must land inside an exception handler so the \
                 deferral path is exercised (interval {interval})"
            );
            assert_eq!(
                reference.interrupts_delivered, skipped.interrupts_delivered,
                "interval {interval}"
            );
            assert_eq!(
                reference.interrupts_deferred, skipped.interrupts_deferred,
                "interval {interval}"
            );
            assert_eq!(
                reference.to_json().render(),
                skipped.to_json().render(),
                "interval {interval}"
            );
        }
    }

    #[test]
    fn stats_served_from_end_of_run_cache() {
        let mut sys = System::new(small_cfg(), &store_workload(false));
        let returned = sys.run(1_000_000);
        let cached = sys.stats();
        assert_eq!(returned.to_json().render(), cached.to_json().render());
        assert!(
            std::ptr::eq(cached, sys.stats()),
            "repeated calls serve the same cached value"
        );
    }

    #[test]
    #[should_panic(expected = "once run() has completed")]
    fn stats_before_run_panics() {
        let sys = System::new(small_cfg(), &store_workload(false));
        let _ = sys.stats();
    }

    #[test]
    fn multi_core_workload_shares_the_hierarchy() {
        let base = Addr::new(EINJECT_BASE + PAGE_SIZE * 64);
        let mk = |seed: u64| {
            (0..40u64)
                .flat_map(|i| {
                    [
                        Instruction::store(base.offset((seed * 1000 + i) * 8), i),
                        Instruction::other(),
                    ]
                })
                .collect::<Vec<_>>()
        };
        let w = Workload {
            name: "two-core".into(),
            traces: vec![mk(0).into(), mk(1).into()],
            einject_pages: vec![],
        };
        let stats = run_workload(small_cfg(), &w, 10_000_000);
        assert_eq!(stats.cores.len(), 2);
        assert_eq!(stats.retired(), 160);
    }

    #[test]
    fn tracing_never_changes_stats_json() {
        let w = store_workload(true);
        let plain = System::new(small_cfg(), &w).run(10_000_000);
        let mut traced_sys = System::new(small_cfg(), &w).with_trace(4096);
        let traced = traced_sys.run(10_000_000);
        assert_eq!(
            plain.to_json().render(),
            traced.to_json().render(),
            "the event trace must be a pure observer"
        );
        assert!(!traced_sys.telemetry().trace.is_empty());
    }

    #[test]
    fn trace_records_drain_episodes_and_fault_detections() {
        let mut sys = System::new(small_cfg(), &store_workload(true)).with_trace(4096);
        let stats = sys.run(10_000_000);
        let trace = sys.telemetry();
        let count = |name: &str| {
            trace
                .trace
                .events()
                .filter(|e| e.kind.name() == name)
                .count() as u64
        };
        assert_eq!(count("fsb_drain_begin"), stats.imprecise_exceptions);
        assert_eq!(count("fsb_drain_end"), stats.imprecise_exceptions);
        assert!(count("fault_detected") >= 1);
        assert!(count("page_walk") >= 1, "first touch of any page walks");
        // Every drain episode closes with the stores it applied; the
        // sum matches the aggregate counter.
        let applied: u64 = trace
            .trace
            .events()
            .filter_map(|e| match e.kind {
                TraceEventKind::FsbDrainEnd { applied, .. } => Some(applied),
                _ => None,
            })
            .sum();
        assert_eq!(applied, stats.stores_applied);
        // The registry plane carries the merged spine: system stats,
        // per-core counters, hierarchy, OS, and the drain summary.
        let reg = &trace.registry;
        assert!(reg.get("cycles").is_some());
        assert!(reg.get("core0.retired").is_some());
        assert!(reg.get("tlb.walks").is_some());
        assert!(reg.get("os.invocations").is_some());
        assert!(reg.get("fsb.drain_cycles").is_some());
    }

    #[test]
    fn trace_records_interrupt_delivery_and_deferral() {
        let mut sys = System::new(small_cfg(), &store_workload(true))
            .with_timer_interrupts(200)
            .with_trace(65536);
        let stats = sys.run(10_000_000);
        let count = |name: &str| {
            sys.telemetry()
                .trace
                .events()
                .filter(|e| e.kind.name() == name)
                .count() as u64
        };
        assert_eq!(count("interrupt_delivered"), stats.interrupts_delivered);
        assert_eq!(count("interrupt_deferred"), stats.interrupts_deferred);
    }

    #[test]
    fn registry_identical_across_clocks_and_tracing() {
        let w = store_workload(true);
        let render = |mut sys: System, skip: bool| {
            sys.run_clocked(10_000_000, skip);
            sys.telemetry().registry.to_json().render()
        };
        let reference = render(System::new(small_cfg(), &w), false);
        assert_eq!(reference, render(System::new(small_cfg(), &w), true));
        assert_eq!(
            reference,
            render(System::new(small_cfg(), &w).with_trace(4096), false),
            "tracing must not perturb the metrics plane"
        );
    }

    #[test]
    fn registry_after_split_runs_matches_one_uninterrupted_run() {
        // Every `run_bounded` cut finalizes; the resumed run's finalize
        // must replace the cut's cumulative counters, not add to them.
        // The 1,000-cycle cut lands before the first drain episode, so
        // the live drain keys first appear after a finalize.
        let mb = microbench(&MicrobenchConfig::small(8));
        let w = Workload {
            name: "mbench".into(),
            traces: vec![mb.iterations[0].trace.clone()],
            einject_pages: mb.iterations[0].faulting_pages.clone(),
        };
        for skip in [false, true] {
            let mut one = System::new(small_cfg(), &w);
            let stats = one.run_clocked(100_000_000, skip);
            let want = one.telemetry().registry.render();
            let total = stats.cycles;
            for cuts in [vec![1_000], vec![1_000, total / 3, 2 * total / 3]] {
                let mut sys = System::new(small_cfg(), &w);
                for &cut in &cuts {
                    assert!(
                        sys.run_bounded(cut, skip).1,
                        "cut at {cut} must land mid-run"
                    );
                }
                let (split, timed_out) = sys.run_bounded(100_000_000, skip);
                assert!(!timed_out);
                assert_eq!(split.to_json().render(), stats.to_json().render());
                assert_eq!(
                    sys.telemetry().registry.render(),
                    want,
                    "{} cut(s), skip={skip}",
                    cuts.len()
                );
            }
        }
    }

    #[test]
    fn early_drain_chunks_are_traced() {
        let mut sys = System::new(small_cfg(), &store_workload(true))
            .with_fsb_capacity(4)
            .with_trace(4096);
        let stats = sys.run(10_000_000);
        let chunks = sys
            .telemetry()
            .trace
            .events()
            .filter(|e| e.kind == TraceEventKind::EarlyDrainChunk)
            .count() as u64;
        assert_eq!(chunks, stats.early_drain_interrupts);
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically_at_quarter_points() {
        // The headline resume contract: snapshot at 25/50/75% of the
        // run, restore into a freshly built twin, run to completion —
        // stats JSON and registry render are byte-identical to the
        // uninterrupted run, under both clocks.
        let w = store_workload(true);
        let build = || {
            System::new(small_cfg(), &w)
                .with_timer_interrupts(200)
                .with_contract_monitor()
        };
        for skip in [false, true] {
            let mut cold = build();
            let cold_stats = cold.run_clocked(10_000_000, skip);
            let cold_json = cold_stats.to_json().render();
            let cold_reg = cold.telemetry().registry.to_json().render();
            let total = cold_stats.cycles;
            for pct in [25u64, 50, 75] {
                let cut = total * pct / 100;
                let mut donor = build();
                assert!(!donor.run_to(cut, skip), "cut at {pct}% must land mid-run");
                let snap = donor.snapshot();
                let mut resumed = build();
                resumed.restore_from(&snap).expect("restore must succeed");
                let stats = resumed.run_clocked(10_000_000, skip);
                assert_eq!(
                    stats.to_json().render(),
                    cold_json,
                    "stats diverge at {pct}% (skip={skip})"
                );
                assert_eq!(
                    resumed.telemetry().registry.to_json().render(),
                    cold_reg,
                    "registry diverges at {pct}% (skip={skip})"
                );
                resumed
                    .check_contract()
                    .expect("Table 5 contract holds across a restore");
            }
        }
    }

    #[test]
    fn snapshot_inside_an_early_drain_chunk_sequence_resumes_exactly() {
        // Cut the run in the middle of a chunked (FSB ring of 4) drain
        // episode — the core is parked in its resume window, the FSB
        // episode half-billed — and require the resumed run to agree
        // byte-for-byte on all three planes, trace included.
        let w = store_workload(true);
        let build = || {
            System::new(small_cfg(), &w)
                .with_fsb_capacity(4)
                .with_trace(4096)
        };
        let mut cold = build();
        let cold_stats = cold.run_clocked(10_000_000, true);
        assert!(cold_stats.early_drain_interrupts > 0, "episode must chunk");
        let begin = cold
            .telemetry()
            .trace
            .events()
            .find(|e| e.kind.name() == "fsb_drain_begin")
            .expect("a drain begins")
            .cycle;
        let end = cold
            .telemetry()
            .trace
            .events()
            .find(|e| e.kind.name() == "fsb_drain_end")
            .expect("the drain ends")
            .cycle;
        assert!(end > begin + 1, "episode must span cycles to cut inside");
        let cut = begin + (end - begin) / 2;
        let cold_json = cold_stats.to_json().render();
        let cold_reg = cold.telemetry().registry.to_json().render();
        let cold_trace = cold.trace_json().render();
        for skip in [false, true] {
            let mut donor = build();
            assert!(!donor.run_to(cut, skip));
            let snap = donor.snapshot();
            let mut resumed = build();
            resumed.restore_from(&snap).unwrap();
            let stats = resumed.run_clocked(10_000_000, skip);
            assert_eq!(stats.to_json().render(), cold_json, "skip={skip}");
            assert_eq!(resumed.telemetry().registry.to_json().render(), cold_reg);
            assert_eq!(
                resumed.trace_json().render(),
                cold_trace,
                "trace plane resumes mid-episode (skip={skip})"
            );
        }
    }

    #[test]
    fn snapshot_between_fault_detection_and_resume_is_exact() {
        // Cut one cycle after the first fault detection, strictly before
        // the handler's resume: the exception is in flight, the handler
        // busy window open, the stall deadline pending.
        let w = store_workload(true);
        let build = || System::new(small_cfg(), &w).with_trace(4096);
        let mut cold = build();
        let cold_stats = cold.run_clocked(10_000_000, true);
        let detected = cold
            .telemetry()
            .trace
            .events()
            .find(|e| e.kind.name() == "fault_detected")
            .expect("a fault is detected")
            .cycle;
        let resume = cold
            .telemetry()
            .trace
            .events()
            .find(|e| e.kind.name() == "fsb_drain_end")
            .expect("the handler resumes")
            .cycle;
        let cut = detected + 1;
        assert!(cut < resume, "cut must land inside the handler window");
        let cold_json = cold_stats.to_json().render();
        let cold_reg = cold.telemetry().registry.to_json().render();
        for skip in [false, true] {
            let mut donor = build();
            assert!(!donor.run_to(cut, skip));
            let snap = donor.snapshot();
            let mut resumed = build();
            resumed.restore_from(&snap).unwrap();
            let stats = resumed.run_clocked(10_000_000, skip);
            assert_eq!(stats.to_json().render(), cold_json, "skip={skip}");
            assert_eq!(resumed.telemetry().registry.to_json().render(), cold_reg);
        }
    }

    #[test]
    fn snapshot_preserves_injector_rng_stream_mid_campaign() {
        // An intermittent fault source draws from its RNG on every
        // checked transaction; if the snapshot dropped the RNG position,
        // the post-restore denial stream (and with it the retry/backoff
        // trajectory) would diverge from the uninterrupted run.
        use ise_core::{FaultInjector, FaultPlan};
        use ise_types::{FaultKind, FaultSpec};
        let base = Addr::new(EINJECT_BASE);
        let build = || {
            let injector: Rc<FaultInjector> = Rc::new(
                FaultPlan::new(7)
                    .page(
                        base.page(),
                        FaultSpec::bus_error(FaultKind::Intermittent { probability: 0.5 }),
                    )
                    .build(),
            );
            System::with_fault_sources(
                small_cfg(),
                &store_workload(false),
                vec![injector as Rc<dyn FaultResolver>],
            )
        };
        for skip in [false, true] {
            let mut cold = build();
            let cold_stats = cold.run_clocked(10_000_000, skip);
            assert!(
                cold_stats.faulting_stores > 0,
                "the intermittent source must bite"
            );
            let cut = cold_stats.cycles / 2;
            let mut donor = build();
            assert!(!donor.run_to(cut, skip));
            let snap = donor.snapshot();
            let mut resumed = build();
            resumed.restore_from(&snap).unwrap();
            let stats = resumed.run_clocked(10_000_000, skip);
            assert_eq!(
                stats.to_json().render(),
                cold_stats.to_json().render(),
                "skip={skip}"
            );
            assert_eq!(
                resumed.telemetry().registry.to_json().render(),
                cold.telemetry().registry.to_json().render()
            );
        }
    }

    #[test]
    fn periodic_checkpoints_are_emitted_and_replayable() {
        // The ISE_CKPT_EVERY cadence machinery, driven directly (env
        // vars are process-global and tests run in parallel): several
        // checkpoint files land in the directory, checkpointing itself
        // never perturbs the run, and any emitted file replays to the
        // uninterrupted result.
        let w = store_workload(true);
        let dir = std::env::temp_dir().join(format!("ise-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_string();
        let mut cold = System::new(small_cfg(), &w);
        let cold_stats = cold.run_clocked(10_000_000, true);
        let cold_json = cold_stats.to_json().render();
        let cold_reg = cold.telemetry().registry.to_json().render();
        let every = (cold_stats.cycles / 5).max(1);
        let mut ck = System::new(small_cfg(), &w);
        let (ck_stats, truncated) = ck.run_checkpointed(10_000_000, true, every, &dir_s);
        assert!(!truncated);
        assert_eq!(
            ck_stats.to_json().render(),
            cold_json,
            "checkpointing must not perturb the run"
        );
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("checkpoint dir exists")
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        assert!(
            files.len() >= 3,
            "expected several checkpoints, got {files:?}"
        );
        let bytes = std::fs::read(&files[files.len() / 2]).unwrap();
        let mut resumed = System::new(small_cfg(), &w);
        resumed.restore_from(&bytes).unwrap();
        let stats = resumed.run_clocked(10_000_000, true);
        assert_eq!(stats.to_json().render(), cold_json);
        assert_eq!(resumed.telemetry().registry.to_json().render(), cold_reg);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_rejects_mismatched_and_corrupted_snapshots() {
        use ise_types::persist::PersistError;
        let w = store_workload(true);
        let mut donor = System::new(small_cfg(), &w);
        assert!(!donor.run_to(200, true));
        let snap = donor.snapshot();
        // A system built from a different workload has a different
        // identity fingerprint.
        let mut other = System::new(small_cfg(), &store_workload(false));
        assert!(matches!(
            other.restore_from(&snap),
            Err(PersistError::Corrupt("system identity mismatch"))
        ));
        // Same inputs, different builder state (timer interrupts).
        let mut timered = System::new(small_cfg(), &w).with_timer_interrupts(200);
        assert!(matches!(
            timered.restore_from(&snap),
            Err(PersistError::Corrupt(
                "timer-interrupt configuration mismatch"
            ))
        ));
        // A flipped header byte, a flipped body byte (content hash), and
        // a truncated container all fail before any state is touched.
        let mut bad = snap.clone();
        bad[0] ^= 0x5a;
        assert!(System::new(small_cfg(), &w).restore_from(&bad).is_err());
        let mut bad = snap.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        assert!(System::new(small_cfg(), &w).restore_from(&bad).is_err());
        assert!(System::new(small_cfg(), &w)
            .restore_from(&snap[..snap.len() - 9])
            .is_err());
    }
}
