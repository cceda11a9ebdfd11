//! The OS half of the hardware-software co-design (paper §5.3–§5.4).
//!
//! [`handler::OsKernel`] implements the minimal Linux handler of §6.2: on
//! an imprecise store exception it walks the core's FSB from head to tail,
//! resolves each exception cause (clearing EInject pages, scheduling
//! demand-paging IO), applies every retrieved store to memory **in the
//! retrieved order**, advances the head pointer, and only then lets the
//! program resume — the three OS rules of Table 5. It reports the Fig. 5
//! cost breakdown (µarch / apply / other-OS) per invocation so the
//! batching experiments can aggregate it.
//!
//! [`paging`] models the batching win for demand paging: one handler
//! invocation can schedule many overlapping IOs instead of serializing
//! page faults. [`process`] models process termination on irrecoverable
//! exceptions and the Interrupt-Enable-bit serialization of §5.3.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod handler;
pub mod kernel;
pub mod paging;
pub mod process;

pub use handler::{HandlerOutcome, OsCounters, OsKernel, OverheadBreakdown};
pub use kernel::{ContainedKernelCopy, KernelCopyOutcome};
pub use paging::IoScheduler;
pub use process::{InterruptControl, Process, ProcessState};
