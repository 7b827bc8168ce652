//! Deterministic fault injection for device models.
//!
//! A [`FaultPlan`] is a list of clauses, each naming a device operation
//! stream (`nvme.read`, `nvme.write`), a fault kind, and a trigger — the
//! Nth matching operation or the first one at/after a virtual cycle.
//! Because triggers are counted in operation order and stamped with
//! virtual time, the same plan over the same seed reproduces the same
//! failure bit-for-bit: a power cut in the middle of a queue-depth-8
//! write-back can be replayed forever.
//!
//! Like [`crate::trace`] and [`crate::metrics`], the fault layer never
//! charges virtual cycles and is invisible when unconfigured: with no
//! plan installed an injection site costs one `OnceLock` load, and an
//! *empty* plan only bumps host-side operation counters, so a run with
//! fault injection compiled in but unconfigured is bit-identical to one
//! without (the determinism suite asserts exactly this).
//!
//! Spec grammar (clauses separated by `;`):
//!
//! ```text
//! spec    := clause (';' clause)*
//! clause  := target ':' kind '@' trigger
//! target  := 'nvme.read' | 'nvme.write'
//! kind    := 'media_error' | 'timeout' | 'device_reset'
//!          | 'queue_full' ('*' LEN)?     # storm of LEN submissions (default 1)
//!          | 'torn' ('=' SECTORS)?       # persist only SECTORS x 512 B (default 1)
//!          | 'crash' ('=' SECTORS)?      # power cut; image torn at SECTORS (default 0)
//!          | 'corrupt' ('=' BITS)?       # silently flip BITS bits in the payload (default 1)
//!          | 'latent' ('=' SECTORS)?     # SECTORS sectors become unreadable until rewritten (default 1)
//! trigger := 'op=' N                     # the Nth (1-based) matching operation
//!          | 'cycle=' N                  # first matching operation at/after cycle N
//! ```
//!
//! Example: `--faults "nvme.write:media_error@op=1000"`.

use std::sync::{Arc, OnceLock};

use aquila_sync::Mutex;

use crate::page::Page;
use crate::time::Cycles;
use crate::PAGE_SIZE;

/// Torn-write granularity: the device persists whole 512-byte sectors.
pub const SECTOR_SIZE: usize = 512;

/// Which device operation stream a clause watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// NVMe read submissions.
    NvmeRead,
    /// NVMe write submissions.
    NvmeWrite,
}

impl FaultTarget {
    /// Stable spec-string name.
    pub fn name(self) -> &'static str {
        match self {
            FaultTarget::NvmeRead => "nvme.read",
            FaultTarget::NvmeWrite => "nvme.write",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultTarget::NvmeRead => 0,
            FaultTarget::NvmeWrite => 1,
        }
    }

    fn parse(s: &str) -> Result<FaultTarget, FaultSpecError> {
        match s {
            "nvme.read" => Ok(FaultTarget::NvmeRead),
            "nvme.write" => Ok(FaultTarget::NvmeWrite),
            _ => Err(FaultSpecError(format!(
                "unknown fault target {s:?} (expected nvme.read or nvme.write)"
            ))),
        }
    }
}

const TARGETS: usize = 2;

/// What a clause injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The command fails with an uncorrectable media error.
    MediaError,
    /// The command times out without completing.
    Timeout,
    /// The next `len` submissions report a full queue (a completion
    /// starvation storm, not ordinary backpressure).
    QueueFullStorm {
        /// Number of consecutive submissions that report QueueFull.
        len: u64,
    },
    /// The device resets; the in-flight command is lost.
    DeviceReset,
    /// Only the first `sectors` 512-byte sectors of the write persist
    /// before the command fails.
    TornWrite {
        /// Sectors that reach the medium.
        sectors: u64,
    },
    /// Power cut: capture the device image as it stands, with only the
    /// first `sectors` sectors of the in-flight write applied. The live
    /// run continues (so the workload can finish and be measured); the
    /// crash-consistency harness recovers from the captured image.
    Crash {
        /// Sectors of the in-flight write that reach the captured image.
        sectors: u64,
    },
    /// *Silent* corruption: flip `bits` bits of the command's payload
    /// (on a write, as the data lands on the medium; on a read, in the
    /// returned buffer). The command reports success — only an
    /// integrity layer above the device can notice.
    Corrupt {
        /// Number of payload bits flipped (deterministic positions).
        bits: u64,
    },
    /// Latent sector errors: `sectors` sectors of the command's target
    /// range become persistently unreadable (every read intersecting
    /// them fails with a media error) until rewritten, which heals
    /// them — the way a real drive reallocates a bad sector on write.
    Latent {
        /// Sectors marked bad, from the start of the command's range.
        sectors: u64,
    },
}

/// When a clause fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// On the Nth (1-based) operation matching the clause's target.
    Op(u64),
    /// On the first matching operation at or after the given virtual
    /// cycle.
    Cycle(Cycles),
}

/// One parsed `target:kind@trigger` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultClause {
    /// Operation stream the clause watches.
    pub target: FaultTarget,
    /// Fault to inject.
    pub kind: FaultKind,
    /// When to inject it.
    pub trigger: FaultTrigger,
}

/// What an injection site must do, as decided by [`FaultPlan::draw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Fail the command with a media error.
    MediaError,
    /// Fail the command with a timeout.
    Timeout,
    /// Report the queue as full.
    QueueFull,
    /// Fail the command with a device reset.
    DeviceReset,
    /// Persist only the first `sectors` sectors, then fail the command.
    Torn {
        /// Sectors that reach the medium.
        sectors: u64,
    },
    /// Capture a crash image torn at `sectors`, then let the command
    /// proceed normally.
    Crash {
        /// Sectors of the in-flight write applied to the image.
        sectors: u64,
    },
    /// Silently flip `bits` bits in the command's payload; the command
    /// succeeds.
    Corrupt {
        /// Payload bits to flip.
        bits: u64,
    },
    /// Mark `sectors` sectors of the command's range persistently
    /// unreadable (until rewritten); the triggering command fails if it
    /// is a read, and succeeds (marking the sectors behind it) if it is
    /// a write.
    Latent {
        /// Sectors marked bad.
        sectors: u64,
    },
}

/// A sparse device image: the device's size in pages plus the contents
/// of its resident pages. Every page not listed reads as zero, matching
/// page-store semantics, so an image costs host memory only for data.
///
/// The resident pages are [`Page`] references: capturing an image from a
/// page store shares the store's pages, and writing into the image gives
/// it private copies, so a live device running on after a capture never
/// changes the image (DESIGN.md §11.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceImage {
    /// Device capacity in [`PAGE_SIZE`] pages.
    pub pages: u64,
    /// Resident pages in ascending page order.
    pub resident: Vec<(u64, Page)>,
}

impl DeviceImage {
    /// Image size in bytes: the device's whole capacity, zeros included.
    pub fn bytes(&self) -> u64 {
        self.pages * PAGE_SIZE as u64
    }

    /// The resident slot of `page`, inserted as zero if absent.
    fn slot(&mut self, page: u64) -> &mut Page {
        let i = match self.resident.binary_search_by_key(&page, |(p, _)| *p) {
            Ok(i) => i,
            Err(i) => {
                self.resident.insert(i, (page, Page::zero()));
                i
            }
        };
        &mut self.resident[i].1
    }

    /// Makes `data` the contents of `page` without copying it. Pages
    /// past the end of the device are dropped.
    pub fn put(&mut self, page: u64, data: Page) {
        if page < self.pages {
            *self.slot(page) = data;
        }
    }

    /// Writes `data` at absolute byte offset `pos`, materializing zero
    /// pages as needed. Bytes past the end of the device are dropped.
    /// `data` must not be borrowed from a [`Page`] (the page pool's lock
    /// rule).
    pub fn write(&mut self, pos: u64, data: &[u8]) {
        let end = (pos + data.len() as u64).min(self.bytes());
        let mut at = pos;
        while at < end {
            let page = at / PAGE_SIZE as u64;
            let off = (at % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - off).min((end - at) as usize);
            let src = (at - pos) as usize;
            self.slot(page)
                .write(|b| b[off..off + n].copy_from_slice(&data[src..src + n]));
            at += n as u64;
        }
    }
}

/// A device image captured at a crash point.
#[derive(Debug, Clone)]
pub struct CrashImage {
    /// Virtual time of the power cut.
    pub at: Cycles,
    /// The device as it stood at the cut.
    pub image: DeviceImage,
}

/// A malformed fault spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(pub String);

impl core::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

struct ClauseState {
    fired: bool,
}

struct PlanState {
    /// Per-target operation counters (1-based after the increment).
    ops: [u64; TARGETS],
    clauses: Vec<ClauseState>,
    /// Remaining QueueFull-storm submissions, per target.
    storm: [u64; TARGETS],
    injected: u64,
    crash: Option<CrashImage>,
}

/// A parsed, stateful fault plan.
///
/// All trigger bookkeeping lives *inside* the plan (host memory only),
/// so a plan never perturbs virtual time or the RNG stream; injection
/// sites call [`FaultPlan::draw`] with their current virtual time and
/// act on the returned outcome.
pub struct FaultPlan {
    clauses: Vec<FaultClause>,
    state: Mutex<PlanState>,
}

impl FaultPlan {
    /// A plan with no clauses (draws always return `None`).
    pub fn empty() -> FaultPlan {
        FaultPlan::from_clauses(Vec::new())
    }

    /// Builds a plan from already-parsed clauses.
    pub fn from_clauses(clauses: Vec<FaultClause>) -> FaultPlan {
        let states = clauses
            .iter()
            .map(|_| ClauseState { fired: false })
            .collect();
        FaultPlan {
            clauses,
            state: Mutex::new(PlanState {
                ops: [0; TARGETS],
                clauses: states,
                storm: [0; TARGETS],
                injected: 0,
                crash: None,
            }),
        }
    }

    /// Parses a spec string (see the module docs for the grammar). The
    /// empty string parses to an empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut clauses = Vec::new();
        for raw in spec.split(';') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            clauses.push(parse_clause(raw)?);
        }
        Ok(FaultPlan::from_clauses(clauses))
    }

    /// Whether the plan has no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// The parsed clauses.
    pub fn clauses(&self) -> &[FaultClause] {
        &self.clauses
    }

    /// Records one operation on `target` at virtual time `now` and
    /// returns the fault to inject, if any fires.
    pub fn draw(&self, target: FaultTarget, now: Cycles) -> Option<FaultOutcome> {
        let mut st = self.state.lock();
        let t = target.index();
        st.ops[t] += 1;
        let n = st.ops[t];
        if st.storm[t] > 0 {
            st.storm[t] -= 1;
            st.injected += 1;
            return Some(FaultOutcome::QueueFull);
        }
        for (i, clause) in self.clauses.iter().enumerate() {
            if clause.target != target || st.clauses[i].fired {
                continue;
            }
            let fires = match clause.trigger {
                FaultTrigger::Op(k) => k == n,
                FaultTrigger::Cycle(c) => now >= c,
            };
            if !fires {
                continue;
            }
            st.clauses[i].fired = true;
            st.injected += 1;
            return Some(match clause.kind {
                FaultKind::MediaError => FaultOutcome::MediaError,
                FaultKind::Timeout => FaultOutcome::Timeout,
                FaultKind::QueueFullStorm { len } => {
                    st.storm[t] = len.saturating_sub(1);
                    FaultOutcome::QueueFull
                }
                FaultKind::DeviceReset => FaultOutcome::DeviceReset,
                FaultKind::TornWrite { sectors } => FaultOutcome::Torn { sectors },
                FaultKind::Crash { sectors } => FaultOutcome::Crash { sectors },
                FaultKind::Corrupt { bits } => FaultOutcome::Corrupt { bits },
                FaultKind::Latent { sectors } => FaultOutcome::Latent { sectors },
            });
        }
        None
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.state.lock().injected
    }

    /// Operations observed on `target` so far.
    pub fn ops(&self, target: FaultTarget) -> u64 {
        self.state.lock().ops[target.index()]
    }

    /// Stores the crash image captured by a `crash` clause. Only the
    /// first capture is kept (one power cut per run).
    pub fn record_crash(&self, image: CrashImage) {
        let mut st = self.state.lock();
        if st.crash.is_none() {
            st.crash = Some(image);
        }
    }

    /// The captured crash image, if a `crash` clause fired.
    pub fn crash_image(&self) -> Option<CrashImage> {
        self.state.lock().crash.clone()
    }
}

impl core::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let st = self.state.lock();
        write!(
            f,
            "FaultPlan {{ clauses: {}, injected: {}, crashed: {} }}",
            self.clauses.len(),
            st.injected,
            st.crash.is_some()
        )
    }
}

/// Every kind the grammar accepts, quoted verbatim in parse errors so a
/// typo'd spec tells the user what would have been valid.
const VALID_KINDS: &str = "media_error, timeout, device_reset, queue_full*N, \
     torn=S, crash=S, corrupt=N, latent=S";

fn parse_clause(raw: &str) -> Result<FaultClause, FaultSpecError> {
    let (target, rest) = raw
        .split_once(':')
        .ok_or_else(|| FaultSpecError(format!("clause {raw:?} missing ':' after target")))?;
    let (kind, trigger) = rest
        .split_once('@')
        .ok_or_else(|| FaultSpecError(format!("clause {raw:?} missing '@trigger'")))?;
    Ok(FaultClause {
        target: FaultTarget::parse(target.trim())?,
        kind: parse_kind(kind.trim(), raw)?,
        trigger: parse_trigger(trigger.trim(), raw)?,
    })
}

fn parse_num(s: &str, what: &str, raw: &str) -> Result<u64, FaultSpecError> {
    s.parse::<u64>()
        .map_err(|_| FaultSpecError(format!("clause {raw:?}: {what} {s:?} is not a number")))
}

fn parse_kind(s: &str, raw: &str) -> Result<FaultKind, FaultSpecError> {
    let malformed = |form: &str| {
        FaultSpecError(format!(
            "clause {raw:?}: bad {form} form {s:?} (valid kinds: {VALID_KINDS})"
        ))
    };
    if let Some(len) = s.strip_prefix("queue_full") {
        let len = match len.strip_prefix('*') {
            Some(n) => parse_num(n, "storm length", raw)?,
            None if len.is_empty() => 1,
            None => return Err(malformed("queue_full")),
        };
        return Ok(FaultKind::QueueFullStorm { len: len.max(1) });
    }
    if let Some(sectors) = s.strip_prefix("torn") {
        let sectors = match sectors.strip_prefix('=') {
            Some(n) => parse_num(n, "torn sectors", raw)?,
            None if sectors.is_empty() => 1,
            None => return Err(malformed("torn")),
        };
        return Ok(FaultKind::TornWrite { sectors });
    }
    if let Some(sectors) = s.strip_prefix("crash") {
        let sectors = match sectors.strip_prefix('=') {
            Some(n) => parse_num(n, "crash sectors", raw)?,
            None if sectors.is_empty() => 0,
            None => return Err(malformed("crash")),
        };
        return Ok(FaultKind::Crash { sectors });
    }
    if let Some(bits) = s.strip_prefix("corrupt") {
        let bits = match bits.strip_prefix('=') {
            Some(n) => parse_num(n, "corrupt bits", raw)?,
            None if bits.is_empty() => 1,
            None => return Err(malformed("corrupt")),
        };
        return Ok(FaultKind::Corrupt { bits: bits.max(1) });
    }
    if let Some(sectors) = s.strip_prefix("latent") {
        let sectors = match sectors.strip_prefix('=') {
            Some(n) => parse_num(n, "latent sectors", raw)?,
            None if sectors.is_empty() => 1,
            None => return Err(malformed("latent")),
        };
        return Ok(FaultKind::Latent {
            sectors: sectors.max(1),
        });
    }
    match s {
        "media_error" => Ok(FaultKind::MediaError),
        "timeout" => Ok(FaultKind::Timeout),
        "device_reset" => Ok(FaultKind::DeviceReset),
        _ => Err(FaultSpecError(format!(
            "clause {raw:?}: unknown fault kind {s:?} (valid kinds: {VALID_KINDS})"
        ))),
    }
}

fn parse_trigger(s: &str, raw: &str) -> Result<FaultTrigger, FaultSpecError> {
    if let Some(n) = s.strip_prefix("op=") {
        let n = parse_num(n, "op trigger", raw)?;
        if n == 0 {
            return Err(FaultSpecError(format!(
                "clause {raw:?}: op trigger is 1-based; op=0 never fires"
            )));
        }
        return Ok(FaultTrigger::Op(n));
    }
    if let Some(n) = s.strip_prefix("cycle=") {
        return Ok(FaultTrigger::Cycle(Cycles(parse_num(
            n,
            "cycle trigger",
            raw,
        )?)));
    }
    Err(FaultSpecError(format!(
        "clause {raw:?}: unknown trigger {s:?} (expected op=N or cycle=N)"
    )))
}

static GLOBAL: OnceLock<Arc<FaultPlan>> = OnceLock::new();

/// Installs a process-global fault plan and returns it. If one is
/// already installed, the existing plan is returned (first install
/// wins, mirroring `metrics::install`).
pub fn install(plan: FaultPlan) -> Arc<FaultPlan> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(plan)))
}

/// Parses `spec` and installs the plan globally.
pub fn install_spec(spec: &str) -> Result<Arc<FaultPlan>, FaultSpecError> {
    Ok(install(FaultPlan::parse(spec)?))
}

/// The installed global plan, if any.
pub fn global() -> Option<&'static Arc<FaultPlan>> {
    GLOBAL.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_parses_to_empty_plan() {
        let p = FaultPlan::parse("").unwrap();
        assert!(p.is_empty());
        assert_eq!(p.draw(FaultTarget::NvmeWrite, Cycles(0)), None);
        assert_eq!(p.injected(), 0);
        assert_eq!(p.ops(FaultTarget::NvmeWrite), 1);
    }

    #[test]
    fn media_error_fires_on_exact_op() {
        let p = FaultPlan::parse("nvme.write:media_error@op=3").unwrap();
        assert_eq!(p.draw(FaultTarget::NvmeWrite, Cycles(0)), None);
        // Reads do not advance the write stream.
        assert_eq!(p.draw(FaultTarget::NvmeRead, Cycles(0)), None);
        assert_eq!(p.draw(FaultTarget::NvmeWrite, Cycles(0)), None);
        assert_eq!(
            p.draw(FaultTarget::NvmeWrite, Cycles(0)),
            Some(FaultOutcome::MediaError)
        );
        // One-shot: the clause does not re-fire.
        assert_eq!(p.draw(FaultTarget::NvmeWrite, Cycles(0)), None);
        assert_eq!(p.injected(), 1);
    }

    #[test]
    fn cycle_trigger_fires_first_op_at_or_after() {
        let p = FaultPlan::parse("nvme.read:timeout@cycle=1000").unwrap();
        assert_eq!(p.draw(FaultTarget::NvmeRead, Cycles(999)), None);
        assert_eq!(
            p.draw(FaultTarget::NvmeRead, Cycles(1000)),
            Some(FaultOutcome::Timeout)
        );
        assert_eq!(p.draw(FaultTarget::NvmeRead, Cycles(2000)), None);
    }

    #[test]
    fn queue_full_storm_spans_submissions() {
        let p = FaultPlan::parse("nvme.write:queue_full*3@op=1").unwrap();
        for _ in 0..3 {
            assert_eq!(
                p.draw(FaultTarget::NvmeWrite, Cycles(0)),
                Some(FaultOutcome::QueueFull)
            );
        }
        assert_eq!(p.draw(FaultTarget::NvmeWrite, Cycles(0)), None);
        assert_eq!(p.injected(), 3);
    }

    #[test]
    fn torn_and_crash_carry_sector_counts() {
        let p = FaultPlan::parse("nvme.write:torn=3@op=1; nvme.write:crash=5@op=2").unwrap();
        assert_eq!(
            p.draw(FaultTarget::NvmeWrite, Cycles(0)),
            Some(FaultOutcome::Torn { sectors: 3 })
        );
        assert_eq!(
            p.draw(FaultTarget::NvmeWrite, Cycles(7)),
            Some(FaultOutcome::Crash { sectors: 5 })
        );
    }

    #[test]
    fn crash_image_keeps_first_capture() {
        let p = FaultPlan::empty();
        assert!(p.crash_image().is_none());
        let image = |pages| DeviceImage {
            pages,
            resident: Vec::new(),
        };
        p.record_crash(CrashImage {
            at: Cycles(10),
            image: image(1),
        });
        p.record_crash(CrashImage {
            at: Cycles(20),
            image: image(2),
        });
        let img = p.crash_image().unwrap();
        assert_eq!(img.at, Cycles(10));
        assert_eq!(img.image.pages, 1);
    }

    #[test]
    fn image_writes_materialize_pages_in_order_and_stop_at_the_end() {
        let _g = crate::page::SERIAL.lock();
        let mut img = DeviceImage {
            pages: 4,
            resident: Vec::new(),
        };
        assert_eq!(img.bytes(), 4 * PAGE_SIZE as u64);
        img.write(3 * PAGE_SIZE as u64 - 2, &[7; 4]);
        img.write(10, &[9]);
        // The last write runs past the device's end; the tail is dropped.
        img.write(4 * PAGE_SIZE as u64 - 1, &[5; 8]);
        let pages: Vec<u64> = img.resident.iter().map(|&(p, _)| p).collect();
        assert_eq!(pages, vec![0, 2, 3]);
        assert_eq!(img.resident[0].1.read()[10], 9);
        assert_eq!(&img.resident[1].1.read()[PAGE_SIZE - 2..], &[7, 7]);
        let last = img.resident[2].1.read();
        assert_eq!(&last[..2], &[7, 7]);
        assert_eq!(last[PAGE_SIZE - 1], 5);
        assert!(last[2..PAGE_SIZE - 1].iter().all(|&b| b == 0));
    }

    #[test]
    fn an_image_shares_put_pages_until_written() {
        let _g = crate::page::SERIAL.lock();
        let data = Page::copy_of(&[3; PAGE_SIZE]);
        let mut img = DeviceImage {
            pages: 2,
            resident: Vec::new(),
        };
        img.put(1, data.clone());
        img.put(2, data.clone()); // past the end: dropped
        assert_eq!(img.resident.len(), 1);
        assert!(img.resident[0].1.same_as(&data));
        img.write(PAGE_SIZE as u64, &[4]);
        assert!(!img.resident[0].1.same_as(&data), "a write copies first");
        assert!(
            data.read().iter().all(|&b| b == 3),
            "the source is untouched"
        );
        assert_eq!(img.resident[0].1.read()[..2], [4, 3]);
    }

    #[test]
    fn defaults_and_whitespace() {
        let p = FaultPlan::parse(" nvme.write:torn@op=1 ; nvme.write:crash@op=2 ;").unwrap();
        assert_eq!(p.clauses().len(), 2);
        assert_eq!(p.clauses()[0].kind, FaultKind::TornWrite { sectors: 1 });
        assert_eq!(p.clauses()[1].kind, FaultKind::Crash { sectors: 0 });
        let q = FaultPlan::parse("nvme.read:queue_full@op=9").unwrap();
        assert_eq!(q.clauses()[0].kind, FaultKind::QueueFullStorm { len: 1 });
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "nvme.write",                     // no kind
            "nvme.write:media_error",         // no trigger
            "scsi.write:media_error@op=1",    // unknown target
            "nvme.write:gamma_ray@op=1",      // unknown kind
            "nvme.write:media_error@when=1",  // unknown trigger
            "nvme.write:media_error@op=zero", // not a number
            "nvme.write:media_error@op=0",    // 1-based
            "nvme.write:corrupt*4@op=1",      // corrupt takes '=', not '*'
            "nvme.read:latent=x@op=1",        // latent sectors not a number
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_errors_name_the_offending_clause() {
        // A multi-clause spec with one bad clause must name *that*
        // clause verbatim, so the user can find it in a long spec.
        let cases = [
            ("nvme.write:gamma_ray@op=1", "gamma_ray"),
            ("nvme.write:corrupt*4@op=1", "corrupt"),
            ("nvme.read:latent=x@op=1", "latent sectors"),
            ("nvme.write:torn~2@op=1", "torn"),
            ("nvme.write:media_error@op=zero", "op trigger"),
            ("nvme.write:media_error@when=1", "unknown trigger"),
            ("nvme.write:media_error@op=0", "1-based"),
        ];
        for (bad, detail) in cases {
            let spec = format!("nvme.read:media_error@op=9;{bad}");
            let err = FaultPlan::parse(&spec).unwrap_err().0;
            assert!(
                err.contains(&format!("{bad:?}")),
                "error {err:?} does not name clause {bad:?}"
            );
            assert!(
                err.contains(detail),
                "error {err:?} does not mention {detail:?}"
            );
        }
        // Unknown-kind errors list every valid kind.
        let err = FaultPlan::parse("nvme.write:gamma_ray@op=1").unwrap_err().0;
        for kind in ["media_error", "queue_full*N", "corrupt=N", "latent=S"] {
            assert!(err.contains(kind), "error {err:?} does not list {kind}");
        }
    }

    #[test]
    fn corrupt_and_latent_parse_and_fire() {
        let p = FaultPlan::parse("nvme.write:corrupt=4@op=1; nvme.read:latent=2@op=1").unwrap();
        assert_eq!(p.clauses()[0].kind, FaultKind::Corrupt { bits: 4 });
        assert_eq!(p.clauses()[1].kind, FaultKind::Latent { sectors: 2 });
        assert_eq!(
            p.draw(FaultTarget::NvmeWrite, Cycles(0)),
            Some(FaultOutcome::Corrupt { bits: 4 })
        );
        assert_eq!(
            p.draw(FaultTarget::NvmeRead, Cycles(0)),
            Some(FaultOutcome::Latent { sectors: 2 })
        );
        assert_eq!(p.injected(), 2);
        // Defaults: one bit, one sector.
        let q = FaultPlan::parse("nvme.read:corrupt@op=1; nvme.write:latent@op=1").unwrap();
        assert_eq!(q.clauses()[0].kind, FaultKind::Corrupt { bits: 1 });
        assert_eq!(q.clauses()[1].kind, FaultKind::Latent { sectors: 1 });
    }

    #[test]
    fn draws_are_schedule_deterministic() {
        let run = || {
            let p = FaultPlan::parse("nvme.write:media_error@op=2; nvme.read:timeout@cycle=50")
                .unwrap();
            let mut log = Vec::new();
            for i in 0..5u64 {
                log.push(p.draw(FaultTarget::NvmeWrite, Cycles(i * 20)));
                log.push(p.draw(FaultTarget::NvmeRead, Cycles(i * 20)));
            }
            log
        };
        assert_eq!(run(), run());
    }
}
