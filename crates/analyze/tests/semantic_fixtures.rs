//! Fixture self-tests for the semantic certification rules — each rule
//! gets the same three-way exercise through the full
//! [`analyze_sources`] pipeline (lex → parse → call graph → semantic
//! pass → suppression):
//!
//! * a **violating** workspace where the rule must fire, *through a
//!   call chain* (the violation sits in a callee, not the root, so a
//!   token-level scan could never find it);
//! * a **clean** workspace where the same shapes exist but are not
//!   reachable from any certified root, so the rule must stay silent;
//! * a **suppressed** workspace where a reasoned
//!   `ibp-lint: allow(...)` marker moves the finding from `open` to
//!   `suppressed` without losing it.
//!
//! Also pins the end-to-end determinism contract: two runs over the
//! same inputs render byte-identical `--json` reports.

use ibp_analyze::engine::{analyze_sources, Analysis, SourceFile};
use ibp_analyze::{report, RuleId};

fn run(files: &[(&str, &str)]) -> Analysis {
    let inputs: Vec<SourceFile> = files
        .iter()
        .map(|(p, s)| SourceFile {
            path: (*p).to_string(),
            source: (*s).to_string(),
        })
        .collect();
    analyze_sources(&inputs)
}

fn open_of(a: &Analysis, rule: RuleId) -> Vec<String> {
    a.open
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| format!("{d}"))
        .collect()
}

fn suppressed_of(a: &Analysis, rule: RuleId) -> usize {
    a.suppressed.iter().filter(|d| d.rule == rule).count()
}

// ---------------------------------------------------------------- L007

#[test]
fn l007_violation_through_call_chain() {
    let a = run(&[(
        "crates/sim/src/lib.rs",
        "pub fn simulate_stream_probed(v: &[u8]) -> u8 { helper(v) }\n\
         fn helper(v: &[u8]) -> u8 { deep(v) }\n\
         fn deep(v: &[u8]) -> u8 { v[0] }\n",
    )]);
    let open = open_of(&a, RuleId::PanicFreedom);
    assert_eq!(open.len(), 1, "want one L007 finding, got {open:?}");
    assert!(open[0].contains("deep"), "finding should name the callee: {open:?}");
}

#[test]
fn l007_clean_when_unreachable() {
    // The same indexing exists but nothing on a certified root path
    // calls it.
    let a = run(&[(
        "crates/sim/src/lib.rs",
        "pub fn simulate_stream_probed(x: u8) -> u8 { x }\n\
         pub fn offline(v: &[u8]) -> u8 { v[0] }\n",
    )]);
    assert!(open_of(&a, RuleId::PanicFreedom).is_empty());
}

#[test]
fn l007_suppressed_by_fn_level_marker() {
    let a = run(&[(
        "crates/sim/src/lib.rs",
        "pub fn simulate_stream_probed(v: &[u8]) -> u8 { helper(v) }\n\
         // ibp-lint: allow(L007, \"caller guarantees v is nonempty\")\n\
         fn helper(v: &[u8]) -> u8 { v[0] }\n",
    )]);
    assert!(open_of(&a, RuleId::PanicFreedom).is_empty(), "marker must silence");
    assert_eq!(suppressed_of(&a, RuleId::PanicFreedom), 1, "finding must be ledgered");
}

// ---------------------------------------------------------------- L008

#[test]
fn l008_violation_through_call_chain() {
    let a = run(&[(
        "crates/sim/src/lib.rs",
        "pub fn simulate_stream_probed(v: &mut Vec<u8>) { grow(v) }\n\
         fn grow(v: &mut Vec<u8>) { v.push(1); }\n",
    )]);
    let open = open_of(&a, RuleId::AllocFreedom);
    assert_eq!(open.len(), 1, "want one L008 finding, got {open:?}");
    assert!(open[0].contains("grow"));
}

#[test]
fn l008_clean_when_unreachable() {
    let a = run(&[(
        "crates/sim/src/lib.rs",
        "pub fn simulate_stream_probed(x: u8) -> u8 { x }\n\
         pub fn setup(v: &mut Vec<u8>) { v.push(1); }\n",
    )]);
    assert!(open_of(&a, RuleId::AllocFreedom).is_empty());
}

#[test]
fn l008_suppressed_by_site_marker() {
    let a = run(&[(
        "crates/sim/src/lib.rs",
        "pub fn simulate_stream_probed(v: &mut Vec<u8>) {\n\
             // ibp-lint: allow(L008, \"admission path, bounded by the site count\")\n\
             v.push(1);\n\
         }\n",
    )]);
    assert!(open_of(&a, RuleId::AllocFreedom).is_empty());
    assert_eq!(suppressed_of(&a, RuleId::AllocFreedom), 1);
}

// ------------------------------------- L007/L008: simulate_window root

/// The per-window measurement loop behind phase sampling
/// (DESIGN.md §13) is a certified root of its own: a panic or an
/// allocation inside it fires once per sampled unit, so both
/// call-graph disciplines reach through it.
#[test]
fn simulate_window_root_violations_through_call_chain() {
    let a = run(&[(
        "crates/sim/src/lib.rs",
        "pub fn simulate_window(v: &mut Vec<u8>) -> u8 { tally(v) }\n\
         fn tally(v: &mut Vec<u8>) -> u8 { grow(v); v[0] }\n\
         fn grow(v: &mut Vec<u8>) { v.reserve(1); }\n",
    )]);
    let panics = open_of(&a, RuleId::PanicFreedom);
    assert_eq!(panics.len(), 1, "want one L007 finding, got {panics:?}");
    assert!(panics[0].contains("tally"), "finding should name the indexer: {panics:?}");
    let allocs = open_of(&a, RuleId::AllocFreedom);
    assert_eq!(allocs.len(), 1, "want one L008 finding, got {allocs:?}");
    assert!(allocs[0].contains("grow"), "finding should name the allocator: {allocs:?}");
}

#[test]
fn simulate_window_root_clean_when_unreachable() {
    // The same shapes exist but only behind prep code the root never
    // calls — slicing and clustering may allocate; measurement may not.
    let a = run(&[(
        "crates/sim/src/lib.rs",
        "pub fn simulate_window(x: u8) -> u8 { x }\n\
         pub fn cluster(v: &mut Vec<u8>) -> u8 { v.reserve(1); v[0] }\n",
    )]);
    assert!(open_of(&a, RuleId::PanicFreedom).is_empty());
    assert!(open_of(&a, RuleId::AllocFreedom).is_empty());
}

#[test]
fn simulate_window_root_suppressed_by_fn_level_marker() {
    let a = run(&[(
        "crates/sim/src/lib.rs",
        "pub fn simulate_window(v: &[u8]) -> u8 { first(v) }\n\
         // ibp-lint: allow(L007, \"windows are sealed non-empty by the slicer\")\n\
         fn first(v: &[u8]) -> u8 { v[0] }\n",
    )]);
    assert!(open_of(&a, RuleId::PanicFreedom).is_empty(), "marker must silence");
    assert_eq!(suppressed_of(&a, RuleId::PanicFreedom), 1, "finding must be ledgered");
}

// ------------------------------ L007/L008: ittage64 predict/update root

/// The faithful ITTAGE's predict/update wrappers are certified roots:
/// a panic or steady-state allocation inside the tagged-table lookup,
/// allocation scan, or aging pass fires once per branch event.
#[test]
fn ittage64_root_violations_through_call_chain() {
    let a = run(&[(
        "crates/predictors/src/lib.rs",
        "pub fn ittage64_predict(v: &mut Vec<u8>) -> u8 { lookup(v) }\n\
         pub fn ittage64_update(v: &mut Vec<u8>) { allocate_above(v) }\n\
         fn lookup(v: &mut Vec<u8>) -> u8 { v[0] }\n\
         fn allocate_above(v: &mut Vec<u8>) { v.reserve(1); }\n",
    )]);
    let panics = open_of(&a, RuleId::PanicFreedom);
    assert_eq!(panics.len(), 1, "want one L007 finding, got {panics:?}");
    assert!(panics[0].contains("lookup"), "finding should name the indexer: {panics:?}");
    let allocs = open_of(&a, RuleId::AllocFreedom);
    assert_eq!(allocs.len(), 1, "want one L008 finding, got {allocs:?}");
    assert!(
        allocs[0].contains("allocate_above"),
        "finding should name the allocator: {allocs:?}"
    );
}

#[test]
fn ittage64_root_clean_when_unreachable() {
    // Construction and persistence may allocate freely; only the
    // per-event predict/update paths are certified.
    let a = run(&[(
        "crates/predictors/src/lib.rs",
        "pub fn ittage64_predict(x: u8) -> u8 { x }\n\
         pub fn ittage64_update(x: u8) -> u8 { x }\n\
         pub fn ittage64_new(v: &mut Vec<u8>) -> u8 { v.reserve(64); v[0] }\n",
    )]);
    assert!(open_of(&a, RuleId::PanicFreedom).is_empty());
    assert!(open_of(&a, RuleId::AllocFreedom).is_empty());
}

#[test]
fn ittage64_root_suppressed_by_marker() {
    let a = run(&[(
        "crates/predictors/src/lib.rs",
        "pub fn ittage64_update(v: &mut Vec<u8>) { push_fold(v) }\n\
         // ibp-lint: allow(L008, \"bounded fold ring write, not Vec growth\")\n\
         fn push_fold(v: &mut Vec<u8>) { v.push(1); }\n",
    )]);
    assert!(open_of(&a, RuleId::AllocFreedom).is_empty(), "marker must silence");
    assert_eq!(suppressed_of(&a, RuleId::AllocFreedom), 1, "finding must be ledgered");
}

// ---------------------------------------------------------------- L009

#[test]
fn l009_violation_through_call_chain() {
    let a = run(&[(
        "crates/serve/src/lib.rs",
        "pub fn shard_loop() { nap() }\n\
         fn nap() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n",
    )]);
    let open = open_of(&a, RuleId::NonBlocking);
    assert_eq!(open.len(), 1, "want one L009 finding, got {open:?}");
    assert!(open[0].contains("nap"));
}

#[test]
fn l009_clean_when_unreachable() {
    let a = run(&[(
        "crates/serve/src/lib.rs",
        "pub fn shard_loop() {}\n\
         pub fn teardown() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n",
    )]);
    assert!(open_of(&a, RuleId::NonBlocking).is_empty());
}

#[test]
fn l009_suppressed_by_fn_level_marker() {
    let a = run(&[(
        "crates/serve/src/lib.rs",
        "pub fn shard_loop() { nap() }\n\
         // ibp-lint: allow(L009, \"bounded idle backoff, tick-aligned\")\n\
         fn nap() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n",
    )]);
    assert!(open_of(&a, RuleId::NonBlocking).is_empty());
    assert_eq!(suppressed_of(&a, RuleId::NonBlocking), 1);
}

// ---------------------------------------------------------------- L010

/// A protocol surface where `FLUSH` has no decode arm and no test.
const PROTO_VIOLATING: &str = "\
pub mod frame_type {
    pub const EVENT_BATCH: u8 = 0x01;
    pub const FLUSH: u8 = 0x02;
}
pub enum ErrorCode { BadMagic }
impl ErrorCode {
    pub const ALL: [ErrorCode; 1] = [ErrorCode::BadMagic];
    pub fn as_u8(self) -> u8 { match self { ErrorCode::BadMagic => 1 } }
}
pub fn put_events(out: &mut Vec<u8>) { out.push(frame_type::EVENT_BATCH); }
pub fn put_flush(out: &mut Vec<u8>) { out.push(frame_type::FLUSH); }
pub fn decode(b: u8) -> Option<u8> {
    match b {
        frame_type::EVENT_BATCH => Some(b),
        _ => None,
    }
}
pub fn reject() -> ErrorCode { ErrorCode::BadMagic }
";

const PROTO_TEST: &str = "\
#[test]
fn event_batch_round_trips() {
    let mut out = Vec::new();
    ibp_serve::put_events(&mut out);
    assert_eq!(ibp_serve::decode(ibp_serve::frame_type::EVENT_BATCH), Some(0x01));
    assert!(matches!(ibp_serve::reject(), ibp_serve::ErrorCode::BadMagic));
}
";

#[test]
fn l010_fires_on_missing_decode_arm_and_test() {
    let a = run(&[
        ("crates/serve/src/protocol.rs", PROTO_VIOLATING),
        ("crates/serve/tests/wire.rs", PROTO_TEST),
    ]);
    let open = open_of(&a, RuleId::WireExhaustive);
    assert!(!open.is_empty(), "FLUSH lacks a decode arm and a test");
    assert!(open.iter().all(|m| m.contains("FLUSH")), "only FLUSH is deficient: {open:?}");
}

#[test]
fn l010_clean_when_surface_is_covered() {
    let covered = PROTO_VIOLATING.replace(
        "        frame_type::EVENT_BATCH => Some(b),\n",
        "        frame_type::EVENT_BATCH => Some(b),\n        frame_type::FLUSH => Some(b),\n",
    );
    let test = PROTO_TEST.replace(
        "}\n",
        "    ibp_serve::put_flush(&mut out);\n    \
         assert_eq!(ibp_serve::decode(ibp_serve::frame_type::FLUSH), Some(0x02));\n}\n",
    );
    let a = run(&[
        ("crates/serve/src/protocol.rs", covered.as_str()),
        ("crates/serve/tests/wire.rs", test.as_str()),
    ]);
    assert!(
        open_of(&a, RuleId::WireExhaustive).is_empty(),
        "covered surface must certify: {:?}",
        open_of(&a, RuleId::WireExhaustive)
    );
    assert_eq!(a.wire.opcodes_total, 2);
    assert_eq!(a.wire.opcodes_certified, 2);
}

#[test]
fn l010_suppressed_by_marker_on_declaration() {
    let suppressed = PROTO_VIOLATING.replace(
        "    pub const FLUSH: u8 = 0x02;\n",
        "    // ibp-lint: allow(L010, \"reserved opcode: wired in the next protocol rev\")\n    \
         pub const FLUSH: u8 = 0x02;\n",
    );
    let a = run(&[
        ("crates/serve/src/protocol.rs", suppressed.as_str()),
        ("crates/serve/tests/wire.rs", PROTO_TEST),
    ]);
    assert!(open_of(&a, RuleId::WireExhaustive).is_empty());
    assert!(suppressed_of(&a, RuleId::WireExhaustive) >= 1);
}

// ---------------------------------------------------------------- L006

/// A semantic-rule marker with nothing to silence is itself reported:
/// the stale-suppression lifecycle covers L007–L010 like the token
/// rules.
#[test]
fn stale_semantic_marker_fires_l006() {
    let a = run(&[(
        "crates/sim/src/lib.rs",
        "// ibp-lint: allow(L007, \"nothing here panics anymore\")\n\
         pub fn simulate_stream_probed(x: u8) -> u8 { x }\n",
    )]);
    let open = open_of(&a, RuleId::StaleSuppression);
    assert_eq!(open.len(), 1, "stale L007 marker must fire L006: {open:?}");
    assert!(open[0].contains("L007"));
}

// ----------------------------------------------------- determinism

/// The `--json` report over a fixture workspace is byte-identical
/// across two independent pipeline runs (BTree-ordered graph and
/// ledger; no map-iteration or wall-clock leakage).
#[test]
fn report_render_is_byte_deterministic() {
    let files = [
        (
            "crates/sim/src/lib.rs",
            "pub fn simulate_stream_probed(v: &[u8]) -> u8 { helper(v) }\n\
             fn helper(v: &[u8]) -> u8 { v[0] }\n\
             pub fn other() { unknown_callee(); }\n",
        ),
        (
            "crates/serve/src/lib.rs",
            "pub fn shard_loop() { step() }\n\
             fn step() {}\n",
        ),
        ("crates/serve/src/protocol.rs", PROTO_VIOLATING),
        ("crates/serve/tests/wire.rs", PROTO_TEST),
    ];
    let a = report::render(&run(&files));
    let b = report::render(&run(&files));
    assert_eq!(a, b, "two runs rendered different reports");
    assert!(a.contains("\"schema_version\": 1"));
}
