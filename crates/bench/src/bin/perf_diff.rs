//! Perf-trajectory gate: diffs a fresh `streaming_bench --json` report
//! against the committed baseline (`BENCH_streaming.json`) and fails on
//! regressions in the **deterministic** counters.
//!
//! ```text
//! perf_diff <baseline.json> <fresh.json>
//! ```
//!
//! The committed baseline pins the work the streaming subsystem is allowed to
//! do — constraint checks, union members, candidates, cycles — all counted
//! deterministically (fixed seeds, thread-independent counters), so the gate
//! cannot flake on machine speed. Wall-clock fields are machine-dependent and
//! only ever produce soft warnings.
//!
//! Comparison policy, per key of each row:
//!
//! * **Timing keys** (`*_ms`, `*_secs`, `*per_sec`, `overhead`) — soft: a
//!   warning when the fresh value exceeds 1.5× baseline, never a failure.
//! * **Scheduling-event keys** (`steals`, `busy_workers`, `*_events`) —
//!   soft, same threshold: which worker stole what is a race outcome, not
//!   deterministic work.
//! * **Identity and correctness keys** (strings, booleans, and the numeric
//!   keys `threads`, `subs`, `groups`, `batches`, `cycles`, `candidates`,
//!   `replayed_batches`, `hydrated_batches`, `skipped_batches`, `segments`,
//!   `checkpoints`) — hard: any drift fails. These describe *what ran* and
//!   *what was found*; a change means the benchmark or the enumeration
//!   itself changed, and the baseline must be regenerated deliberately.
//! * **Everything else numeric** (`*_checks`, `*_union_members`,
//!   `log_bytes`, `parallel_batches`, …) — hard on increase: doing *more*
//!   deterministic work than the baseline fails; doing less is reported as
//!   an improvement and passes, with a reminder to refresh the baseline.
//!
//! Rows are matched positionally within each section; a section present in
//! the baseline must be present in the fresh report with the same row count.
//! Sections or keys that exist only in the fresh report are reported (new
//! coverage that the committed baseline does not pin yet) but do not fail.
//!
//! The JSON reader below is hand-rolled like the writer in
//! `streaming_bench`: the build is fully offline, so no serde. It supports
//! exactly the subset the report emits (objects, arrays, strings without
//! escapes, numbers, booleans, null).

use std::process::ExitCode;

/// A parsed JSON value — just enough of the grammar for the bench report.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (the report only emits finite decimals).
    Num(f64),
    /// A string without escape sequences (the report never emits any).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys never occur in the report).
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Byte-wise recursive-descent parser over the report subset of JSON.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn fail(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.fail("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.fail(&format!("expected {word:?}")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.fail("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.fail("non-UTF-8 string"))?
                        .to_owned();
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => return Err(self.fail("escape sequences are not used by the report")),
                _ => self.pos += 1,
            }
        }
        Err(self.fail("unterminated string"))
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.fail("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.fail("expected ',' or ']'")),
            }
        }
    }
}

fn parse(text: &str, name: &str) -> Json {
    let mut p = Parser::new(text);
    let v = p.value().unwrap_or_else(|e| {
        eprintln!("{name}: {e}");
        std::process::exit(2);
    });
    p.skip_ws();
    if p.pos != p.bytes.len() {
        eprintln!("{name}: trailing bytes after the JSON document");
        std::process::exit(2);
    }
    v
}

/// Wall-clock keys: machine-dependent, soft-warned only.
fn is_timing(key: &str) -> bool {
    key.ends_with("_ms") || key.ends_with("_secs") || key.ends_with("per_sec") || key == "overhead"
}

/// Scheduling-event keys: how often workers stole is a race outcome that
/// varies run to run even at fixed seeds and thread counts, so these never
/// gate — soft-warned like wall clock.
fn is_scheduling(key: &str) -> bool {
    matches!(key, "steals" | "busy_workers") || key.ends_with("_events")
}

/// Numeric keys where any drift (either direction) is a hard failure:
/// configuration identity and correctness counts.
fn is_exact(key: &str) -> bool {
    matches!(
        key,
        "threads"
            | "subs"
            | "groups"
            | "batches"
            | "cycles"
            | "candidates"
            | "replayed_batches"
            | "hydrated_batches"
            | "skipped_batches"
            | "segments"
            | "checkpoints"
    )
}

/// The diff outcome accumulator: hard failures gate, the rest is narration.
#[derive(Default)]
struct Outcome {
    failures: Vec<String>,
    warnings: Vec<String>,
    improvements: Vec<String>,
    notes: Vec<String>,
    compared: usize,
}

fn compare_rows(section: &str, index: usize, base: &Json, fresh: &Json, out: &mut Outcome) {
    let Json::Obj(base_fields) = base else {
        out.failures
            .push(format!("{section}[{index}]: baseline row is not an object"));
        return;
    };
    for (key, bv) in base_fields {
        let at = format!("{section}[{index}].{key}");
        let Some(fv) = fresh.get(key) else {
            out.failures
                .push(format!("{at}: missing from fresh report"));
            continue;
        };
        match (bv, fv) {
            (Json::Num(b), Json::Num(f)) => {
                out.compared += 1;
                if is_timing(key) {
                    if *f > *b * 1.5 && *f - *b > 1e-9 {
                        out.warnings.push(format!(
                            "{at}: {f} vs baseline {b} (>1.5x; wall-clock, not gating)"
                        ));
                    }
                } else if is_scheduling(key) {
                    if *f > *b * 1.5 && *f - *b > 1e-9 {
                        out.warnings.push(format!(
                            "{at}: {f} vs baseline {b} (>1.5x; scheduling-dependent, not gating)"
                        ));
                    }
                } else if is_exact(key) {
                    if b != f {
                        out.failures.push(format!(
                            "{at}: {f} vs baseline {b} (deterministic identity/correctness \
                             value drifted)"
                        ));
                    }
                } else if f > b {
                    out.failures.push(format!(
                        "{at}: {f} vs baseline {b} (deterministic work counter regressed)"
                    ));
                } else if f < b {
                    out.improvements.push(format!(
                        "{at}: {f} vs baseline {b} (improvement — regenerate the baseline to \
                         pin it)"
                    ));
                }
            }
            _ => {
                out.compared += 1;
                if bv != fv {
                    out.failures
                        .push(format!("{at}: fresh value differs from baseline"));
                }
            }
        }
    }
    if let Json::Obj(fresh_fields) = fresh {
        for (key, _) in fresh_fields {
            if base.get(key).is_none() {
                out.notes.push(format!(
                    "{section}[{index}].{key}: new key, not pinned by the baseline yet"
                ));
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, fresh_path] = &args[..] else {
        eprintln!("usage: perf_diff <baseline.json> <fresh.json>");
        return ExitCode::from(2);
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let baseline = parse(&read(baseline_path), baseline_path);
    let fresh = parse(&read(fresh_path), fresh_path);

    let mut out = Outcome::default();
    let empty = Json::Obj(Vec::new());
    let base_sections = baseline.get("sections").unwrap_or(&empty);
    let fresh_sections = fresh.get("sections").unwrap_or(&empty);
    let Json::Obj(base_list) = base_sections else {
        eprintln!("{baseline_path}: \"sections\" is not an object");
        return ExitCode::from(2);
    };

    for (name, base_rows) in base_list {
        let Some(fresh_rows) = fresh_sections.get(name) else {
            out.failures.push(format!(
                "section {name:?}: present in the baseline, missing from the fresh report"
            ));
            continue;
        };
        let (Json::Arr(b), Json::Arr(f)) = (base_rows, fresh_rows) else {
            out.failures
                .push(format!("section {name:?}: rows are not arrays"));
            continue;
        };
        if b.len() != f.len() {
            out.failures.push(format!(
                "section {name:?}: {} baseline rows vs {} fresh rows",
                b.len(),
                f.len()
            ));
            continue;
        }
        for (i, (bv, fv)) in b.iter().zip(f).enumerate() {
            compare_rows(name, i, bv, fv, &mut out);
        }
    }
    if let Json::Obj(fresh_list) = fresh_sections {
        for (name, _) in fresh_list {
            if base_sections.get(name).is_none() {
                out.notes.push(format!(
                    "section {name:?}: new in the fresh report, not pinned by the baseline yet"
                ));
            }
        }
    }

    for n in &out.notes {
        println!("note: {n}");
    }
    for i in &out.improvements {
        println!("improved: {i}");
    }
    for w in &out.warnings {
        println!("warning: {w}");
    }
    for f in &out.failures {
        println!("FAIL: {f}");
    }
    println!(
        "perf_diff: {} values compared, {} improved, {} warnings, {} failures",
        out.compared,
        out.improvements.len(),
        out.warnings.len(),
        out.failures.len()
    );
    if out.compared == 0 {
        println!("FAIL: nothing compared — empty or mismatched reports");
        return ExitCode::FAILURE;
    }
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
