//! The crash-safe, append-only JSONL result store.
//!
//! Layout: line 1 is the [`StoreHeader`] (schema version, campaign
//! fingerprint, and the full embedded spec); every further line is one
//! [`UnitRecord`]. Records are group-committed ([`Store::append_batch`]):
//! each is written with a trailing newline, one `fsync`
//! (`File::sync_data`) covers the batch, and only then do its units count
//! as complete. A crash can lose at most the batch being committed —
//! none of which was acknowledged — never a completed record, and never
//! the store's integrity.
//!
//! On [`Store::create_or_resume`] the store replays itself: a torn or
//! unparseable *last* line (the crash case) is truncated away; a corrupt
//! *interior* line is an error (truncation cannot repair it); a header
//! from a different campaign is a hard mismatch. Everything that replays
//! cleanly marks its unit complete, which is what lets the runner skip
//! finished work and resume mid-campaign.
//!
//! Byte-stability: the vendored `serde_json` prints every `f64` in its
//! shortest round-trippable form and parses it back exactly, so a record
//! survives write → replay → rewrite byte-for-byte. Canonical form
//! ([`Store::canonical_lines`]) sorts records by unit index; two stores
//! of the same campaign that completed the same units are canonically
//! identical regardless of thread count, sharding, or interruption
//! history.

use crate::spec::{unit_seed, CampaignSpec};
use crate::{io_err, label_io_err, ExpError};
use mc_fault::{RealFile, StoreIo};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};

/// Version of the store's on-disk schema. Bumped on any incompatible
/// change to the header or record shape.
pub const SCHEMA_VERSION: u32 = 1;

/// The store's first line: schema version, campaign fingerprint, and the
/// embedded spec (so a store is self-describing — `exp status` needs no
/// other input).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreHeader {
    /// On-disk schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// [`CampaignSpec::fingerprint`] of the embedded spec.
    pub fingerprint: String,
    /// The campaign this store belongs to.
    pub spec: CampaignSpec,
}

/// One named result value of a work unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name (e.g. `objective`).
    pub name: String,
    /// Metric value.
    pub value: f64,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64) -> Self {
        Metric {
            name: name.into(),
            value,
        }
    }
}

/// One completed work unit: its coordinates, its derived seed (recorded
/// so replay can cross-check the seed contract), and its metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitRecord {
    /// Flat unit index (`point * replicas + replica`).
    pub unit: usize,
    /// Axis-point index.
    pub point: usize,
    /// Replica index within the point.
    pub replica: usize,
    /// The unit's derived seed.
    pub seed: u64,
    /// The unit's results.
    pub metrics: Vec<Metric>,
}

/// What [`Store::create_or_resume`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResumeInfo {
    /// Records replayed from an existing store.
    pub replayed: usize,
    /// Bytes of torn tail truncated away (0 for a clean store).
    pub truncated_bytes: u64,
    /// Whether the file existed with a valid header before this open.
    pub resumed: bool,
}

/// An experiment result store: an in-memory replay of its records plus,
/// for persistent stores, a [`StoreIo`] append handle that fsyncs every
/// committed batch. The handle is a real file for on-disk stores and a simulated
/// disk under fault injection (see `mc_fault::SimDisk`).
#[derive(Debug)]
pub struct Store {
    header: StoreHeader,
    records: Vec<UnitRecord>,
    completed: BTreeSet<usize>,
    io: Option<Box<dyn StoreIo>>,
    /// Display name for error messages: the path for on-disk stores,
    /// `<memory>` or a caller-chosen label otherwise.
    label: String,
    path: Option<PathBuf>,
}

impl Store {
    /// A memory-only store for in-process runs and tests — same
    /// validation, no file.
    #[must_use]
    pub fn in_memory(spec: &CampaignSpec) -> Self {
        Store {
            header: StoreHeader {
                schema_version: SCHEMA_VERSION,
                fingerprint: spec.fingerprint(),
                spec: spec.clone(),
            },
            records: Vec::new(),
            completed: BTreeSet::new(),
            io: None,
            label: "<memory>".to_string(),
            path: None,
        }
    }

    /// Opens (or creates) the store at `path` for campaign `spec`.
    ///
    /// A missing or empty file is initialised with a fresh header. An
    /// existing file is replayed: its header must match the spec's
    /// fingerprint and schema version exactly; a torn tail is truncated;
    /// every valid record marks its unit complete.
    ///
    /// # Errors
    ///
    /// I/O failures, interior corruption, or a header from a different
    /// campaign.
    pub fn create_or_resume(
        path: &Path,
        spec: &CampaignSpec,
    ) -> Result<(Self, ResumeInfo), ExpError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        let label = path.display().to_string();
        let (mut store, info) =
            Store::create_or_resume_io(Box::new(RealFile::new(file)), &label, spec)?;
        store.path = Some(path.to_path_buf());
        Ok((store, info))
    }

    /// [`Store::create_or_resume`] over any [`StoreIo`] handle — the
    /// production path goes through a [`RealFile`]; the fault-injection
    /// sweeps hand in a simulated disk. `label` names the store in error
    /// messages.
    ///
    /// # Errors
    ///
    /// I/O failures (real or injected), interior corruption, or a header
    /// from a different campaign.
    pub fn create_or_resume_io(
        mut io: Box<dyn StoreIo>,
        label: &str,
        spec: &CampaignSpec,
    ) -> Result<(Self, ResumeInfo), ExpError> {
        let mut store = Store::in_memory(spec);
        store.label = label.to_string();
        let mut info = ResumeInfo::default();

        let mut bytes = Vec::new();
        io.read_to_end(&mut bytes)
            .map_err(|e| label_io_err(label, e))?;

        let parsed = parse_store_bytes(&bytes, spec, label)?;
        match parsed {
            Parsed::Fresh => {
                // Missing header (empty file or torn header line): start
                // clean. `truncate` leaves the cursor at the new end (0),
                // so the header lands at the start of the file.
                io.truncate(0).map_err(|e| label_io_err(label, e))?;
                write_line(io.as_mut(), label, &store.header)?;
                info.truncated_bytes = bytes.len() as u64;
            }
            Parsed::Replayed { records, good_len } => {
                info.resumed = true;
                info.replayed = records.len();
                info.truncated_bytes = (bytes.len() - good_len) as u64;
                if good_len < bytes.len() {
                    io.truncate(good_len as u64)
                        .map_err(|e| label_io_err(label, e))?;
                    io.sync_data().map_err(|e| label_io_err(label, e))?;
                }
                // Cursor is at end-of-file here by the StoreIo contract
                // (after read_to_end or truncate), so appends continue
                // where the valid content stops.
                for r in records {
                    store.completed.insert(r.unit);
                    store.records.push(r);
                }
            }
        }
        store.io = Some(io);
        Ok((store, info))
    }

    /// Loads a store read-only (for `exp status`, merging, and export).
    /// Tolerates a torn tail in memory without modifying the file. When
    /// `expected` is given, the header must match it.
    ///
    /// # Errors
    ///
    /// I/O failures, a missing/torn header, interior corruption, or a
    /// campaign mismatch.
    pub fn load(path: &Path, expected: Option<&CampaignSpec>) -> Result<Self, ExpError> {
        let display = path.display().to_string();
        let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
        let (header, rest) = parse_header(&bytes, &display)?.ok_or_else(|| ExpError::Store {
            path: display.clone(),
            detail: "missing or torn header line".into(),
        })?;
        // With no expected spec, check the header against its own embedded
        // spec — schema version and self-consistent fingerprint still hold.
        check_header(&header, expected.unwrap_or(&header.spec), &display)?;
        let records = parse_records(rest, &header.spec, &display, bytes.len() - rest.len())?.0;
        let mut store = Store {
            header,
            records: Vec::new(),
            completed: BTreeSet::new(),
            io: None,
            label: display,
            path: Some(path.to_path_buf()),
        };
        for r in records {
            store.completed.insert(r.unit);
            store.records.push(r);
        }
        Ok(store)
    }

    /// The store's header.
    #[must_use]
    pub fn header(&self) -> &StoreHeader {
        &self.header
    }

    /// The campaign this store belongs to.
    #[must_use]
    pub fn spec(&self) -> &CampaignSpec {
        &self.header.spec
    }

    /// The replayed/appended records, in store order.
    #[must_use]
    pub fn records(&self) -> &[UnitRecord] {
        &self.records
    }

    /// Whether unit `index` already has a record.
    #[must_use]
    pub fn is_complete(&self, index: usize) -> bool {
        self.completed.contains(&index)
    }

    /// Number of completed units.
    #[must_use]
    pub fn completed_count(&self) -> usize {
        self.completed.len()
    }

    /// The store path, when on disk.
    #[must_use]
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Classifies `record` against what the store already holds for its
    /// unit: `Ok(false)` means the unit is new, `Ok(true)` means an
    /// identical record is already present (a benign duplicate), and a
    /// conflicting payload for the same unit is an error — the shared
    /// judgement behind [`Store::append_dedup`] and [`Store::merge`].
    fn duplicate_of(&self, record: &UnitRecord) -> Result<bool, ExpError> {
        if !self.completed.contains(&record.unit) {
            return Ok(false);
        }
        let existing = self
            .records
            .iter()
            .find(|m| m.unit == record.unit)
            .expect("completed implies a record");
        if existing == record {
            Ok(true)
        } else {
            Err(self.conflict(record.unit))
        }
    }

    fn conflict(&self, unit: usize) -> ExpError {
        ExpError::Store {
            path: self.label.clone(),
            detail: format!("unit {unit} has conflicting records"),
        }
    }

    /// Appends one record — the one-record case of
    /// [`Store::append_batch`]: once this returns `Ok`, the unit survives
    /// any crash.
    ///
    /// # Errors
    ///
    /// Duplicate or out-of-contract records, and I/O failures.
    pub fn append(&mut self, record: UnitRecord) -> Result<(), ExpError> {
        self.append_batch(vec![record])
    }

    /// Group commit: validates the whole batch, writes one line per
    /// record, `fsync`s once, and only then marks the units complete.
    /// Once this returns `Ok`, every unit of the batch survives any
    /// crash; until then none of them counts as complete, so a crash
    /// mid-batch loses only records that were never acknowledged.
    ///
    /// Nothing is written unless every record passes: the unit range,
    /// the seed contract, and no unit already in the store or twice in
    /// the batch.
    ///
    /// # Errors
    ///
    /// Duplicate or out-of-contract records (the store is unchanged),
    /// and I/O failures.
    pub fn append_batch(&mut self, mut batch: Vec<UnitRecord>) -> Result<(), ExpError> {
        self.commit(&mut batch)
    }

    /// [`Store::append_batch`] with at-least-once semantics, for the
    /// coordinator's redelivered records. Records identical to one the
    /// store holds, or to an earlier record of the batch, are benign
    /// duplicates: they are removed from `batch` in place. A
    /// *conflicting* payload for a unit is an error. The remaining new
    /// records are group-committed and `batch` is left empty. Returns the
    /// number of records appended; the duplicates are the rest.
    ///
    /// Every record is validated before any dedup decision or write, so
    /// an error leaves the store unchanged unless it is an I/O failure.
    ///
    /// # Errors
    ///
    /// Conflicting duplicates, out-of-contract records, and I/O failures.
    pub fn append_dedup(&mut self, batch: &mut Vec<UnitRecord>) -> Result<usize, ExpError> {
        for record in batch.iter() {
            validate_record(record, &self.header.spec, &self.label)?;
        }
        // Unit -> batch index of its first new record.
        let mut first: BTreeMap<usize, usize> = BTreeMap::new();
        let mut keep = Vec::with_capacity(batch.len());
        for (i, record) in batch.iter().enumerate() {
            let duplicate = match first.get(&record.unit) {
                Some(&j) if batch[j] == *record => true,
                Some(_) => return Err(self.conflict(record.unit)),
                None => self.duplicate_of(record)?,
            };
            if !duplicate {
                first.insert(record.unit, i);
            }
            keep.push(!duplicate);
        }
        let mut keep = keep.into_iter();
        batch.retain(|_| keep.next() == Some(true));
        let appended = batch.len();
        self.commit(batch)?;
        Ok(appended)
    }

    /// The group commit behind [`Store::append_batch`] and
    /// [`Store::append_dedup`]; drains `batch` into the store on success.
    fn commit(&mut self, batch: &mut Vec<UnitRecord>) -> Result<(), ExpError> {
        let _append_span = mc_obs::span("store.append");
        let label = &self.label;
        let mut units = BTreeSet::new();
        for record in batch.iter() {
            validate_record(record, &self.header.spec, label)?;
            if self.completed.contains(&record.unit) || !units.insert(record.unit) {
                return Err(ExpError::Store {
                    path: label.clone(),
                    detail: format!("duplicate record for unit {}", record.unit),
                });
            }
        }
        if let Some(io) = self.io.as_mut() {
            // One write per line: serializing the whole batch into one
            // buffer first would grow peak memory with the batch size.
            for record in batch.iter() {
                let mut line = serde_json::to_string(record).map_err(|e| ExpError::Store {
                    path: label.clone(),
                    detail: format!("record serialization failed: {e}"),
                })?;
                line.push('\n');
                io.write_all(line.as_bytes())
                    .map_err(|e| label_io_err(label, e))?;
            }
            // fsync dominates append cost on real disks; give it its own
            // span (and latency histogram) so `trace summary` separates
            // storage stalls from compute.
            let _fsync_span = mc_obs::span("store.fsync");
            let t0 = mc_obs::is_enabled().then(mc_obs::now_ns);
            io.sync_data().map_err(|e| label_io_err(label, e))?;
            if let Some(t0) = t0 {
                mc_obs::record_f64("store.fsync_ns", mc_obs::now_ns().saturating_sub(t0) as f64);
                // How many records this fsync made durable.
                mc_obs::counter("store.records", batch.len() as u64);
                mc_obs::record_f64("store.batch_records", batch.len() as f64);
            }
        }
        for record in batch.drain(..) {
            self.completed.insert(record.unit);
            self.records.push(record);
        }
        Ok(())
    }

    /// The store's canonical text: the header line followed by every
    /// record sorted by unit index. Two stores of the same campaign with
    /// the same completed units render identically — the byte-identity
    /// form behind `exp merge` and the resume-correctness tests.
    #[must_use]
    pub fn canonical_lines(&self) -> String {
        let mut sorted: Vec<&UnitRecord> = self.records.iter().collect();
        sorted.sort_by_key(|r| r.unit);
        let mut out = serde_json::to_string(&self.header).expect("header serialization");
        out.push('\n');
        for r in sorted {
            out.push_str(&serde_json::to_string(r).expect("record serialization"));
            out.push('\n');
        }
        out
    }

    /// Merges several stores of the *same campaign* into one in-memory
    /// store: fingerprints must agree, identical duplicate records dedup,
    /// conflicting records for the same unit are an error.
    ///
    /// # Errors
    ///
    /// Campaign mismatches or conflicting duplicates.
    pub fn merge(stores: &[Store]) -> Result<Store, ExpError> {
        let first = stores
            .first()
            .ok_or_else(|| ExpError::Config("merge needs at least one store".into()))?;
        let mut merged = Store::in_memory(first.spec());
        for s in stores {
            let display = s.label.clone();
            check_header(&s.header, first.spec(), &display)?;
            for r in &s.records {
                // Re-attribute conflicts to the store being folded in, not
                // the in-memory accumulator — the user needs to know which
                // input file disagrees.
                match merged.duplicate_of(r) {
                    Ok(true) => {}
                    Ok(false) => {
                        merged.completed.insert(r.unit);
                        merged.records.push(r.clone());
                    }
                    Err(ExpError::Store { detail, .. }) => {
                        return Err(ExpError::Store {
                            path: display,
                            detail: format!("{detail} across stores"),
                        });
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(merged)
    }
}

/// Serializes `value` as one JSON line, writes it, and fsyncs.
fn write_line<T: Serialize>(io: &mut dyn StoreIo, label: &str, value: &T) -> Result<(), ExpError> {
    let mut line = serde_json::to_string(value).map_err(|e| ExpError::Store {
        path: label.to_string(),
        detail: format!("serialization failed: {e}"),
    })?;
    line.push('\n');
    io.write_all(line.as_bytes())
        .map_err(|e| label_io_err(label, e))?;
    io.sync_data().map_err(|e| label_io_err(label, e))?;
    Ok(())
}

enum Parsed {
    /// No usable header: initialise a fresh store.
    Fresh,
    /// A valid header for this campaign plus its replayable records.
    Replayed {
        records: Vec<UnitRecord>,
        /// Prefix length (bytes) of the valid content; anything beyond is
        /// a torn tail to truncate.
        good_len: usize,
    },
}

/// Splits off and parses the header line. `Ok(None)` means the file is
/// empty or its first line is torn (no trailing newline) — the
/// crash-during-header-write case.
fn parse_header<'a>(
    bytes: &'a [u8],
    display: &str,
) -> Result<Option<(StoreHeader, &'a [u8])>, ExpError> {
    let Some(nl) = bytes.iter().position(|&b| b == b'\n') else {
        return Ok(None);
    };
    let line = std::str::from_utf8(&bytes[..nl]).map_err(|_| ExpError::Store {
        path: display.to_string(),
        detail: "header line is not UTF-8".into(),
    })?;
    let header: StoreHeader = serde_json::from_str(line).map_err(|e| ExpError::Store {
        path: display.to_string(),
        detail: format!("header line does not parse: {e}"),
    })?;
    Ok(Some((header, &bytes[nl + 1..])))
}

/// Checks a parsed header against the expected campaign.
fn check_header(header: &StoreHeader, spec: &CampaignSpec, display: &str) -> Result<(), ExpError> {
    if header.schema_version != SCHEMA_VERSION {
        return Err(ExpError::Mismatch {
            path: display.to_string(),
            detail: format!(
                "schema version {} (this build reads {SCHEMA_VERSION})",
                header.schema_version
            ),
        });
    }
    let expected = spec.fingerprint();
    if header.fingerprint != expected {
        return Err(ExpError::Mismatch {
            path: display.to_string(),
            detail: format!(
                "fingerprint {} but the requested campaign is {expected}",
                header.fingerprint
            ),
        });
    }
    if header.fingerprint != header.spec.fingerprint() {
        return Err(ExpError::Store {
            path: display.to_string(),
            detail: "header fingerprint does not match its embedded spec".into(),
        });
    }
    Ok(())
}

/// Parses the record lines after the header. Returns the records and the
/// byte length of the valid region *relative to the record bytes*. A
/// torn or unparseable LAST line is dropped (crash case); an unparseable
/// interior line is corruption, reported with its 1-based line number
/// and absolute byte offset (`base_offset` is where the record bytes
/// start within the file — i.e. the header line's length).
fn parse_records(
    bytes: &[u8],
    spec: &CampaignSpec,
    display: &str,
    base_offset: usize,
) -> Result<(Vec<UnitRecord>, usize), ExpError> {
    let mut records = Vec::new();
    let mut seen = BTreeSet::new();
    let mut good_len = 0usize;
    let mut offset = 0usize;
    let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
    for (i, raw) in lines.iter().enumerate() {
        let last = i + 1 == lines.len();
        let complete = raw.last() == Some(&b'\n');
        let parsed = std::str::from_utf8(raw)
            .ok()
            .filter(|_| complete)
            .and_then(|s| serde_json::from_str::<UnitRecord>(s.trim_end_matches('\n')).ok());
        match parsed {
            Some(record) => {
                validate_record(&record, spec, display)?;
                if !seen.insert(record.unit) {
                    return Err(ExpError::Store {
                        path: display.to_string(),
                        detail: format!("duplicate record for unit {}", record.unit),
                    });
                }
                offset += raw.len();
                good_len = offset;
                records.push(record);
            }
            None if last => break, // torn or garbled tail: truncate.
            None => {
                // `offset` has only advanced past parsed lines, so it is
                // the corrupt line's start relative to the record bytes.
                return Err(ExpError::Store {
                    path: display.to_string(),
                    detail: format!(
                        "record line {} (byte offset {}) does not parse",
                        i + 2,
                        base_offset + offset
                    ),
                });
            }
        }
    }
    Ok((records, good_len))
}

/// Full parse of a store file for `create_or_resume`.
fn parse_store_bytes(bytes: &[u8], spec: &CampaignSpec, display: &str) -> Result<Parsed, ExpError> {
    let Some((header, rest)) = parse_header(bytes, display)? else {
        return Ok(Parsed::Fresh);
    };
    check_header(&header, spec, display)?;
    let header_len = bytes.len() - rest.len();
    let (records, rec_len) = parse_records(rest, spec, display, header_len)?;
    Ok(Parsed::Replayed {
        records,
        good_len: header_len + rec_len,
    })
}

/// Checks a record against the campaign's unit and seed contract.
fn validate_record(
    record: &UnitRecord,
    spec: &CampaignSpec,
    display: &str,
) -> Result<(), ExpError> {
    let bad = |detail: String| ExpError::Store {
        path: display.to_string(),
        detail,
    };
    if spec.replicas == 0 || record.unit >= spec.total_units() {
        return Err(bad(format!(
            "unit {} out of range (campaign has {} units)",
            record.unit,
            spec.total_units()
        )));
    }
    if record.unit != record.point * spec.replicas + record.replica
        || record.replica >= spec.replicas
    {
        return Err(bad(format!(
            "unit {} does not match point {} / replica {}",
            record.unit, record.point, record.replica
        )));
    }
    let expected = unit_seed(spec.seed, record.point, record.replica);
    if record.seed != expected {
        return Err(bad(format!(
            "unit {} carries seed {} but the campaign derives {expected}",
            record.unit, record.seed
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Param, PointSpec};

    fn spec() -> CampaignSpec {
        CampaignSpec {
            name: "store-test".into(),
            seed: 9,
            params: vec![],
            points: vec![
                PointSpec::new("a", vec![Param::new("u", 0.5)]),
                PointSpec::new("b", vec![Param::new("u", 0.8)]),
            ],
            replicas: 2,
        }
    }

    fn record(s: &CampaignSpec, unit: usize, value: f64) -> UnitRecord {
        let u = s.unit(unit);
        UnitRecord {
            unit: u.index,
            point: u.point,
            replica: u.replica,
            seed: u.seed,
            metrics: vec![Metric::new("objective", value)],
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mc-exp-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn fresh_store_writes_header_and_records() {
        let s = spec();
        let path = tmp("fresh");
        let _ = std::fs::remove_file(&path);
        let (mut store, info) = Store::create_or_resume(&path, &s).unwrap();
        assert!(!info.resumed);
        store.append(record(&s, 0, 0.25)).unwrap();
        store.append(record(&s, 3, 0.5)).unwrap();
        drop(store);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let header: StoreHeader = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(header.schema_version, SCHEMA_VERSION);
        assert_eq!(header.fingerprint, s.fingerprint());
        assert_eq!(header.spec, s);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_replays_and_skips_completed_units() {
        let s = spec();
        let path = tmp("resume");
        let _ = std::fs::remove_file(&path);
        {
            let (mut store, _) = Store::create_or_resume(&path, &s).unwrap();
            store.append(record(&s, 1, 0.75)).unwrap();
        }
        let (store, info) = Store::create_or_resume(&path, &s).unwrap();
        assert!(info.resumed);
        assert_eq!(info.replayed, 1);
        assert_eq!(info.truncated_bytes, 0);
        assert!(store.is_complete(1));
        assert!(!store.is_complete(0));
        assert_eq!(store.records()[0].metrics[0].value, 0.75);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let s = spec();
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut store, _) = Store::create_or_resume(&path, &s).unwrap();
            store.append(record(&s, 0, 0.1)).unwrap();
        }
        let clean = std::fs::read(&path).unwrap();
        // Simulate a crash mid-write of the next record.
        let mut torn = clean.clone();
        torn.extend_from_slice(br#"{"unit":1,"point":0,"rep"#);
        std::fs::write(&path, &torn).unwrap();

        let (mut store, info) = Store::create_or_resume(&path, &s).unwrap();
        assert_eq!(info.replayed, 1);
        assert_eq!(info.truncated_bytes, (torn.len() - clean.len()) as u64);
        store.append(record(&s, 1, 0.2)).unwrap();
        drop(store);
        // The rewritten record parses and the file is clean again.
        let (store, info) = Store::create_or_resume(&path, &s).unwrap();
        assert_eq!(info.replayed, 2);
        assert_eq!(info.truncated_bytes, 0);
        assert!(store.is_complete(0) && store.is_complete(1));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbled_last_line_with_newline_is_also_recovered() {
        let s = spec();
        let path = tmp("garbled");
        let _ = std::fs::remove_file(&path);
        {
            let (mut store, _) = Store::create_or_resume(&path, &s).unwrap();
            store.append(record(&s, 0, 0.1)).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"not json at all\n");
        std::fs::write(&path, &bytes).unwrap();
        let (store, info) = Store::create_or_resume(&path, &s).unwrap();
        assert_eq!(info.replayed, 1);
        assert_eq!(info.truncated_bytes, 16);
        assert_eq!(store.completed_count(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interior_corruption_is_an_error_not_a_truncation() {
        let s = spec();
        let path = tmp("interior");
        let _ = std::fs::remove_file(&path);
        {
            let (mut store, _) = Store::create_or_resume(&path, &s).unwrap();
            store.append(record(&s, 0, 0.1)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let broken = text.replacen("\"unit\":0", "\"unit\":oops", 1);
        let broken = broken + &serde_json::to_string(&record(&s, 1, 0.2)).unwrap() + "\n";
        std::fs::write(&path, broken).unwrap();
        let err = Store::create_or_resume(&path, &s).unwrap_err();
        assert!(matches!(err, ExpError::Store { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interior_corruption_reports_line_and_byte_offset() {
        let s = spec();
        // Three records on lines 2–4; corrupting line 2 or 3 is interior
        // (line 4 would be a recoverable tail). Check the error pinpoints
        // each position by 1-based line number and absolute byte offset.
        for corrupt_idx in 0..2usize {
            let path = tmp(&format!("interior-pos{corrupt_idx}"));
            let _ = std::fs::remove_file(&path);
            {
                let (mut store, _) = Store::create_or_resume(&path, &s).unwrap();
                store.append(record(&s, 0, 0.1)).unwrap();
                store.append(record(&s, 1, 0.2)).unwrap();
                store.append(record(&s, 2, 0.3)).unwrap();
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let mut lines: Vec<&str> = text.lines().collect();
            let line_no = corrupt_idx + 2; // header is line 1
            let byte_offset: usize = lines[..corrupt_idx + 1].iter().map(|l| l.len() + 1).sum();
            lines[corrupt_idx + 1] = "###garbage###";
            std::fs::write(&path, lines.join("\n") + "\n").unwrap();
            let err = Store::create_or_resume(&path, &s).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("record line {line_no} ")),
                "position {corrupt_idx}: {msg}"
            );
            assert!(
                msg.contains(&format!("(byte offset {byte_offset})")),
                "position {corrupt_idx}: {msg}"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn wrong_campaign_is_a_mismatch() {
        let s = spec();
        let path = tmp("mismatch");
        let _ = std::fs::remove_file(&path);
        let _ = Store::create_or_resume(&path, &s).unwrap();
        let mut other = spec();
        other.seed = 10;
        let err = Store::create_or_resume(&path, &other).unwrap_err();
        assert!(matches!(err, ExpError::Mismatch { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn record_validation_enforces_the_seed_contract() {
        let s = spec();
        let mut store = Store::in_memory(&s);
        let mut r = record(&s, 0, 0.1);
        r.seed ^= 1;
        assert!(matches!(
            store.append(r).unwrap_err(),
            ExpError::Store { .. }
        ));
        let mut r = record(&s, 0, 0.1);
        r.unit = 99;
        assert!(store.append(r).is_err());
        store.append(record(&s, 0, 0.1)).unwrap();
        assert!(store.append(record(&s, 0, 0.1)).is_err());
    }

    #[test]
    fn canonical_lines_sort_by_unit_and_round_trip_bytes() {
        let s = spec();
        let mut a = Store::in_memory(&s);
        a.append(record(&s, 2, 0.3)).unwrap();
        a.append(record(&s, 0, 0.1)).unwrap();
        let mut b = Store::in_memory(&s);
        b.append(record(&s, 0, 0.1)).unwrap();
        b.append(record(&s, 2, 0.3)).unwrap();
        assert_eq!(a.canonical_lines(), b.canonical_lines());
        let first_record = a.canonical_lines().lines().nth(1).unwrap().to_string();
        let parsed: UnitRecord = serde_json::from_str(&first_record).unwrap();
        assert_eq!(parsed.unit, 0);
    }

    #[test]
    fn merge_dedups_identical_and_rejects_conflicts() {
        let s = spec();
        let mut a = Store::in_memory(&s);
        a.append(record(&s, 0, 0.1)).unwrap();
        a.append(record(&s, 1, 0.2)).unwrap();
        let mut b = Store::in_memory(&s);
        b.append(record(&s, 1, 0.2)).unwrap();
        b.append(record(&s, 2, 0.3)).unwrap();
        let merged = Store::merge(&[a, b]).unwrap();
        assert_eq!(merged.completed_count(), 3);

        let mut c = Store::in_memory(&s);
        c.append(record(&s, 0, 0.1)).unwrap();
        let mut d = Store::in_memory(&s);
        d.append(record(&s, 0, 0.9)).unwrap();
        assert!(matches!(
            Store::merge(&[c, d]).unwrap_err(),
            ExpError::Store { .. }
        ));
    }

    #[test]
    fn append_dedup_skips_identical_and_rejects_conflicts() {
        let s = spec();
        let mut store = Store::in_memory(&s);
        assert_eq!(
            store.append_dedup(&mut vec![record(&s, 0, 0.1)]).unwrap(),
            1
        );
        // At-least-once redelivery of the same unit is a no-op...
        assert_eq!(
            store.append_dedup(&mut vec![record(&s, 0, 0.1)]).unwrap(),
            0
        );
        assert_eq!(store.records().len(), 1);
        // ...but a different payload for the same unit is corruption.
        let err = store
            .append_dedup(&mut vec![record(&s, 0, 0.9)])
            .unwrap_err();
        assert!(err.to_string().contains("conflicting records"), "{err}");
        // Contract validation still runs before the dedup decision.
        let mut bad = record(&s, 1, 0.2);
        bad.seed ^= 1;
        assert!(store.append_dedup(&mut vec![bad]).is_err());
    }

    #[test]
    fn append_dedup_drops_duplicates_within_a_batch_in_place() {
        let s = spec();
        let mut store = Store::in_memory(&s);
        store.append(record(&s, 0, 0.1)).unwrap();
        let mut batch = vec![
            record(&s, 0, 0.1), // already in the store
            record(&s, 1, 0.2),
            record(&s, 1, 0.2), // an earlier record of the batch
            record(&s, 2, 0.3),
        ];
        assert_eq!(store.append_dedup(&mut batch).unwrap(), 2);
        assert!(batch.is_empty(), "the batch is drained into the store");
        let units: Vec<usize> = store.records().iter().map(|r| r.unit).collect();
        assert_eq!(units, vec![0, 1, 2]);
        // A conflict inside one batch is caught before anything commits.
        let mut batch = vec![record(&s, 3, 0.4), record(&s, 3, 0.5)];
        let err = store.append_dedup(&mut batch).unwrap_err();
        assert!(err.to_string().contains("conflicting records"), "{err}");
        assert!(!store.is_complete(3));
    }

    #[test]
    fn append_batch_writes_the_same_bytes_with_one_fsync() {
        let s = spec();
        let one_by_one = mc_fault::SimDisk::new();
        let (mut store, _) =
            Store::create_or_resume_io(Box::new(one_by_one.open()), "<one>", &s).unwrap();
        for unit in [2, 0, 3] {
            store.append(record(&s, unit, 0.5)).unwrap();
        }
        let batched = mc_fault::SimDisk::new();
        let (mut store, _) =
            Store::create_or_resume_io(Box::new(batched.open()), "<batch>", &s).unwrap();
        let syncs_before = batched.stats().syncs;
        store
            .append_batch(vec![
                record(&s, 2, 0.5),
                record(&s, 0, 0.5),
                record(&s, 3, 0.5),
            ])
            .unwrap();
        assert_eq!(
            batched.stats().syncs - syncs_before,
            1,
            "one fsync per batch"
        );
        assert_eq!(
            batched.durable(),
            one_by_one.durable(),
            "same bytes, same order"
        );
        assert_eq!(store.completed_count(), 3);
    }

    #[test]
    fn a_rejected_batch_leaves_the_file_unchanged() {
        let s = spec();
        let path = tmp("rejected-batch");
        let _ = std::fs::remove_file(&path);
        let (mut store, _) = Store::create_or_resume(&path, &s).unwrap();
        store.append(record(&s, 0, 0.1)).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let mut bad_seed = record(&s, 2, 0.3);
        bad_seed.seed ^= 1;
        let mut out_of_range = record(&s, 1, 0.2);
        out_of_range.unit = 99;
        let rejected = [
            vec![record(&s, 1, 0.2), bad_seed],
            vec![record(&s, 1, 0.2), out_of_range],
            vec![record(&s, 1, 0.2), record(&s, 0, 0.1)], // in the store
            vec![record(&s, 1, 0.2), record(&s, 1, 0.2)], // twice in the batch
        ];
        for batch in rejected {
            assert!(store.append_batch(batch).is_err());
            assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
            assert_eq!(store.completed_count(), 1);
        }
        let mut conflicting = vec![record(&s, 1, 0.2), record(&s, 0, 0.9)];
        assert!(store.append_dedup(&mut conflicting).is_err());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        assert!(!store.is_complete(1));
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_reads_without_modifying_a_torn_file() {
        let s = spec();
        let path = tmp("load");
        let _ = std::fs::remove_file(&path);
        {
            let (mut store, _) = Store::create_or_resume(&path, &s).unwrap();
            store.append(record(&s, 0, 0.1)).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{torn");
        std::fs::write(&path, &bytes).unwrap();
        let store = Store::load(&path, Some(&s)).unwrap();
        assert_eq!(store.completed_count(), 1);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "load must not write");
        std::fs::remove_file(&path).unwrap();
    }
}
