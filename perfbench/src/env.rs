//! The environment recorded with every result: cores and thread budgets,
//! the store directory's filesystem and measured fsync floor, the serve
//! liveness settings, and the commit.

use crate::pass::{SERVE_HEARTBEAT_TIMEOUT, SERVE_LEASES, WORKER_HEARTBEAT, WORKER_THREADS};
use crate::stats;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Write+fsync pairs timed for the floor: enough that ten lie beyond the
/// 99th percentile.
const FSYNC_SAMPLES: usize = 1000;

/// The filesystem type holding `dir`, from the longest matching mount
/// point in `/proc/mounts`.
fn filesystem(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_dev, point, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

/// Median and 99th percentile of small write+fsync pairs in `dir`, in µs.
fn fsync_floor(dir: &Path) -> Result<(f64, f64), String> {
    let path = dir.join("fsync-floor.bin");
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let record = [b'x'; 100];
    let mut samples = Vec::with_capacity(FSYNC_SAMPLES);
    for _ in 0..FSYNC_SAMPLES {
        let t = Instant::now();
        file.write_all(&record).map_err(|e| e.to_string())?;
        file.sync_data().map_err(|e| e.to_string())?;
        samples.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    drop(file);
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    Ok((
        stats::quantile(&samples, 0.5) as f64 / 1e3,
        stats::quantile(&samples, 0.99) as f64 / 1e3,
    ))
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout without `.git` reports `unknown`.
fn commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The environment as one JSON object.
///
/// # Errors
///
/// The fsync floor could not be measured in `store_dir`.
pub fn record(store_dir: &Path, repo: &Path, default_threads: usize) -> Result<String, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fs = filesystem(store_dir);
    if fs == "tmpfs" || fs == "ramfs" {
        eprintln!("perfbench: warning: stores are on {fs}, where fsync costs nothing");
    }
    let (p50, p99) = fsync_floor(store_dir)?;
    Ok(format!(
        "{{\"nproc\":{nproc},\"threads\":{{\"default\":{default_threads},\"single\":1,\
         \"serve_worker\":{WORKER_THREADS}}},\"store_fs\":\"{fs}\",\
         \"fsync_floor_us\":{{\"p50\":{p50},\"p99\":{p99},\"samples\":{FSYNC_SAMPLES}}},\
         \"serve\":{{\"leases\":{SERVE_LEASES},\"heartbeat_timeout_ms\":{},\
         \"worker_heartbeat_ms\":{},\"workers\":1}},\"commit\":\"{}\"}}",
        SERVE_HEARTBEAT_TIMEOUT.as_millis(),
        WORKER_HEARTBEAT.as_millis(),
        commit(repo)
    ))
}
