//! Set-up shared by every workload: start the engine and write every
//! row, so that no measured read can come back `None` and the lazy
//! warm-start placement is paid before the first timed step.

use std::path::{Path, PathBuf};
use std::time::Instant;

use laoram_service::{LaoramService, Request, ServiceError};

use crate::report::Tally;
use crate::rows;
use crate::spec::{Workload, SETUP_REPS, TABLES};
use crate::stats::median;

/// Rows written per populate batch, and batches kept in flight.
const POPULATE_BATCH: u32 = 1024;
const POPULATE_INFLIGHT: u64 = 2;

/// Where a run may write: everything sits under one directory of the
/// checkout, and the per-run scratch part of it is removed at exit.
pub struct Dirs {
    pub out: PathBuf,
    scratch: PathBuf,
    next_store: u32,
}

impl Dirs {
    pub fn create(out: &Path) -> std::io::Result<Self> {
        let scratch = out.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&scratch)?;
        Ok(Dirs { out: out.to_owned(), scratch, next_store: 0 })
    }

    /// A fresh directory for one engine's disk stores (an existing one
    /// would be recovered instead of populated).
    pub fn fresh_store(&mut self) -> PathBuf {
        self.next_store += 1;
        self.scratch.join(format!("store-{}", self.next_store))
    }

    pub fn telemetry(&self) -> PathBuf {
        self.scratch.join("flight")
    }

    pub fn remove_store(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// The populated value of one row.
pub fn populated_row(w: &Workload, table: u32, index: u32) -> Box<[u8]> {
    match w.layout() {
        Some(layout) => rows::train_row(layout, table, index),
        None => rows::serve_row(table, index, 0, w.row_len()),
    }
}

/// Writes every row of every table through the batch API. A fresh row
/// has no previous payload, so anything but `None` back is wrong.
pub fn populate(service: &mut LaoramService, w: &Workload) -> Result<Tally, ServiceError> {
    let mut tally = Tally::default();
    let mut check = |response: laoram_service::BatchResponse| {
        tally.wrong += response.outputs.iter().filter(|o| o.is_some()).count() as u64;
    };
    for table in 0..TABLES {
        for start in (0..w.rows).step_by(POPULATE_BATCH as usize) {
            let end = (start + POPULATE_BATCH).min(w.rows);
            let batch: Vec<Request> = (start..end)
                .map(|i| Request::write(table as usize, i, populated_row(w, table, i)))
                .collect();
            service.submit(batch)?;
            while service.outstanding() > POPULATE_INFLIGHT {
                check(service.next_response()?);
            }
        }
    }
    for response in service.drain()? {
        check(response);
    }
    tally.attempted = u64::from(TABLES) * u64::from(w.rows);
    Ok(tally)
}

/// A started, fully populated engine and what it cost.
pub struct Ready {
    pub service: LaoramService,
    pub setup_s: f64,
    pub store_dir: PathBuf,
    pub tally: Tally,
}

/// One set-up: engine start to populate pass complete.
pub fn setup(w: &Workload, dirs: &mut Dirs, traced: bool) -> Result<Ready, ServiceError> {
    let store_dir = dirs.fresh_store();
    let telemetry = dirs.telemetry();
    let start = Instant::now();
    let config = w.engine_config(&store_dir, traced.then_some(telemetry.as_path()));
    let mut service = LaoramService::start(config)?;
    let tally = populate(&mut service, w)?;
    Ok(Ready { service, setup_s: start.elapsed().as_secs_f64(), store_dir, tally })
}

/// Sets up `SETUP_REPS` times and keeps the last engine; `setup_s` is
/// the median, so one slow first touch of fresh memory does not decide it.
pub fn setup_median(w: &Workload, dirs: &mut Dirs) -> Result<Ready, ServiceError> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut tally = Tally::default();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let ready = setup(w, dirs, false)?;
        times.push(ready.setup_s);
        tally.add(&ready.tally);
        if rep + 1 < SETUP_REPS {
            let report = ready.service.shutdown()?;
            tally.errored += report.worker_errors.len() as u64 + report.truncated_requests;
            dirs.remove_store(&ready.store_dir);
        } else {
            kept = Some(ready);
        }
    }
    let mut ready = kept.expect("SETUP_REPS >= 1");
    println!("# setup_s samples: {times:?}");
    ready.setup_s = median(&times);
    ready.tally = tally;
    Ok(ready)
}
