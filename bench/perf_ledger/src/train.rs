//! The train driver: one trainer, closed loop, DLRM steps through the
//! in-process batch API with one step of look-ahead — the lookups of
//! step k+1 are submitted while the updates of step k are served (the
//! paper's batch N / N+1 overlap). Verification is a shadow replay after
//! the timed phases, so it never shares the two cores with them.

use std::time::{Duration, Instant};

use laoram_service::{LaoramService, Request, RowUpdate, ServiceError, TableRecovery};
use oram_workloads::{synthetic_gradient, DlrmTraceConfig, Trace, TraceKind};

use crate::report::Tally;
use crate::rows::{self, Shadow};
use crate::spans::{SpanId, Spans};
use crate::spec::{
    Workload, CAPACITY_WINDOWS, DLRM_BAG, DLRM_DIM, DLRM_EPS, DLRM_LR, DLRM_SAMPLES, TABLES,
    TRACE_LEN,
};
use crate::stats::{unique_frac, Windows};

/// Rows one step reads (and then trains) per table.
const ROWS_PER_TABLE_STEP: usize = DLRM_SAMPLES * DLRM_BAG;
/// Accesses of one step: every row is read, then updated.
pub const ACCESSES_PER_STEP: u64 = 2 * (TABLES as u64) * ROWS_PER_TABLE_STEP as u64;
/// Rows per read-back batch of the final check.
const READBACK_BATCH: u32 = 1024;

/// The requests of step k, a pure function of `(seed, k)`.
pub struct StepGen {
    per_table: Vec<Trace>,
}

impl StepGen {
    pub fn generate(w: &Workload, seed: u64) -> Self {
        let per_table = (0..TABLES)
            .map(|t| {
                let seed = seed.wrapping_add(u64::from(t) * 7919);
                Trace::generate(
                    TraceKind::Dlrm(DlrmTraceConfig::default()),
                    w.rows,
                    TRACE_LEN,
                    seed,
                )
            })
            .collect();
        StepGen { per_table }
    }

    pub fn unique_frac(&self) -> f64 {
        unique_frac(&self.per_table)
    }

    /// One table's stream, for the single-thread layer probes.
    pub fn table(&self, table: usize) -> &[u32] {
        self.per_table[table].accesses()
    }

    /// The lookups L(k) and updates U(k) of step `k`: sample by sample,
    /// a `DLRM_BAG`-row bag in every table.
    pub fn step(&self, k: u64) -> (Vec<Request>, Vec<Request>) {
        let mut reads = Vec::with_capacity(ACCESSES_PER_STEP as usize / 2);
        let mut updates = Vec::with_capacity(ACCESSES_PER_STEP as usize / 2);
        let base = k as usize * ROWS_PER_TABLE_STEP;
        for sample in 0..DLRM_SAMPLES {
            for table in 0..self.per_table.len() {
                for slot in 0..DLRM_BAG {
                    let row = self.table(table)[(base + sample * DLRM_BAG + slot) % TRACE_LEN];
                    let position = k * ACCESSES_PER_STEP / 2 + updates.len() as u64;
                    let gradient = synthetic_gradient(row, position, DLRM_DIM as usize);
                    reads.push(Request::read(table, row));
                    updates.push(Request::fetch_update(
                        table,
                        row,
                        RowUpdate::row_wise_adagrad(DLRM_LR, DLRM_EPS, gradient),
                    ));
                }
            }
        }
        (reads, updates)
    }
}

pub struct TrainOutcome {
    pub windows: Windows,
    /// Per step: when L(k) was submitted (from the phase start) and the
    /// time from then to the response U(k), nanoseconds.
    pub step_ns: Vec<(u64, u64)>,
    /// First step not run.
    pub next_step: u64,
    /// Digest of the L(k) and of the U(k) response, per step run.
    pub digests: Vec<(u64, u64)>,
    pub elapsed: Duration,
    /// Mean caller time inside `submit`, nanoseconds.
    pub submit_ns: f64,
}

fn digest_of(response: &laoram_service::BatchResponse) -> u64 {
    rows::digest(response.outputs.iter().map(|o| o.as_deref()))
}

/// Runs steps from `first_step` until `duration` has passed.
pub fn run_steps(
    service: &mut LaoramService,
    gen: &StepGen,
    first_step: u64,
    duration: Duration,
    spans: &mut Spans,
    parent: SpanId,
) -> Result<TrainOutcome, ServiceError> {
    let phase_ns = duration.as_nanos() as u64;
    let mut out = TrainOutcome {
        windows: Windows::new(phase_ns, CAPACITY_WINDOWS),
        step_ns: Vec::new(),
        next_step: first_step,
        digests: Vec::new(),
        elapsed: Duration::ZERO,
        submit_ns: 0.0,
    };
    let (mut submit_ns, mut submits) = (0u64, 0u64);
    let mut submit = |service: &mut LaoramService, batch, op, spans: &mut Spans| {
        let (ticket, ns) =
            spans.time("service.submit", Some(parent), op, 1, || service.submit(batch));
        submit_ns += ns;
        submits += 1;
        ticket.map(|_| ())
    };
    let start = Instant::now();
    let mut k = first_step;
    let (reads, mut updates) = gen.step(k);
    let mut submitted_at = Instant::now();
    submit(service, reads, k, spans)?;
    loop {
        let last = start.elapsed() >= duration;
        // Built while the engine serves L(k).
        let following = (!last).then(|| gen.step(k + 1));
        let (lookups, _) =
            spans.time("service.next_response", Some(parent), k, 1, || service.next_response());
        let lookups_digest = digest_of(&lookups?);
        submit(service, std::mem::take(&mut updates), k, spans)?;
        let next_submitted_at = Instant::now();
        if let Some((reads, next_updates)) = following {
            submit(service, reads, k + 1, spans)?;
            updates = next_updates;
        }
        let (trained, _) =
            spans.time("service.next_response", Some(parent), k, 1, || service.next_response());
        let trained_digest = digest_of(&trained?);
        let began_ns = submitted_at.duration_since(start).as_nanos() as u64;
        let ended_ns = start.elapsed().as_nanos() as u64;
        out.step_ns.push((began_ns, ended_ns - began_ns));
        out.windows.record_span(began_ns, ended_ns, ACCESSES_PER_STEP);
        out.digests.push((lookups_digest, trained_digest));
        k += 1;
        if last {
            break;
        }
        submitted_at = next_submitted_at;
    }
    out.next_step = k;
    out.elapsed = start.elapsed();
    out.submit_ns = submit_ns as f64 / submits.max(1) as f64;
    Ok(out)
}

/// Replays steps `0..digests.len()` on the shadow and checks each
/// response digest; a wrong digest fails every request of that batch.
pub fn replay(shadow: &mut Shadow, gen: &StepGen, digests: &[(u64, u64)]) -> Tally {
    let mut tally = Tally::default();
    for (k, &(lookups_digest, trained_digest)) in digests.iter().enumerate() {
        let (reads, updates) = gen.step(k as u64);
        for (batch, digest) in [(reads, lookups_digest), (updates, trained_digest)] {
            tally.attempted += batch.len() as u64;
            if shadow.replay(&batch) != digest {
                tally.wrong += batch.len() as u64;
            }
        }
    }
    tally
}

/// Reads every row back and compares it with the shadow.
pub fn read_back(
    service: &mut LaoramService,
    w: &Workload,
    shadow: &Shadow,
) -> Result<Tally, ServiceError> {
    let mut tally = Tally::default();
    for table in 0..TABLES as usize {
        for start in (0..w.rows).step_by(READBACK_BATCH as usize) {
            let end = (start + READBACK_BATCH).min(w.rows);
            service.submit((start..end).map(|i| Request::read(table, i)).collect())?;
            let response = service.next_response()?;
            tally.attempted += u64::from(end - start);
            for (index, output) in (start..end).zip(&response.outputs) {
                if output.as_deref() != Some(shadow.row(table, index)) {
                    tally.wrong += 1;
                }
            }
        }
    }
    Ok(tally)
}

/// Restarts the engine on the stores `service` left behind: seconds
/// from shutdown complete until the restarted engine reports every
/// table `Recovered` and has answered its first read.
pub fn restart(
    service: LaoramService,
    w: &Workload,
    store_dir: &std::path::Path,
    tally: &mut Tally,
) -> Result<(LaoramService, f64), ServiceError> {
    let report = service.shutdown()?;
    tally.errored += report.worker_errors.len() as u64 + report.truncated_requests;
    let start = Instant::now();
    let mut service = LaoramService::start(w.engine_config(store_dir, None))?;
    tally.attempted += u64::from(TABLES) + 1;
    for status in service.table_status() {
        if !matches!(status.recovery, TableRecovery::Recovered { .. }) {
            tally.wrong += 1;
        }
    }
    service.submit(vec![Request::read(0, 0)])?;
    if service.next_response()?.outputs[0].is_none() {
        tally.wrong += 1;
    }
    Ok((service, start.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn steps_are_a_pure_function_of_seed_and_k() {
        let w = spec::find("train_dlrm_mem").unwrap().with_rows(512);
        let gen = StepGen::generate(&w, 7);
        let (reads, updates) = gen.step(3);
        assert_eq!(reads.len() as u64 * 2, ACCESSES_PER_STEP);
        assert_eq!(reads.len(), updates.len());
        assert_eq!(gen.step(3), (reads.clone(), updates.clone()));
        assert_ne!(gen.step(4).0, reads);
        assert_ne!(StepGen::generate(&w, 8).step(3).0, reads);
        for (read, update) in reads.iter().zip(&updates) {
            assert_eq!((read.table, read.index), (update.table, update.index));
            assert!(read.index < 512);
        }
        assert!(gen.unique_frac() > 0.0 && gen.unique_frac() <= 1.0);
    }

    #[test]
    fn look_ahead_loop_agrees_with_the_shadow_replay() {
        let w = spec::find("train_dlrm_mem").unwrap().with_rows(512);
        let gen = StepGen::generate(&w, 7);
        let mut service =
            LaoramService::start(w.engine_config(std::path::Path::new("unused"), None)).unwrap();
        assert_eq!(crate::engine::populate(&mut service, &w).unwrap().failed(), 0);
        let mut spans = Spans::new();
        let root = spans.open("test", None, 0);
        let run =
            run_steps(&mut service, &gen, 0, Duration::from_millis(50), &mut spans, root).unwrap();
        assert_eq!(run.digests.len() as u64, run.next_step);
        assert_eq!(run.step_ns.len(), run.digests.len());
        // The part of the last steps that ran after the phase ended is not
        // counted into the rate.
        let counted = run.windows.total() / ACCESSES_PER_STEP as f64;
        assert!(
            counted + 2.0 >= run.next_step as f64 && counted < run.next_step as f64,
            "{counted}"
        );

        let mut shadow = Shadow::populated(w.layout().unwrap(), TABLES, w.rows);
        let replayed = replay(&mut shadow, &gen, &run.digests);
        assert_eq!(replayed.attempted, run.next_step * ACCESSES_PER_STEP);
        assert_eq!(replayed.failed(), 0, "every response matches the replay");
        assert_eq!(read_back(&mut service, &w, &shadow).unwrap().failed(), 0);

        // A response the engine did not give is caught.
        let mut forged = run.digests.clone();
        forged[0].1 ^= 1;
        let mut shadow = Shadow::populated(w.layout().unwrap(), TABLES, w.rows);
        assert_eq!(replay(&mut shadow, &gen, &forged).wrong, ACCESSES_PER_STEP / 2);
        service.shutdown().unwrap();
    }
}
