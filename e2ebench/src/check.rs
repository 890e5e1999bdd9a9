//! Output checks: every reply against the in-process reference of its
//! request. A job that errors or disagrees is a failed job.

use crate::corpus::JobKind;
use bytes::Bytes;
use clocksync::PipelineReport;
use std::collections::BTreeMap;
use syncd_client::{ClientError, JobOutcome};
use syncd_wire::{WireJobResult, WireJump};
use tracefmt::io::from_binary_columnar;
use tracefmt::{Location, Trace};

/// What the in-process pipeline produced for one request.
#[derive(Debug)]
pub struct Reference {
    /// Corrected timestamps per timeline, in picoseconds, by location.
    times: BTreeMap<Location, Vec<i64>>,
    /// The CLC jump set, sorted.
    jumps: Vec<WireJump>,
    pub n_jumps: u64,
    max_jump_ps: i64,
    events_moved: u64,
    raw_violations: u64,
    presync_violations: u64,
    /// `None` when the method runs no CLC (online).
    clc_violations: Option<u64>,
}

impl Reference {
    pub fn new(trace: &Trace, report: &PipelineReport) -> Reference {
        let mut jumps: Vec<WireJump> = report.clc.as_ref().map_or_else(Vec::new, |c| {
            c.jumps
                .iter()
                .map(|j| WireJump {
                    proc: j.event.proc,
                    idx: j.event.idx,
                    size_ps: j.size.as_ps(),
                })
                .collect()
        });
        jumps.sort_by_key(|j| (j.proc, j.idx));
        let (max_jump_ps, events_moved) = report
            .clc
            .as_ref()
            .map_or((0, 0), |c| (c.max_jump.as_ps(), c.events_moved as u64));
        Reference {
            times: timestamps(trace),
            n_jumps: jumps.len() as u64,
            jumps,
            max_jump_ps,
            events_moved,
            raw_violations: report.raw.total_violations() as u64,
            presync_violations: report.after_presync.total_violations() as u64,
            clc_violations: report
                .after_clc
                .as_ref()
                .map(|s| s.total_violations() as u64),
        }
    }
}

/// Timelines keyed by location: the windowed engine emits them in the
/// order they finalize, so a decoded reply may list them in another order.
fn timestamps(trace: &Trace) -> BTreeMap<Location, Vec<i64>> {
    trace
        .procs
        .iter()
        .map(|p| {
            (
                p.location,
                p.events.iter().map(|e| e.time.as_ps()).collect(),
            )
        })
        .collect()
}

/// Check one job's result. `full` also decodes the corrected stream and
/// compares every timestamp and the jump set bit for bit; otherwise only
/// the summary (and the jump count) is checked.
pub fn verify(
    kind: JobKind,
    result: &Result<JobOutcome, ClientError>,
    reference: &Reference,
    full: bool,
) -> Result<(), String> {
    let outcome = result.as_ref().map_err(|e| format!("client error: {e}"))?;
    check_summary(kind, &outcome.summary, reference)?;
    if outcome.jumps.len() as u64 != reference.n_jumps {
        return Err(format!(
            "{} jumps delivered, {} expected",
            outcome.jumps.len(),
            reference.n_jumps
        ));
    }
    if outcome.stream.is_empty() {
        return Err("no corrected stream".into());
    }
    if full {
        check_stream(outcome, reference)?;
    }
    Ok(())
}

fn check_summary(kind: JobKind, s: &WireJobResult, r: &Reference) -> Result<(), String> {
    let mut diffs = Vec::new();
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            diffs.push(format!("{what} {got} != {want}"));
        }
    };
    expect("attempts>=1", u64::from(s.attempts >= 1), 1);
    expect("n_jumps", s.n_jumps, r.n_jumps);
    expect("max_jump_ps", s.max_jump_ps as u64, r.max_jump_ps as u64);
    expect("events_moved", s.events_moved, r.events_moved);
    if kind == JobKind::Incremental {
        // The windowed engine runs no censuses; it streams frames.
        expect("census_present", u64::from(s.census_present), 0);
        expect("frames>0", u64::from(s.frames > 0), 1);
    } else {
        expect("census_present", u64::from(s.census_present), 1);
        expect("raw_violations", s.raw_violations, r.raw_violations);
        expect(
            "after_presync_violations",
            s.after_presync_violations,
            r.presync_violations,
        );
        expect(
            "after_clc_violations",
            s.after_clc_violations,
            r.clc_violations.unwrap_or(u64::MAX),
        );
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!("summary mismatch: {}", diffs.join(", ")))
    }
}

/// Decode the reply exactly as a client would and compare it bit for bit.
fn check_stream(outcome: &JobOutcome, r: &Reference) -> Result<(), String> {
    let trace = from_binary_columnar(Bytes::from(outcome.stream.concat()))
        .map_err(|e| format!("reply does not decode: {e}"))?;
    let times = timestamps(&trace);
    if times.len() != r.times.len() {
        return Err(format!(
            "{} timelines, {} expected",
            times.len(),
            r.times.len()
        ));
    }
    for ((loc, got), (want_loc, want)) in times.iter().zip(&r.times) {
        if loc != want_loc {
            return Err(format!(
                "timeline {loc:?} in the reply, {want_loc:?} expected"
            ));
        }
        if got.len() != want.len() {
            return Err(format!(
                "timeline {loc:?}: {} events, {} expected",
                got.len(),
                want.len()
            ));
        }
        if let Some(i) = got.iter().zip(want).position(|(a, b)| a != b) {
            return Err(format!(
                "timeline {loc:?} event {i}: {} ps, {} ps expected",
                got[i], want[i]
            ));
        }
    }
    let mut jumps = outcome.jumps.clone();
    jumps.sort_by_key(|j| (j.proc, j.idx));
    if jumps != r.jumps {
        return Err("jump set differs from the reference".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{self, Workload};
    use crate::load::{serve, JobRecord};
    use syncd_client::SyncClient;

    /// A real loopback reply of each job kind, then that reply corrupted
    /// four ways, and a client error: each must count as a failed job.
    #[test]
    fn corrupted_reply_counts_as_failed_job() {
        let (corpus, _) = corpus::build(Workload::SmgMixed, 3);
        let server = serve();
        let mut client = SyncClient::connect(server.local_addr(), crate::load::TOKEN)
            .expect("connect to loopback server");
        for req in &corpus.requests[..3] {
            let good = client.submit(&req.job);
            assert_eq!(
                verify(req.kind, &good, &req.reference, true),
                Ok(()),
                "{:?}",
                req.kind
            );
            let good = good.expect("job succeeded");

            // One timestamp off by a picosecond, re-encoded so it decodes.
            let mut decoded = from_binary_columnar(Bytes::from(good.stream.concat()))
                .expect("good reply decodes");
            let last = decoded
                .procs
                .iter_mut()
                .rev()
                .find(|p| !p.events.is_empty());
            let event = last
                .expect("non-empty trace")
                .events
                .last_mut()
                .expect("an event");
            event.time += simclock::Dur::from_ps(1);
            let mut shifted = good.clone();
            shifted.stream = vec![tracefmt::io::to_binary_columnar(&decoded).to_vec()];
            // A reply cut short.
            let mut truncated = good.clone();
            let whole = truncated.stream.concat();
            truncated.stream = vec![whole[..whole.len() / 2].to_vec()];
            // A summary that disagrees with the reference.
            let mut summary = good.clone();
            summary.summary.events_moved += 1;
            // A dropped jump.
            let mut jumps = good.clone();
            jumps.jumps.pop();

            for (what, bad) in [
                ("timestamp", shifted),
                ("truncation", truncated),
                ("summary", summary),
                ("jumps", jumps),
            ] {
                if what == "jumps" && req.reference.n_jumps == 0 {
                    continue;
                }
                let record = JobRecord::new(req, &Ok(bad), std::time::Duration::ZERO, true);
                assert!(
                    !record.ok,
                    "{what} corruption of a {:?} reply passed",
                    req.kind
                );
            }
        }
        let refused = JobRecord::new(
            &corpus.requests[0],
            &Err(ClientError::Protocol("test")),
            std::time::Duration::ZERO,
            false,
        );
        assert!(!refused.ok, "a client error is a failed job");
        server.shutdown();
    }
}
