//! Turns what a run recorded into metrics: the end-to-end set from an
//! untraced section, the per-layer set from a traced one.
//!
//! A layer's self time is its call's duration minus the time of the
//! decorated calls inside it. Per round, the self times of every layer
//! on the round's blocking path must add up to the round's wall time;
//! what they leave over is `trace.unaccounted_share`, which must stay
//! within [`SLACK`].

use crate::decor::Book;
use crate::inproc::Section;
use crate::metrics::Report;
use crate::replica::{Call, ClientTrace};
use crate::stats::{self, TAIL_Q};
use fedpower_federated::report::RoundReport;
use std::collections::BTreeMap;

/// Share of traced round time the layers may leave unaccounted for.
pub const SLACK: f64 = 0.10;

/// Timed rounds the counts (`wire_bytes_per_round`, `admitted_share`)
/// are taken over: the first this many, which every run reaches, so at a
/// given seed the counts repeat exactly however many rounds fit in the
/// timed section.
pub const COUNTED_ROUNDS: u64 = 4000;

/// What an untraced run measured, in driver-neutral form.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Every set-up's duration.
    pub setups_s: Vec<f64>,
    /// Every timed round's latency.
    pub rounds_s: Vec<f64>,
    /// Wall time of the timed section.
    pub elapsed_s: f64,
    /// Peak live heap during the timed section.
    pub peak_mib: f64,
    /// Rounds counted so far (at most [`COUNTED_ROUNDS`]).
    pub counted: u64,
    /// Framed upload plus broadcast bytes of the counted rounds.
    pub wire_bytes: u64,
    /// Uploads offered in the counted rounds.
    pub offered: u64,
    /// Of those, uploads admitted into a committed round.
    pub admitted: u64,
}

impl EndToEnd {
    /// Counts one timed round, unless [`COUNTED_ROUNDS`] were counted.
    pub fn tally(&mut self, wire_bytes: u64, offered: u64, admitted: u64) {
        if self.counted < COUNTED_ROUNDS {
            self.counted += 1;
            self.wire_bytes += wire_bytes;
            self.offered += offered;
            self.admitted += admitted;
        }
    }

    /// Counts one in-process round with `offered` uploads.
    pub fn count(&mut self, r: &RoundReport, offered: u64) {
        let admitted = if r.aggregated {
            (r.uploads_ok + r.stale_applied) as u64
        } else {
            0
        };
        self.tally(
            r.transport.uploaded_bytes + r.transport.downloaded_bytes,
            offered,
            admitted,
        );
    }

    /// Completes the counts with the set-ups and the timed section.
    pub fn finish(self, setups_s: Vec<f64>, section: Section) -> Self {
        EndToEnd {
            setups_s,
            rounds_s: section.walls_s,
            elapsed_s: section.elapsed_s,
            peak_mib: section.peak_mib,
            ..self
        }
    }
}

/// Records the end-to-end metrics, and checks `global` is finite.
pub fn end_to_end(report: &mut Report, e: &EndToEnd, global: &[f32]) {
    let rounds = e.rounds_s.len() as u64;
    report.attempted = rounds;
    report.set(
        "setup_s",
        stats::median(&e.setups_s).unwrap_or(0.0),
        e.setups_s.len() as u64,
    );
    // Both timings come from the section's quietest quarter. The whole
    // section's figures ride along as notes, and so does the p90: under
    // co-tenant load their run-to-run spread is too wide for a regression
    // bound (see README.md).
    let ms: Vec<f64> = e.rounds_s.iter().map(|s| s * 1e3).collect();
    if let Some(q) = stats::quietest(&ms) {
        let kept = format!("fastest {} of {} windows", q.kept, q.windows);
        let n = q.rounds.len() as u64;
        report.set_noted(
            "rounds_per_s",
            q.rate() * 1e3,
            n,
            format!("{kept}; whole section {:.3}", rounds as f64 / e.elapsed_s),
        );
        let tail = stats::tail(&ms, TAIL_Q).map_or_else(String::new, |t| {
            let resolved = if t.is_resolved() { "" } else { ", unresolved" };
            format!("; p90 {:.6} ms ({} beyond{resolved})", t.value, t.beyond)
        });
        report.set_noted(
            "round_p50_ms",
            q.median(),
            n,
            format!(
                "{kept}; whole section p50 {:.6} ms{tail}",
                stats::median(&ms).unwrap_or(0.0)
            ),
        );
    }
    report.set("peak_heap_mib", e.peak_mib, 1);
    report.set(
        "wire_bytes_per_round",
        e.wire_bytes as f64 / e.counted.max(1) as f64,
        e.counted,
    );
    report.set(
        "admitted_share",
        e.admitted as f64 / e.offered.max(1) as f64,
        e.offered,
    );
    report.check(global.iter().all(|p| p.is_finite()), || {
        "the committed global model is not finite".to_string()
    });
}

/// Checks the traced run committed the untraced run's global bit for bit.
pub fn same_global(report: &mut Report, untraced: &[f32], traced: &[f32]) {
    let same = untraced.len() == traced.len()
        && untraced
            .iter()
            .zip(traced)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    report.check(same, || {
        "the traced global differs from the untraced global".to_string()
    });
}

/// Records `trace.overhead_share` from the two legs' round rates.
pub fn overhead(report: &mut Report, untraced_rate: f64, traced_rate: f64) {
    report.set(
        "trace.overhead_share",
        (untraced_rate - traced_rate) / untraced_rate,
        2,
    );
}

/// Records the per-call median of `ns` in `unit_ns`-sized units.
fn per_call(report: &mut Report, name: &'static str, ns: &[u64], unit_ns: f64) {
    if let Some(m) = stats::median_u64(ns) {
        report.set(name, m / unit_ns, ns.len() as u64);
    }
}

/// Records the median of per-round values given in seconds, scaled to
/// milli- (`1e3`) or microseconds (`1e6`).
fn per_round(report: &mut Report, name: &'static str, secs: &[f64], scale: f64) {
    let scaled: Vec<f64> = secs.iter().map(|s| s * scale).collect();
    report.set_median(name, &scaled);
}

/// Checks every self time is non-negative and the shares fit within
/// `1 + SLACK` of the wall time; returns the unaccounted share.
pub fn unaccounted_share(wall_s: f64, self_s: &[f64]) -> Result<f64, String> {
    // Instants are nanosecond-resolution; f64 seconds keep that to well
    // below a nanosecond over any run length used here.
    const EPS: f64 = 1e-9;
    if let Some(neg) = self_s.iter().find(|&&s| s < -EPS) {
        return Err(format!("a layer's self time is negative ({neg} s)"));
    }
    let covered: f64 = self_s.iter().sum();
    if covered > wall_s * (1.0 + SLACK) {
        return Err(format!(
            "layer shares sum to {:.3} of the round time, over 1 + {SLACK}",
            covered / wall_s
        ));
    }
    Ok(1.0 - covered / wall_s)
}

/// Records `trace.unaccounted_share` and checks it against [`SLACK`].
pub fn record_unaccounted(report: &mut Report, wall_s: f64, self_s: &[f64], rounds: u64) {
    match unaccounted_share(wall_s, self_s) {
        Ok(share) => {
            report.set("trace.unaccounted_share", share, rounds);
            report.check(share <= SLACK, || {
                format!("{share:.3} of traced round time is unaccounted (slack {SLACK})")
            });
        }
        Err(e) => report.check(false, || e),
    }
}

/// Records the `engine.*` admission metrics.
fn engine(report: &mut Report, reports: &[RoundReport], offered: u64) {
    let rounds = reports.len().max(1) as f64;
    let mut admitted = 0;
    let (mut retries, mut rejected, mut stale) = (0, 0, 0);
    for r in reports {
        admitted += r.uploads_ok + r.stale_applied;
        retries += r.upload_retries;
        rejected += r.updates_rejected;
        stale += r.stale_applied;
    }
    let samples = reports.len() as u64;
    report.set(
        "engine.admit_ratio",
        admitted as f64 / (offered * samples).max(1) as f64,
        offered * samples,
    );
    report.set("engine.retries_per_round", retries as f64 / rounds, samples);
    report.set(
        "engine.rejected_per_round",
        rejected as f64 / rounds,
        samples,
    );
    report.set("engine.stale_per_round", stale as f64 / rounds, samples);
}

/// Records the simulator, agent, network and client layers of replica
/// clients, keeping calls from rounds after `after`.
pub fn client_layers(report: &mut Report, traces: &[&ClientTrace], after: u64, rounds: u64) {
    let steps = |pick: fn(&ClientTrace) -> &Vec<u64>| -> Vec<u64> {
        traces
            .iter()
            .flat_map(|t| pick(t).iter().copied())
            .collect()
    };
    per_call(report, "sim.step_ns", &steps(|t| &t.steps.sim_ns), 1.0);
    per_call(
        report,
        "agent.select_ns",
        &steps(|t| &t.steps.select_ns),
        1.0,
    );
    per_call(
        report,
        "agent.replay_push_ns",
        &steps(|t| &t.steps.push_ns),
        1.0,
    );
    let sgd = steps(|t| &t.steps.sgd_ns);
    per_call(report, "nn.sgd_us", &sgd, 1e3);
    report.set(
        "nn.sgd_per_round",
        sgd.len() as f64 / rounds.max(1) as f64,
        rounds,
    );
    let calls = |pick: fn(&ClientTrace) -> &Vec<Call>| -> Vec<u64> {
        traces
            .iter()
            .flat_map(|t| pick(t).iter().filter(|c| c.round > after).map(Call::ns))
            .collect()
    };
    per_call(report, "client.train_ms", &calls(|t| &t.train), 1e6);
    per_call(report, "client.upload_us", &calls(|t| &t.upload), 1e3);
    per_call(report, "client.download_us", &calls(|t| &t.download), 1e3);
}

/// Per-round sums of decorated call time, in seconds.
#[derive(Debug, Default, Clone, Copy)]
struct RoundSums {
    train: f64,
    client_up: f64,
    link_up: f64,
    link_bcast: f64,
    bcast_calls: u64,
    download: f64,
    span_train: f64,
    span_upload: f64,
    span_aggregate: f64,
    span_broadcast: f64,
}

/// Records the per-layer metrics of a traced `Federation` section.
pub fn federation(
    report: &mut Report,
    traces: &[&ClientTrace],
    book: &Book,
    section: &Section,
    offered: u64,
) {
    let first = section.reports.first().map_or(1, |r| r.round);
    let after = first - 1;
    let rounds = section.rounds();
    report.attempted = rounds;
    client_layers(report, traces, after, rounds);

    let mut sums: BTreeMap<u64, RoundSums> = section
        .reports
        .iter()
        .map(|r| (r.round, RoundSums::default()))
        .collect();
    let secs = |c: &Call| c.ns() as f64 * 1e-9;
    for t in traces {
        for c in &t.train {
            if let Some(s) = sums.get_mut(&c.round) {
                s.train += secs(c);
            }
        }
        for c in &t.upload {
            if let Some(s) = sums.get_mut(&c.round) {
                s.client_up += secs(c);
            }
        }
        for c in &t.download {
            if let Some(s) = sums.get_mut(&c.round) {
                s.download += secs(c);
            }
        }
    }
    for c in &book.uploads {
        if let Some(s) = sums.get_mut(&c.round) {
            s.link_up += secs(c);
        }
    }
    for c in &book.broadcasts {
        if let Some(s) = sums.get_mut(&c.round) {
            s.link_bcast += secs(c);
            s.bcast_calls += 1;
        }
    }
    for span in &book.spans {
        if let Some(s) = sums.get_mut(&span.round) {
            match span.name {
                "train" => s.span_train += span.seconds,
                "upload" => s.span_upload += span.seconds,
                "aggregate" => s.span_aggregate += span.seconds,
                "broadcast" => s.span_broadcast += span.seconds,
                _ => {}
            }
        }
    }

    let timed = |calls: &[Call]| -> Vec<u64> {
        calls
            .iter()
            .filter(|c| c.round > after)
            .map(Call::ns)
            .collect()
    };
    let ups = timed(&book.uploads);
    let bcasts = timed(&book.broadcasts);
    per_call(report, "transport.upload_us", &ups, 1e3);
    per_call(report, "transport.broadcast_us", &bcasts, 1e3);
    report.set(
        "transport.calls_per_round",
        (ups.len() + bcasts.len()) as f64 / rounds.max(1) as f64,
        rounds,
    );

    let mut upload_self = Vec::new();
    let mut commit = Vec::new();
    let mut bcast_self = Vec::new();
    let mut self_times = Vec::new();
    for s in sums.values() {
        let up = s.span_upload - s.client_up - s.link_up;
        let bc = s.span_broadcast - s.link_bcast - s.download;
        upload_self.push(up);
        commit.push(s.span_aggregate);
        if s.bcast_calls > 0 {
            bcast_self.push(bc / s.bcast_calls as f64);
        }
        self_times.extend([
            s.train,
            s.client_up,
            s.link_up,
            up,
            s.span_aggregate,
            s.link_bcast,
            s.download,
            bc,
        ]);
        // The train span's own share (catching panics around each
        // client) is glue: covered by no layer, so unaccounted.
        report.check(s.span_train >= s.train - 1e-9, || {
            "client training outlasted the train span around it".to_string()
        });
    }
    per_round(report, "federation.upload_us", &upload_self, 1e6);
    per_round(report, "federation.commit_us", &commit, 1e6);
    per_round(report, "federation.broadcast_us", &bcast_self, 1e6);
    engine(report, &section.reports, offered);
    let wall: f64 = section.walls_s.iter().sum();
    record_unaccounted(report, wall, &self_times, rounds);
}

/// Records the per-layer metrics of a traced `Fleet` section of
/// `clients` clients, whose warm-up ended with round `warmup`.
pub fn fleet(
    report: &mut Report,
    book: &Book,
    section: &Section,
    (clients, warmup): (u64, u64),
    join_s: f64,
    workers: usize,
) {
    let rounds = section.rounds();
    report.attempted = rounds;
    let in_section = |round: u64| round > warmup;
    let materialized: Vec<u64> = book
        .materialize
        .iter()
        .filter(|(round, _)| in_section(*round))
        .map(|&(_, ns)| ns)
        .collect();
    per_call(report, "fleet.materialize_us", &materialized, 1e3);
    let span_secs = |name: &str| -> Vec<f64> {
        book.spans_of(name)
            .filter(|s| in_section(s.round))
            .map(|s| s.seconds)
            .collect()
    };
    let shards = span_secs("shard");
    let roots = span_secs("aggregate");
    let bcasts = span_secs("broadcast");
    per_round(report, "fleet.shard_ms", &shards, 1e3);
    per_round(report, "fleet.root_ms", &roots, 1e3);
    per_round(report, "fleet.broadcast_ms", &bcasts, 1e3);
    let fanout: Vec<f64> = section.reports.iter().map(|r| r.timing.train_s).collect();
    let busy: f64 = shards.iter().sum();
    let capacity = fanout.iter().sum::<f64>() * workers as f64;
    report.set(
        "fleet.worker_idle_share",
        1.0 - busy / capacity,
        shards.len() as u64,
    );
    let events: u64 = book
        .events
        .iter()
        .enumerate()
        .filter(|(r, _)| in_section(*r as u64))
        .map(|(_, n)| n)
        .sum();
    report.set(
        "fleet.events_per_round",
        events as f64 / rounds.max(1) as f64,
        rounds,
    );
    report.set("fleet.join_ms", join_s * 1e3, 1);
    engine(report, &section.reports, clients);

    // The fan-out is the pool layer; the root fold and the broadcast
    // accounting follow it.
    let mut self_times = fanout;
    self_times.extend(roots.iter().chain(&bcasts));
    let wall: f64 = section.walls_s.iter().sum();
    record_unaccounted(report, wall, &self_times, rounds);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_must_not_be_negative() {
        assert!(unaccounted_share(1.0, &[0.5, -0.01]).is_err());
        assert!(unaccounted_share(1.0, &[0.5, -1e-12]).is_ok());
    }

    #[test]
    fn counts_stop_after_the_counted_rounds() {
        let mut e = EndToEnd::default();
        for _ in 0..COUNTED_ROUNDS + 5 {
            e.tally(10, 2, 1);
        }
        assert_eq!(e.counted, COUNTED_ROUNDS);
        assert_eq!(
            (e.wire_bytes, e.offered, e.admitted),
            (10 * COUNTED_ROUNDS, 2 * COUNTED_ROUNDS, COUNTED_ROUNDS)
        );
    }

    #[test]
    fn shares_sum_to_at_most_one_plus_the_slack() {
        let share = unaccounted_share(2.0, &[0.5, 1.0, 0.4]).unwrap();
        assert!((share - 0.05).abs() < 1e-12);
        assert!(unaccounted_share(1.0, &[0.6, 0.5]).is_ok(), "within slack");
        assert!(unaccounted_share(1.0, &[0.6, 0.55]).is_err(), "over slack");
    }
}
