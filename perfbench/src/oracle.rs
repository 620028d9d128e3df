//! The correctness oracle. Answers served over the wire must equal an
//! in-process `QueryServer::submit` of the same text on an identically
//! built world; a standing query's folded delta stream must equal its
//! `subscription_answers` after every epoch. Every mismatch is counted.

use crate::inputs::Query;
use crate::rig::{Answered, Rig, Sub, Tally, Workload};
use crate::worlds::{self, FetchTimer};
use mdq_runtime::QueryServer;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Default)]
pub struct Verdict {
    /// Comparisons made.
    pub checked: u64,
    pub mismatches: u64,
    /// Drift one-shot queries that overlapped a refresh pass and match
    /// no single epoch's answers: their pages came from both sides of
    /// the pass, which one-shot queries are not promised against.
    pub mixed: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    fn mismatch(&mut self, note: String) {
        self.mismatches += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

/// Submits in chunks, so the reference server works on several
/// queries at once without queueing thousands.
const CHUNK: usize = 32;

/// Reference answers for `queries` from `server`, keyed by `(text, k)`.
fn reference(
    server: &QueryServer,
    queries: &[&Query],
    verdict: &mut Verdict,
) -> HashMap<(String, u64), Vec<String>> {
    let mut out = HashMap::new();
    for chunk in queries.chunks(CHUNK) {
        let sessions: Vec<_> = chunk
            .iter()
            .map(|q| server.submit(&q.text, Some(q.k)))
            .collect();
        for (q, s) in chunk.iter().zip(sessions) {
            match s.collect() {
                Ok(r) => {
                    out.insert(
                        (q.text.clone(), q.k),
                        r.answers.iter().map(|t| t.to_string()).collect(),
                    );
                }
                Err(e) => verdict.mismatch(format!("reference failed: {e}: {}", q.text)),
            }
        }
    }
    out
}

/// Distinct queries among `answered`, first occurrence first.
fn distinct<'a>(answered: impl Iterator<Item = &'a Answered>) -> Vec<&'a Query> {
    let mut seen = std::collections::HashSet::new();
    answered
        .filter(|a| seen.insert((a.query.text.as_str(), a.query.k)))
        .map(|a| &a.query)
        .collect()
}

fn compare<'a>(
    answered: impl Iterator<Item = &'a Answered>,
    expected: &HashMap<(String, u64), Vec<String>>,
    verdict: &mut Verdict,
) {
    for a in answered {
        verdict.checked += 1;
        match expected.get(&(a.query.text.clone(), a.query.k)) {
            Some(want) if *want == a.answers => {}
            Some(want) => verdict.mismatch(format!(
                "{} answers over TCP, {} in process: {}",
                a.answers.len(),
                want.len(),
                a.query.text
            )),
            None => verdict.mismatch(format!("no reference: {}", a.query.text)),
        }
    }
}

/// Checks everything `tally` recorded against fresh reference servers.
pub fn check(rig: &Rig, tally: &Tally) -> Verdict {
    let mut verdict = Verdict::default();
    match rig.workload {
        Workload::Cold | Workload::Warm => {
            let server = worlds::travel_server(rig.workload, &Arc::new(FetchTimer::default()));
            let expected = reference(&server, &distinct(tally.answered.iter()), &mut verdict);
            server.shutdown();
            compare(tally.answered.iter(), &expected, &mut verdict);
        }
        Workload::Drift => {
            let queries = distinct(tally.answered.iter());
            let mut epochs: Vec<u64> = tally
                .answered
                .iter()
                .filter_map(|a| a.epochs)
                .flat_map(|(lo, hi)| lo..=hi)
                .collect();
            epochs.sort_unstable();
            epochs.dedup();
            let mut expected = HashMap::new();
            for epoch in epochs {
                let server = worlds::drift_reference(epoch);
                expected.insert(epoch, reference(&server, &queries, &mut verdict));
                server.shutdown();
            }
            for a in &tally.answered {
                let (lo, hi) = a.epochs.expect("drift answers carry epochs");
                let key = (a.query.text.clone(), a.query.k);
                let matched = (lo..=hi).any(|e| expected[&e].get(&key) == Some(&a.answers));
                verdict.checked += 1;
                if matched {
                    continue;
                }
                if lo == hi {
                    verdict.mismatch(format!(
                        "{} answers over TCP differ from epoch {lo}'s in process: {}",
                        a.answers.len(),
                        a.query.text
                    ));
                } else {
                    // overlapping a pass, the answers may mix pages of two
                    // epochs: reported, not an error
                    verdict.mixed += 1;
                }
            }
            if tally.snapshots.is_empty() {
                verdict.mismatch("no snapshots recorded".to_string());
            }
            for (index, sub) in rig.subs.iter().enumerate() {
                check_fold(index, sub, tally, &mut verdict);
            }
        }
    }
    verdict
}

/// Folds `sub`'s delta stream epoch by epoch and compares the folded
/// multiset with the snapshot taken right after each epoch's pass.
fn check_fold(index: usize, sub: &Sub, tally: &Tally, verdict: &mut Verdict) {
    let mut state: HashMap<&str, i64> = HashMap::new();
    for row in &sub.initial {
        *state.entry(row.as_str()).or_default() += 1;
    }
    let empty = Vec::new();
    let rows = tally.deltas.get(&sub.id).unwrap_or(&empty);
    let mut next = 0;
    for (&epoch, snapshot) in &tally.snapshots {
        while next < rows.len() && rows[next].0 <= epoch {
            let (_, added, tuple) = &rows[next];
            *state.entry(tuple.as_str()).or_default() += if *added { 1 } else { -1 };
            next += 1;
        }
        verdict.checked += 1;
        let mut want: HashMap<&str, i64> = HashMap::new();
        for row in &snapshot[index] {
            *want.entry(row.as_str()).or_default() += 1;
        }
        state.retain(|_, n| *n != 0);
        if state != want {
            verdict.mismatch(format!(
                "subscription {} at epoch {epoch}: folded {} rows, answers {}",
                sub.id,
                state.values().sum::<i64>(),
                snapshot[index].len()
            ));
        }
    }
    if next < rows.len() {
        verdict.mismatch(format!(
            "subscription {}: {} delta rows past the last snapshot",
            sub.id,
            rows.len() - next
        ));
    }
}
