//! Inputs and the exact answers they must produce.
//!
//! The oracle is a linear scan written here, ordered by `(dist, id)` like
//! the engine. Distances come from `nncell_geom::dist_sq`, the one L2
//! kernel every query path of the program uses, so a correct answer
//! matches the oracle bit for bit: the server renders distances
//! shortest-round-trip and the parser reads them back exactly.
//!
//! Writes change the answer. The load generator issues writes one at a
//! time from one thread, so the server's state is always a prefix of the
//! write log. A read is correct if it matches the state after some
//! prefix between the writes acknowledged before it was sent and the
//! writes sent before its answer arrived.

use nncell_data::{Generator, UniformGenerator};

/// One neighbour: global id and distance.
pub type Hit = (usize, f64);

/// The largest `k` any request asks for.
pub const MAX_K: usize = 10;

/// The generated inputs of one run.
pub struct Inputs {
    pub dim: usize,
    /// The indexed points; the point at position `i` gets global id `i`.
    pub base: Vec<Vec<f64>>,
    /// Query points, reused in a fixed order.
    pub pool: Vec<Vec<f64>>,
    /// The `MAX_K` nearest base points of every pool point.
    pub pool_topk: Vec<Vec<Hit>>,
}

impl Inputs {
    /// Uniform points in `[0,1]^dim` from `seed`; the pool and the points
    /// the run inserts come from seeds derived from it.
    pub fn generate(n: usize, dim: usize, pool: usize, seed: u64) -> Self {
        let gen = UniformGenerator::new(dim);
        let to_vecs = |pts: Vec<nncell_geom::Point>| -> Vec<Vec<f64>> {
            pts.into_iter().map(|p| p.as_slice().to_vec()).collect()
        };
        let base = to_vecs(gen.generate(n, seed));
        let pool = to_vecs(gen.generate(pool, seed ^ 0x5155_4552_5950_4f4f));
        let pool_topk = pool
            .iter()
            .map(|q| {
                knn(
                    q,
                    MAX_K,
                    base.iter().enumerate().map(|(i, p)| (i, p.as_slice())),
                )
            })
            .collect();
        Self {
            dim,
            base,
            pool,
            pool_topk,
        }
    }

    /// Fresh points for inserts, never equal to a base point.
    pub fn fresh_points(&self, count: usize, seed: u64) -> Vec<Vec<f64>> {
        let gen = UniformGenerator::new(self.dim);
        gen.generate(count, seed ^ 0x494e_5345_5254_5321)
            .into_iter()
            .map(|p| p.as_slice().to_vec())
            .collect()
    }

    /// CSV the `nncell build` command reads; `{}` prints every f64
    /// shortest-round-trip, so the program indexes exactly these points.
    pub fn base_csv(&self) -> String {
        let mut out = String::with_capacity(self.base.len() * self.dim * 20);
        for p in &self.base {
            for (j, x) in p.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{x}"));
            }
            out.push('\n');
        }
        out
    }
}

/// The `k` nearest of `points` to `q`, ordered by `(dist, id)`.
pub fn knn<'a>(q: &[f64], k: usize, points: impl Iterator<Item = (usize, &'a [f64])>) -> Vec<Hit> {
    let mut best: Vec<Hit> = Vec::with_capacity(k + 1);
    for (id, p) in points {
        let d = nncell_geom::dist_sq(q, p).sqrt();
        if best.len() == k && !before((id, d), best[k - 1]) {
            continue;
        }
        let at = best.partition_point(|&h| before(h, (id, d)));
        best.insert(at, (id, d));
        best.truncate(k);
    }
    best
}

fn before(a: Hit, b: Hit) -> bool {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)).is_lt()
}

/// One write the load generator issued, in issue order.
pub enum Write {
    Insert { id: usize, point: Vec<f64> },
    Remove { id: usize },
}

/// The write log of a run. `applied[i]` is `Some(true)` when write `i` was
/// acknowledged, `Some(false)` when the server refused it, and `None` when
/// its fate is unknown (a transport error).
#[derive(Default)]
pub struct WriteLog {
    pub writes: Vec<Write>,
    pub applied: Vec<Option<bool>>,
}

impl WriteLog {
    /// For every write, the position of the applied remove that later
    /// deleted the point it inserted (a write of unknown fate counts as
    /// applied).
    fn removed_at(&self) -> Vec<Option<usize>> {
        let mut at = vec![None; self.writes.len()];
        let mut insert_of = std::collections::HashMap::new();
        for (i, (w, ok)) in self.writes.iter().zip(&self.applied).enumerate() {
            if *ok == Some(false) {
                continue;
            }
            match w {
                Write::Insert { id, .. } => {
                    insert_of.insert(*id, i);
                }
                Write::Remove { id } => {
                    if let Some(j) = insert_of.remove(id) {
                        at[j] = Some(i);
                    }
                }
            }
        }
        at
    }
}

/// Checks reads against a write log.
pub struct Checker<'a> {
    inputs: &'a Inputs,
    log: &'a WriteLog,
    removed_at: Vec<Option<usize>>,
}

impl<'a> Checker<'a> {
    pub fn new(inputs: &'a Inputs, log: &'a WriteLog) -> Self {
        Self {
            inputs,
            log,
            removed_at: log.removed_at(),
        }
    }

    /// Inserted points live after the first `prefix` writes.
    fn live_inserts(&self, prefix: usize) -> impl Iterator<Item = (usize, &[f64])> + '_ {
        self.log.writes[..prefix]
            .iter()
            .enumerate()
            .filter_map(move |(i, w)| match w {
                Write::Insert { id, point }
                    if self.log.applied[i] != Some(false)
                        && !matches!(self.removed_at[i], Some(r) if r < prefix) =>
                {
                    Some((*id, point.as_slice()))
                }
                _ => None,
            })
    }

    /// Whether `read.got` is the exact answer for some state in its window.
    pub fn check(&self, read: &Read) -> bool {
        let base_topk = match read.pool {
            Some(i) => self.inputs.pool_topk[i][..read.k.min(MAX_K)].to_vec(),
            None => knn(
                &read.point,
                read.k,
                self.inputs
                    .base
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i, p.as_slice())),
            ),
        };
        (read.writes_acked..=read.writes_sent.min(self.log.writes.len())).any(|prefix| {
            let mut want = base_topk.clone();
            want.extend(knn(&read.point, read.k, self.live_inserts(prefix)));
            want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            want.truncate(read.k);
            want.len() == read.got.len()
                && want
                    .iter()
                    .zip(&read.got)
                    .all(|(w, g)| w.0 == g.0 && w.1.to_bits() == g.1.to_bits())
        })
    }
}

/// A read to check: what was asked, what came back, and the window of
/// write prefixes the server's state could have been in.
pub struct Read {
    pub point: Vec<f64>,
    /// Set when `point` is `inputs.pool[i]`, to reuse its precomputed
    /// base answer.
    pub pool: Option<usize>,
    pub k: usize,
    pub writes_acked: usize,
    pub writes_sent: usize,
    pub got: Vec<Hit>,
}

/// Parses a `/query` answer body into its hits.
pub fn parse_hits(body: &[u8]) -> Option<Vec<Hit>> {
    let text = std::str::from_utf8(body).ok()?;
    let v = nncell_server::json::parse(text).ok()?;
    v.get("results")?
        .as_arr()?
        .iter()
        .map(|r| Some((r.get("id")?.as_usize()?, r.get("dist")?.as_f64()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> Inputs {
        Inputs::generate(300, 4, 16, 7)
    }

    fn render(hits: &[Hit]) -> String {
        let items: Vec<String> = hits
            .iter()
            .map(|(id, d)| format!("{{\"id\":{id},\"dist\":{d}}}"))
            .collect();
        format!("{{\"results\":[{}],\"stats\":{{}}}}", items.join(","))
    }

    fn read_of(inputs: &Inputs, i: usize, k: usize, got: Vec<Hit>) -> Read {
        Read {
            point: inputs.pool[i].clone(),
            pool: Some(i),
            k,
            writes_acked: 0,
            writes_sent: 0,
            got,
        }
    }

    #[test]
    fn exact_answers_pass_and_corrupted_ones_are_caught() {
        let inputs = inputs();
        let log = WriteLog::default();
        for i in 0..inputs.pool.len() {
            let exact = inputs.pool_topk[i][..5].to_vec();
            // The oracle's answer survives the render/parse round trip.
            let parsed = parse_hits(render(&exact).as_bytes()).expect("parses");
            assert!(Checker::new(&inputs, &log).check(&read_of(&inputs, i, 5, parsed)));

            // One ulp off in a distance.
            let mut bad = exact.clone();
            bad[2].1 = f64::from_bits(bad[2].1.to_bits() + 1);
            assert!(!Checker::new(&inputs, &log).check(&read_of(&inputs, i, 5, bad)));
            // Two neighbours swapped.
            let mut bad = exact.clone();
            bad.swap(0, 1);
            assert!(!Checker::new(&inputs, &log).check(&read_of(&inputs, i, 5, bad)));
            // A wrong id at the right distance.
            let mut bad = exact.clone();
            bad[4].0 += 1;
            assert!(!Checker::new(&inputs, &log).check(&read_of(&inputs, i, 5, bad)));
            // A neighbour missing.
            assert!(!Checker::new(&inputs, &log).check(&read_of(
                &inputs,
                i,
                5,
                exact[..4].to_vec()
            )));
        }
    }

    #[test]
    fn reads_are_checked_against_the_write_window() {
        let inputs = inputs();
        let q = inputs.pool[0].clone();
        let mut log = WriteLog::default();
        // Insert the query point itself, then remove it again.
        log.writes.push(Write::Insert {
            id: 300,
            point: q.clone(),
        });
        log.applied.push(Some(true));
        log.writes.push(Write::Remove { id: 300 });
        log.applied.push(Some(true));
        let before = inputs.pool_topk[0][..1].to_vec();
        let during = vec![(300, 0.0)];
        let mut r = read_of(&inputs, 0, 1, during.clone());
        // Sent after the insert was acked and answered before the remove
        // was sent: only the inserted point is right.
        (r.writes_acked, r.writes_sent) = (1, 1);
        assert!(Checker::new(&inputs, &log).check(&r));
        r.got = before.clone();
        assert!(!Checker::new(&inputs, &log).check(&r));
        // In flight across both writes: every state in the window passes.
        (r.writes_acked, r.writes_sent) = (0, 2);
        assert!(Checker::new(&inputs, &log).check(&r));
        r.got = during;
        assert!(Checker::new(&inputs, &log).check(&r));
        // After the remove: the point must be gone.
        (r.writes_acked, r.writes_sent) = (2, 2);
        assert!(!Checker::new(&inputs, &log).check(&r));
        // A refused remove leaves it in place.
        log.applied[1] = Some(false);
        assert!(Checker::new(&inputs, &log).check(&r));
    }
}
