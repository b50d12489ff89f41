//! Hand-written reference answers and the checks every response must pass.
//!
//! The references are closed forms worked out by hand (EXPERIMENTS.md for
//! the ECMP fractions, the example headers for the rest); none is computed
//! by the crates under test. Arithmetic is an `i128` fraction of its own
//! for the same reason.

use std::fmt;

use bayonet_serve::{parse_json, Json};

use crate::client::Reply;
use crate::workload::{Item, Prog, Req, Work};

/// How many reported standard errors an SMC estimate may stray from the
/// exact value.
const SMC_SIGMAS: f64 = 6.0;

/// An exact fraction in lowest terms with a positive denominator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Q {
    n: i128,
    d: i128,
}

impl Q {
    pub fn new(n: i128, d: i128) -> Q {
        assert!(d != 0, "zero denominator");
        let g = gcd(n.abs(), d.abs()).max(1);
        let s = if d < 0 { -1 } else { 1 };
        Q {
            n: s * n / g,
            d: s * d / g,
        }
    }

    pub fn int(n: i128) -> Q {
        Q { n, d: 1 }
    }

    pub fn sub(self, o: Q) -> Q {
        Q::new(self.n * o.d - o.n * self.d, self.d * o.d)
    }

    pub fn add(self, o: Q) -> Q {
        Q::new(self.n * o.d + o.n * self.d, self.d * o.d)
    }

    pub fn mul(self, o: Q) -> Q {
        Q::new(self.n * o.n, self.d * o.d)
    }

    /// The smallest integer not below `self`.
    pub fn ceil(self) -> i128 {
        self.n.div_euclid(self.d) + i128::from(self.n.rem_euclid(self.d) != 0)
    }

    pub fn to_f64(self) -> f64 {
        self.n as f64 / self.d as f64
    }

    /// Parses `"a"` or `"a/b"`, the forms the server renders.
    pub fn parse(s: &str) -> Option<Q> {
        match s.split_once('/') {
            Some((n, d)) => {
                let (n, d): (i128, i128) = (n.parse().ok()?, d.parse().ok()?);
                (d != 0).then(|| Q::new(n, d))
            }
            None => Some(Q::int(s.parse().ok()?)),
        }
    }
}

impl fmt::Display for Q {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.d == 1 {
            write!(f, "{}", self.n)
        } else {
            write!(f, "{}/{}", self.n, self.d)
        }
    }
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `P(#infected >= k)` on gossip K4 for k = 1..=4 (#infected is 1..=4).
const GOSSIP_AT_LEAST: [(i128, i128); 4] = [(1, 1), (1, 1), (8, 9), (16, 27)];
/// `E[#infected]` on gossip K4 (paper Section 5.3).
const GOSSIP_MEAN: (i128, i128) = (94, 27);

/// Figure 3's three congestion fractions, by the sign of
/// `COST_01 - (COST_02 + COST_21)`.
const ECMP_LT: (i128, i128) = (491_806_403, 1_088_391_168);
const ECMP_EQ: (i128, i128) = (30_378_810_105_265, 67_706_637_778_944);
const ECMP_GT: (i128, i128) = (2_025_575_442_161, 4_231_664_861_184);

fn q((n, d): (i128, i128)) -> Q {
    Q::new(n, d)
}

fn binding(item: &Item, name: &str) -> Q {
    item.bindings
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("{} item without binding {name}", item.prog.name()))
}

/// The exact answer of every query of `item`'s program, in program order.
pub fn expected(item: &Item) -> Vec<Q> {
    let one = Q::int(1);
    match item.prog {
        Prog::GossipK => {
            let k = binding(item, "K").ceil();
            let at_least = match k {
                i128::MIN..=1 => one,
                2..=4 => q(GOSSIP_AT_LEAST[(k - 1) as usize]),
                _ => Q::int(0),
            };
            vec![at_least, q(GOSSIP_MEAN)]
        }
        Prog::Gossip => vec![q(GOSSIP_MEAN)],
        Prog::Ecmp => {
            let direct = binding(item, "COST_01");
            let detour = binding(item, "COST_02").add(binding(item, "COST_21"));
            let diff = direct.sub(detour);
            vec![q(match diff.n.signum() {
                -1 => ECMP_LT,
                0 => ECMP_EQ,
                _ => ECMP_GT,
            })]
        }
        Prog::Fattree => {
            let p = binding(item, "P_LOSS");
            vec![one.sub(p), one.sub(p)]
        }
        Prog::Lossy => {
            let p = binding(item, "P_LOSS");
            vec![one.sub(p.mul(p)), Q::int(2).mul(one.sub(p))]
        }
        Prog::Firewall => vec![Q::new(2, 3), Q::new(2, 3), Q::new(1, 3)],
        Prog::Ttl => vec![Q::new(243, 1024), one],
    }
}

/// Why an answer was rejected.
#[derive(Debug)]
pub struct Mismatch(pub String);

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

fn fail<T>(msg: String) -> Result<T, Mismatch> {
    Err(Mismatch(msg))
}

/// Checks one `/v1/run`-shaped response body (a single run, a batch
/// frame's `body`, or a sweep frame's `body`) against `item`.
pub fn check_answer(item: &Item, body: &Json) -> Result<(), Mismatch> {
    if body.get("ok").and_then(Json::as_bool) != Some(true) {
        return fail(format!("{}: response is not ok", item.prog.name()));
    }
    let want = expected(item);
    if let Some(smc) = item.smc {
        let Some(estimates) = body.get("estimates").and_then(Json::as_arr) else {
            return fail(format!("{}: no estimates", item.prog.name()));
        };
        if estimates.len() != want.len() {
            return fail(format!(
                "{}: {} estimates",
                item.prog.name(),
                estimates.len()
            ));
        }
        for (est, exact) in estimates.iter().zip(&want) {
            let value = est.get("value").and_then(Json::as_f64);
            let err = est.get("std_error").and_then(Json::as_f64);
            let samples = est.get("samples").and_then(Json::as_u64);
            let (Some(value), Some(err)) = (value, err) else {
                return fail(format!("{}: malformed estimate", item.prog.name()));
            };
            if samples != Some(smc.particles as u64) || !err.is_finite() {
                return fail(format!(
                    "{}: estimate from {samples:?} samples",
                    item.prog.name()
                ));
            }
            if (value - exact.to_f64()).abs() > SMC_SIGMAS * err + 1e-12 {
                return fail(format!(
                    "{}: SMC {value} ± {err} is more than {SMC_SIGMAS} errors from {exact}",
                    item.prog.name()
                ));
            }
        }
        return Ok(());
    }
    let Some(results) = body.get("results").and_then(Json::as_arr) else {
        return fail(format!("{}: no results", item.prog.name()));
    };
    if results.len() != want.len() {
        return fail(format!("{}: {} results", item.prog.name(), results.len()));
    }
    for (result, exact) in results.iter().zip(&want) {
        let cells = result.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
        let [cell] = cells else {
            return fail(format!("{}: {} cells", item.prog.name(), cells.len()));
        };
        let got = cell.get("value").and_then(Json::as_str).and_then(Q::parse);
        if got != Some(*exact) {
            return fail(format!(
                "{}: got {:?}, want {exact}",
                item.prog.name(),
                cell.get("value").and_then(Json::as_str)
            ));
        }
    }
    Ok(())
}

/// Checks a whole reply: the status, then every answer it must carry (a
/// run's body, or one NDJSON frame per batch item or sweep point). Returns
/// how many answers passed and the first rejection, if any.
pub fn check_reply(req: &Req, reply: &Reply) -> (usize, Option<Mismatch>) {
    if reply.status != 200 {
        let body = String::from_utf8_lossy(&reply.body);
        return (
            0,
            Some(Mismatch(format!(
                "{} -> {}: {body}",
                req.path(),
                reply.status
            ))),
        );
    }
    let Ok(text) = std::str::from_utf8(&reply.body) else {
        return (0, Some(Mismatch("non-UTF-8 body".into())));
    };
    let mut first = None;
    let mut record = |r: Result<(), Mismatch>| match r {
        Ok(()) => 1,
        Err(m) => {
            first.get_or_insert(m);
            0
        }
    };
    let passed = match &req.work {
        Work::Run(item) => record(
            parse_json(text)
                .map_err(|e| Mismatch(e.to_string()))
                .and_then(|body| check_answer(item, &body)),
        ),
        Work::Sweep { .. } | Work::Batch { .. } => {
            let mut seen = vec![false; req.answers()];
            let mut passed = 0;
            for line in text.lines().filter(|l| !l.is_empty()) {
                passed += record(check_frame(req, line, &mut seen));
            }
            if seen.contains(&false) {
                record(fail("missing frames".into()));
            }
            passed
        }
    };
    (passed, first)
}

fn check_frame(req: &Req, line: &str, seen: &mut [bool]) -> Result<(), Mismatch> {
    let frame = parse_json(line).map_err(|e| Mismatch(e.to_string()))?;
    let index = frame
        .get("index")
        .and_then(Json::as_u64)
        .unwrap_or(u64::MAX) as usize;
    let (Some(item), Some(slot)) = (req.item(index), seen.get_mut(index)) else {
        return fail(format!("frame index {index} out of range"));
    };
    if std::mem::replace(slot, true) {
        return fail(format!("frame {index} repeated"));
    }
    let status = frame.get("status").and_then(Json::as_u64);
    let body = frame.get("body").unwrap_or(&Json::Null);
    if status != Some(200) {
        return fail(format!("frame {index} status {status:?}: {body}"));
    }
    check_answer(&item, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Kind, Smc, Stream};

    fn item(prog: Prog, bindings: &[(&'static str, Q)]) -> Item {
        Item {
            prog,
            bindings: bindings.to_vec(),
            smc: None,
        }
    }

    fn run_body(values: &[&str]) -> Json {
        let results: Vec<String> = values
            .iter()
            .map(|v| format!(r#"{{"query":"q","cells":[{{"constraint":"true","value":"{v}"}}]}}"#))
            .collect();
        parse_json(&format!(
            r#"{{"ok":true,"results":[{}]}}"#,
            results.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn gossip_tail_probabilities_sum_to_the_mean() {
        // E[X] = sum_{k>=1} P(X >= k) for X in 1..=4, and P(X >= 1) = 1.
        assert_eq!(
            Q::int(1)
                .add(q(GOSSIP_AT_LEAST[1]))
                .add(q(GOSSIP_AT_LEAST[2]))
                .add(q(GOSSIP_AT_LEAST[3])),
            q(GOSSIP_MEAN)
        );
    }

    #[test]
    fn gossip_threshold_rounds_up() {
        let at = |k: Q| expected(&item(Prog::GossipK, &[("K", k)]))[0];
        assert_eq!(at(Q::new(1, 2)), Q::int(1));
        assert_eq!(at(Q::new(5, 2)), Q::new(8, 9));
        assert_eq!(at(Q::int(3)), Q::new(8, 9));
        assert_eq!(at(Q::new(31, 10)), Q::new(16, 27));
        assert_eq!(at(Q::new(41, 10)), Q::int(0));
    }

    #[test]
    fn ecmp_fraction_follows_the_cost_sign() {
        let ecmp = |a, b, c| {
            expected(&item(
                Prog::Ecmp,
                &[
                    ("COST_01", Q::int(a)),
                    ("COST_02", Q::int(b)),
                    ("COST_21", Q::int(c)),
                ],
            ))[0]
        };
        assert_eq!(ecmp(1, 1, 1), q(ECMP_LT));
        assert_eq!(ecmp(2, 1, 1), q(ECMP_EQ));
        assert_eq!(ecmp(3, 1, 1), q(ECMP_GT));
    }

    #[test]
    fn closed_forms() {
        let p = Q::new(1, 4);
        assert_eq!(
            expected(&item(Prog::Lossy, &[("P_LOSS", p)])),
            vec![Q::new(15, 16), Q::new(3, 2)]
        );
        assert_eq!(
            expected(&item(Prog::Fattree, &[("P_LOSS", p)])),
            vec![Q::new(3, 4), Q::new(3, 4)]
        );
    }

    #[test]
    fn correct_answer_passes_and_tampered_answer_fails() {
        let lossy = item(Prog::Lossy, &[("P_LOSS", Q::new(1, 4))]);
        assert!(check_answer(&lossy, &run_body(&["15/16", "3/2"])).is_ok());
        // Equal values in another spelling still pass.
        assert!(check_answer(&lossy, &run_body(&["30/32", "3/2"])).is_ok());
        assert!(check_answer(&lossy, &run_body(&["15/16", "3/4"])).is_err());
        assert!(check_answer(&lossy, &run_body(&["15/16"])).is_err());
        let not_ok = parse_json(r#"{"ok":false,"results":[]}"#).unwrap();
        assert!(check_answer(&lossy, &not_ok).is_err());
    }

    #[test]
    fn smc_estimate_must_sit_within_its_error_bars() {
        let mut lossy = item(Prog::Lossy, &[("P_LOSS", Q::new(1, 2))]);
        lossy.smc = Some(Smc {
            particles: 300,
            seed: 7,
        });
        let body = |v0: f64, v1: f64| {
            parse_json(&format!(
                r#"{{"ok":true,"estimates":[{{"value":{v0},"std_error":0.02,"samples":300}},{{"value":{v1},"std_error":0.03,"samples":300}}]}}"#
            ))
            .unwrap()
        };
        assert!(check_answer(&lossy, &body(0.76, 0.98)).is_ok());
        assert!(check_answer(&lossy, &body(0.95, 0.98)).is_err());
        assert!(check_answer(&lossy, &body(0.75, 1.5)).is_err());
    }

    /// Answers a request the way a correct server would, as NDJSON frames
    /// or one run body.
    fn honest_reply(req: &Req) -> String {
        let body = |item: &Item| {
            let values: Vec<String> = expected(item).iter().map(Q::to_string).collect();
            let results: Vec<String> = values
                .iter()
                .map(|v| format!(r#"{{"cells":[{{"constraint":"true","value":"{v}"}}]}}"#))
                .collect();
            format!(r#"{{"ok":true,"results":[{}]}}"#, results.join(","))
        };
        match &req.work {
            Work::Run(item) => body(item),
            _ => (0..req.answers())
                .map(|i| {
                    let item = req.item(i).unwrap();
                    format!(
                        "{{\"index\":{i},\"status\":200,\"body\":{}}}\n",
                        body(&item)
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn replies_are_checked_frame_by_frame() {
        let mut stream = Stream::new(Kind::BatchHit, 2);
        let req = stream.next_req();
        let honest = honest_reply(&req);
        let ok = |text: &str| {
            check_reply(
                &req,
                &Reply {
                    status: 200,
                    body: text.as_bytes().to_vec(),
                },
            )
        };
        let (passed, err) = ok(&honest);
        assert_eq!((passed, err.map(|m| m.0)), (64, None));

        // A tampered value fails exactly that frame.
        let lines: Vec<&str> = honest.lines().collect();
        let victim = lines.iter().position(|l| l.contains("94/27")).unwrap();
        let mut tampered: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        tampered[victim] = tampered[victim].replacen("94/27", "93/27", 1);
        let (passed, err) = ok(&(tampered.join("\n") + "\n"));
        assert_eq!(passed, 63);
        assert!(err.is_some());

        // A dropped frame and a non-200 reply fail too.
        let (passed, err) = ok(&(lines[1..].join("\n") + "\n"));
        assert_eq!(passed, 63);
        assert!(err.is_some());
        let refused = Reply {
            status: 503,
            body: b"{}".to_vec(),
        };
        assert_eq!(check_reply(&req, &refused).0, 0);
    }

    #[test]
    fn rationals_normalize_and_parse() {
        assert_eq!(Q::parse("6/-4"), Some(Q::new(-3, 2)));
        assert_eq!(Q::parse("7"), Some(Q::int(7)));
        assert_eq!(Q::parse("1/0"), None);
        assert_eq!(Q::new(20014, 10007).to_string(), "2");
        assert_eq!(Q::new(-1, 3).ceil(), 0);
        assert_eq!(Q::new(7, 3).ceil(), 3);
    }
}
