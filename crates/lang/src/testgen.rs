//! Seeded random Bayonet program generation — **test support**.
//!
//! Produces small, always-terminating network programs for differential
//! and round-trip testing: a chain topology where every node forwards
//! strictly rightward (so exploration cannot loop), with randomized
//! handler bodies drawing from flips, uniform draws, state arithmetic,
//! packet-field writes, bounded duplication, and soft `observe`
//! conditioning that can never discard *all* probability mass.
//!
//! The generator is a tiny self-contained LCG, so a seed fully determines
//! the program text — no external randomness crates, and failures
//! reproduce from the seed alone.

use std::fmt::Write as _;

/// A deterministic generator of valid Bayonet programs.
///
/// # Examples
///
/// ```
/// use bayonet_lang::{parse, testgen::ProgramGen};
///
/// let source = ProgramGen::new(42).generate();
/// assert!(parse(&source).is_ok());
/// // Same seed, same program:
/// assert_eq!(source, ProgramGen::new(42).generate());
/// ```
pub struct ProgramGen {
    state: u64,
    /// When set, the program declares `parameters { PT }` and threads the
    /// parameter through the final query (and, seed-dependent, a forwarding
    /// comparison) — sweep-ready programs for the grid-vs-pointwise
    /// differential suites.
    parameterized: bool,
    /// When set, the program declares `parameters { PF }` and uses the
    /// parameter as a `flip` probability: always in node `N0`'s forward
    /// decision, and in some of the other flips.
    flip_param: bool,
}

impl ProgramGen {
    /// Creates a generator; the seed fully determines the output.
    pub fn new(seed: u64) -> ProgramGen {
        // Splash the seed so small seeds don't produce correlated streams.
        ProgramGen {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
            parameterized: false,
            flip_param: false,
        }
    }

    /// Like [`ProgramGen::new`], but the generated program declares a
    /// symbolic parameter `PT` and compares against it in the probability
    /// query's threshold; some seeds additionally gate one node's forward
    /// decision on it. Binding `PT` to any small integer yields a valid
    /// concrete program, which is exactly what parameter sweeps do per grid
    /// point.
    pub fn new_parameterized(seed: u64) -> ProgramGen {
        ProgramGen {
            parameterized: true,
            ..ProgramGen::new(seed)
        }
    }

    /// Like [`ProgramGen::new`], but the generated program declares a
    /// probability parameter `PF` and draws `flip(PF)` in node `N0`'s
    /// forward decision and in some other flips. Binding `PF` to any value
    /// in `[0, 1]` yields a valid concrete program whose handler runs read
    /// the binding while its initializers do not.
    pub fn new_flip_parameterized(seed: u64) -> ProgramGen {
        ProgramGen {
            flip_param: true,
            ..ProgramGen::new(seed)
        }
    }

    /// Next raw 64-bit draw (an LCG with Knuth's MMIX constants, taking
    /// the high bits which have the longest period).
    fn next_u64(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 11
    }

    /// Uniform draw in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Generates one complete program as source text.
    pub fn generate(&mut self) -> String {
        // 2- or 3-node chains: long chains combined with `dup` make the
        // uniform scheduler's interleaving space explode, and these tests
        // need hundreds of programs to run in seconds.
        let nodes = 2 + self.below(2) as usize;
        let mut src = String::new();
        src.push_str("packet_fields { tag }\n");
        if self.parameterized {
            src.push_str("parameters { PT }\n");
        }
        if self.flip_param {
            src.push_str("parameters { PF }\n");
        }
        src.push_str("topology {\n    nodes { ");
        for i in 0..nodes {
            if i > 0 {
                src.push_str(", ");
            }
            let _ = write!(src, "N{i}");
        }
        src.push_str(" }\n    links {\n");
        for i in 0..nodes - 1 {
            // Link i: right port of N{i} to left port of N{i+1}. N0 has
            // only the rightward link, so its right port is pt1; every
            // later node's left port is pt1 and right port pt2.
            let right_port = if i == 0 { 1 } else { 2 };
            let sep = if i + 2 < nodes { "," } else { "" };
            let _ = writeln!(
                src,
                "        (N{i}, pt{right_port}) <-> (N{}, pt1){sep}",
                i + 1
            );
        }
        src.push_str("    }\n}\n");
        src.push_str("programs { ");
        for i in 0..nodes {
            if i > 0 {
                src.push_str(", ");
            }
            let _ = write!(src, "N{i} -> prog{i}");
        }
        src.push_str(" }\n");
        src.push_str("init { packet -> (N0, pt1); }\n");

        let last = nodes - 1;
        if self.parameterized {
            let _ = writeln!(src, "query probability(hits@N{last} >= PT);");
        } else {
            let _ = writeln!(src, "query probability(hits@N{last} >= 1);");
        }
        let _ = writeln!(src, "query expectation(hits@N{last} + x0@N0);");

        for i in 0..last {
            self.emit_forwarder(&mut src, i);
        }
        let _ = writeln!(
            src,
            "def prog{last}(pkt, pt) state hits(0) {{ hits = hits + 1; drop; }}"
        );
        src
    }

    /// A non-sink node: randomized body ending in a rightward forward (or
    /// a probabilistic forward/drop choice).
    ///
    /// Termination argument: every packet visit ends in `fwd`/`drop` of the
    /// head, forwarding is strictly rightward, and duplication is gated on
    /// a dedicated monotone flag (`d{i}` flips 0 → 1 exactly once), so each
    /// node injects at most one extra packet over the whole run.
    fn emit_forwarder(&mut self, src: &mut String, node: usize) {
        let right_port = if node == 0 { 1 } else { 2 };
        let var = format!("x{node}");
        let init = match self.below(3) {
            0 => "0".to_string(),
            1 => self.below(3).to_string(),
            _ => "flip(1/2)".to_string(),
        };
        let dup = self.below(4) == 0;
        let state = if dup {
            format!("{var}({init}), d{node}(0)")
        } else {
            format!("{var}({init})")
        };
        let _ = writeln!(src, "def prog{node}(pkt, pt) state {state} {{");
        let n_stmts = 1 + self.below(3);
        let dup_at = self.below(n_stmts);
        for slot in 0..n_stmts {
            if dup && slot == dup_at {
                let _ = writeln!(src, "    if d{node} == 0 {{ d{node} = 1; dup; }}");
            }
            let stmt = self.gen_stmt(&var, true);
            let _ = writeln!(src, "    {stmt}");
        }
        let decision = if self.flip_param && node == 0 {
            0
        } else {
            self.below(3)
        };
        match decision {
            0 => {
                let p = if self.flip_param && node == 0 {
                    "PF".to_string()
                } else {
                    self.probability()
                };
                let _ = writeln!(
                    src,
                    "    if flip({p}) {{ fwd({right_port}); }} else {{ drop; }}"
                );
            }
            1 => {
                // Sweep-ready programs sometimes gate the forward decision
                // on the parameter itself: both arms end the packet visit,
                // so the termination argument is unchanged.
                if self.parameterized && self.below(3) == 0 {
                    let _ = writeln!(
                        src,
                        "    if {var} >= PT {{ fwd({right_port}); }} else {{ drop; }}"
                    );
                } else {
                    let _ = writeln!(
                        src,
                        "    if {var} >= {} {{ fwd({right_port}); }} else {{ drop; }}",
                        self.below(2)
                    );
                }
            }
            _ => {
                let _ = writeln!(src, "    fwd({right_port});");
            }
        }
        src.push_str("}\n");
    }

    /// One statement; `compound` allows a single level of `if` nesting.
    fn gen_stmt(&mut self, var: &str, compound: bool) -> String {
        match self.below(if compound { 8 } else { 6 }) {
            0 => format!("{var} = {var} + {};", 1 + self.below(2)),
            1 => format!("{var} = uniformInt(0, {});", 1 + self.below(2)),
            2 => format!("pkt.tag = pkt.tag + {};", 1 + self.below(2)),
            3 => format!("{var} = flip({});", self.probability()),
            4 => "skip;".to_string(),
            5 => {
                if self.below(4) == 0 {
                    // Soft conditioning: discards a fixed fraction of mass
                    // but can never discard all of it, so Z stays positive.
                    "observe(flip(9/10));".to_string()
                } else {
                    format!("pkt.tag = {};", self.below(3))
                }
            }
            6 => {
                let then = self.gen_stmt(var, false);
                let alt = self.gen_stmt(var, false);
                format!(
                    "if flip({}) {{ {then} }} else {{ {alt} }}",
                    self.probability()
                )
            }
            _ => {
                let then = self.gen_stmt(var, false);
                format!("if {var} <= {} {{ {then} }}", self.below(2))
            }
        }
    }

    /// A random probability literal in (0, 1), or sometimes `PF` when the
    /// program declares it.
    fn probability(&mut self) -> String {
        if self.flip_param && self.below(3) == 0 {
            return "PF".to_string();
        }
        const CHOICES: [&str; 5] = ["1/2", "1/3", "2/3", "1/4", "3/4"];
        CHOICES[self.below(CHOICES.len() as u64) as usize].to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, pretty_program};

    #[test]
    fn generated_programs_parse_and_vary() {
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..50 {
            let src = ProgramGen::new(seed).generate();
            let program = parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            distinct.insert(pretty_program(&program));
        }
        // The space is random enough that 50 seeds don't collapse onto a
        // handful of programs.
        assert!(
            distinct.len() > 40,
            "only {} distinct programs",
            distinct.len()
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for seed in [0, 1, 7, u64::MAX] {
            assert_eq!(
                ProgramGen::new(seed).generate(),
                ProgramGen::new(seed).generate()
            );
        }
    }

    #[test]
    fn parameterized_programs_parse_and_declare_the_parameter() {
        let mut gated = 0;
        for seed in 0..50 {
            let src = ProgramGen::new_parameterized(seed).generate();
            parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            assert!(src.contains("parameters { PT }"), "seed {seed}:\n{src}");
            assert!(src.contains(">= PT"), "seed {seed} never uses PT:\n{src}");
            if src.contains("if x") && src.contains(">= PT {") {
                gated += 1;
            }
        }
        // Some seeds must gate a forward decision on PT (the prefix-fork
        // case), not only the query threshold (the fully-shared case).
        assert!(gated > 0, "no seed gated forwarding on PT");
    }

    #[test]
    fn flip_parameterized_programs_draw_the_parameter() {
        for seed in 0..50 {
            let src = ProgramGen::new_flip_parameterized(seed).generate();
            parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            assert!(src.contains("parameters { PF }"), "seed {seed}:\n{src}");
            assert!(
                src.contains("if flip(PF) { fwd(1); }"),
                "seed {seed}:\n{src}"
            );
            assert_eq!(
                src,
                ProgramGen::new_flip_parameterized(seed).generate(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn parameterized_generation_is_deterministic_per_seed() {
        for seed in [0, 3, 11] {
            assert_eq!(
                ProgramGen::new_parameterized(seed).generate(),
                ProgramGen::new_parameterized(seed).generate()
            );
        }
    }
}
