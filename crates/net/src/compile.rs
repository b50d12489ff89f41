//! Compilation of a checked Bayonet AST into an executable network model.
//!
//! Compilation resolves every name: nodes become integer ids (their index in
//! the `nodes` declaration), packet fields and state variables become slot
//! indices, parameters are interned into a [`ParamTable`], and node-name
//! constants fold to their ids. The result is a [`Model`] that the exact and
//! approximate engines execute without further name lookups.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bayonet_lang::ast;
use bayonet_lang::{BinOp, Program, Query, SchedulerSpec, Stmt};
use bayonet_num::Rat;
use bayonet_symbolic::{ParamId, ParamTable};

/// Default queue capacity when the program does not specify one — the
/// paper's running example uses capacity 2 throughout.
pub const DEFAULT_QUEUE_CAPACITY: u64 = 2;

/// Default per-handler-run local step limit (guards diverging `while`).
pub const DEFAULT_LOCAL_STEP_LIMIT: u64 = 100_000;

/// An error produced during compilation (a name that failed to resolve, an
/// out-of-range literal, ...). Programs that pass [`bayonet_lang::check`]
/// rarely trigger these.
#[derive(Clone, Debug)]
pub struct CompileError(pub String);

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

/// A compiled expression with all names resolved to slots/ids.
#[derive(Clone, Debug, PartialEq)]
pub enum CExpr {
    /// A rational constant (literals, folded node ids).
    Const(Rat),
    /// A symbolic configuration parameter.
    Param(ParamId),
    /// A state variable of the current program.
    State(usize),
    /// A transient local variable of the current handler run.
    Local(usize),
    /// A field of the packet at the head of the input queue.
    Field(usize),
    /// The arrival port of the head packet.
    Port,
    /// Bernoulli draw.
    Flip(Box<CExpr>),
    /// Uniform integer draw, inclusive bounds.
    UniformInt(Box<CExpr>, Box<CExpr>),
    /// Binary operation.
    Binary(BinOp, Box<CExpr>, Box<CExpr>),
    /// Logical negation.
    Not(Box<CExpr>),
    /// Arithmetic negation.
    Neg(Box<CExpr>),
}

/// A compiled statement.
#[derive(Clone, Debug, PartialEq)]
pub enum CStmt {
    /// Prepend a fresh packet (L-New).
    New,
    /// Remove the head packet (L-Drop).
    Drop,
    /// Duplicate the head packet (L-Dup).
    Dup,
    /// No-op.
    Skip,
    /// Move the head packet to the output queue, targeting the given port.
    Fwd(CExpr),
    /// Assign a state variable.
    AssignState(usize, CExpr),
    /// Assign a handler-local variable.
    AssignLocal(usize, CExpr),
    /// Assign a field of the head packet.
    FieldAssign(usize, CExpr),
    /// Assertion; failure sends the node to the error state ⊥.
    Assert(CExpr),
    /// Observation; failure discards the trace (Bayesian conditioning).
    Observe(CExpr),
    /// Conditional.
    If(CExpr, Vec<CStmt>, Vec<CStmt>),
    /// Loop.
    While(CExpr, Vec<CStmt>),
}

/// A compiled node program.
#[derive(Debug, PartialEq)]
pub struct CompiledProgram {
    /// Program name (for diagnostics).
    pub name: String,
    /// State variable names, index = slot.
    pub state_names: Vec<String>,
    /// State initializer expressions (may draw randomness; evaluated once at
    /// network construction).
    pub state_init: Vec<CExpr>,
    /// Handler-local variable names, index = slot.
    pub local_names: Vec<String>,
    /// The handler body.
    pub body: Vec<CStmt>,
}

/// Kind of a query (paper Figure 8).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueryKind {
    /// `probability(b)` over all terminating configurations.
    Probability,
    /// `expectation(e)` over non-error terminating configurations.
    Expectation,
}

/// A compiled query expression (evaluated on terminal configurations).
#[derive(Clone, Debug, PartialEq)]
pub enum QExpr {
    /// Constant.
    Const(Rat),
    /// Symbolic parameter.
    Param(ParamId),
    /// `x@Node`: state slot of a node.
    At {
        /// Node id.
        node: usize,
        /// State slot within that node's program.
        slot: usize,
    },
    /// Binary operation.
    Binary(BinOp, Box<QExpr>, Box<QExpr>),
    /// Logical negation.
    Not(Box<QExpr>),
    /// Arithmetic negation.
    Neg(Box<QExpr>),
}

/// A compiled query.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledQuery {
    /// Probability or expectation.
    pub kind: QueryKind,
    /// The query body.
    pub expr: QExpr,
    /// The original source text (for reports).
    pub source: String,
}

/// Scheduler selection carried on the model.
#[derive(Clone, Debug, PartialEq)]
pub enum SchedKind {
    /// Uniform over enabled actions (paper Figure 6).
    Uniform,
    /// Deterministic fixed-priority scan: lowest node id first, `Run`
    /// before `Fwd` (the paper's "det." scheduler).
    Deterministic,
    /// Stateful deterministic rotor (fair cursor sweep).
    Rotor,
    /// Per-node weights over enabled actions.
    Weighted(Vec<u64>),
}

/// An initial packet: destination node, arrival port, and field values.
#[derive(Clone, Debug, PartialEq)]
pub struct InitPacketSpec {
    /// Node whose input queue receives the packet.
    pub node: usize,
    /// Arrival port recorded on the packet.
    pub port: u32,
    /// `(field slot, value expression)` initializers; other fields are 0.
    pub fields: Vec<(usize, CExpr)>,
}

/// Observes parameter-binding reads on behalf of the sweep engine and the
/// exact engine's kept explorations.
///
/// A watch marks a subset of parameters as *watched*; every time
/// [`Model::binding`] is consulted for a watched parameter the watch's
/// monotone read counter ([`ParamWatch::reads`]) rises. Exploration that
/// never moves the counter is provably independent of the watched
/// parameters' values, so it can be replayed verbatim across every point of
/// a parameter grid; a counter snapshot taken around one handler run tells
/// whether that run read a watched binding. The counter is an atomic
/// because the exact engine expands frontiers from multiple worker threads,
/// so a snapshot window can also include other threads' reads, never miss
/// its own.
#[derive(Debug, Default)]
pub struct ParamWatch {
    /// `mask[ParamId::index()]` — is this parameter watched?
    mask: Vec<bool>,
    /// Watched reads so far; never decreases.
    reads: AtomicU64,
}

impl ParamWatch {
    /// Creates a watch over `watched` out of `nparams` total parameters.
    pub fn new(nparams: usize, watched: &[ParamId]) -> ParamWatch {
        let mut mask = vec![false; nparams];
        for id in watched {
            mask[id.index()] = true;
        }
        ParamWatch {
            mask,
            reads: AtomicU64::new(0),
        }
    }

    /// Records one binding read (called from [`Model::binding`]).
    fn note_read(&self, id: ParamId) {
        if self.mask.get(id.index()).copied().unwrap_or(false) {
            self.reads.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Watched binding reads since construction.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Has any watched parameter been read since construction?
    pub fn hit(&self) -> bool {
        self.reads() > 0
    }
}

/// A fully compiled, executable network model.
///
/// Cloning is cheap relative to compilation: node programs are shared
/// behind [`Arc`], so a clone copies only the tables and bindings. The
/// serve layer's batch endpoint relies on this to compile a shared source
/// once and give every batch item its own bindable copy.
#[derive(Clone, Debug)]
pub struct Model {
    /// Node names, index = node id.
    pub node_names: Vec<String>,
    /// Packet field names, index = field slot.
    pub field_names: Vec<String>,
    /// Symbolic parameter table.
    pub params: ParamTable,
    /// Concrete bindings for parameters (index = `ParamId::index()`);
    /// unbound parameters stay symbolic.
    bindings: Vec<Option<Rat>>,
    /// Link map: `(node, port) -> (node, port)`, stored in both directions.
    links: HashMap<(usize, u32), (usize, u32)>,
    /// Program run by each node (programs may be shared between nodes).
    pub programs: Vec<Arc<CompiledProgram>>,
    /// Capacity of every input and output queue.
    pub queue_capacity: usize,
    /// Optional global step bound from the source (`num_steps N;`).
    pub num_steps: Option<u64>,
    /// Scheduler selection.
    pub scheduler: SchedKind,
    /// Initial packets.
    pub init_packets: Vec<InitPacketSpec>,
    /// Compiled queries.
    pub queries: Vec<CompiledQuery>,
    /// Per-handler-run step limit.
    pub local_step_limit: u64,
    /// Optional observer of parameter-binding reads (see [`ParamWatch`]).
    /// Shared across clones; cleared with [`Model::clear_param_watch`].
    watch: Option<Arc<ParamWatch>>,
    /// Symmetry group and planner facts (see [`crate::opt`]): present after
    /// [`crate::opt::optimize`] ran, absent on a freshly compiled model.
    /// Shared across clones; binding-independent by construction (the
    /// analysis never reads a parameter), so batch items and sweep points
    /// reuse it.
    pub(crate) opt_info: Option<Arc<crate::opt::OptInfo>>,
}

impl Model {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of packet fields.
    pub fn num_fields(&self) -> usize {
        self.field_names.len()
    }

    /// Resolves a node name to its id.
    pub fn node_id(&self, name: &str) -> Option<usize> {
        self.node_names.iter().position(|n| n == name)
    }

    /// The link destination of `(node, port)`, if linked.
    pub fn link_dest(&self, node: usize, port: u32) -> Option<(usize, u32)> {
        self.links.get(&(node, port)).copied()
    }

    /// Iterates over all directed link entries.
    pub fn links(&self) -> impl Iterator<Item = ((usize, u32), (usize, u32))> + '_ {
        self.links.iter().map(|(&a, &b)| (a, b))
    }

    /// Binds a symbolic parameter to a concrete value. Subsequent engine
    /// runs treat it as a constant.
    ///
    /// # Errors
    ///
    /// Fails if `name` was not declared in the `parameters` block.
    pub fn bind_param(&mut self, name: &str, value: Rat) -> Result<(), CompileError> {
        let id = self
            .params
            .lookup(name)
            .ok_or_else(|| CompileError(format!("unknown parameter `{name}`")))?;
        self.bindings[id.index()] = Some(value);
        Ok(())
    }

    /// Removes a parameter's concrete binding, making it symbolic again.
    pub fn unbind_param(&mut self, name: &str) -> Result<(), CompileError> {
        let id = self
            .params
            .lookup(name)
            .ok_or_else(|| CompileError(format!("unknown parameter `{name}`")))?;
        self.bindings[id.index()] = None;
        Ok(())
    }

    /// The concrete binding of a parameter, if any.
    pub fn binding(&self, id: ParamId) -> Option<&Rat> {
        if let Some(watch) = &self.watch {
            watch.note_read(id);
        }
        self.bindings[id.index()].as_ref()
    }

    /// Installs a [`ParamWatch`]: every subsequent [`Model::binding`] read
    /// of a watched parameter trips the watch's flag. The sweep engine uses
    /// this to find the longest exploration prefix that never depends on a
    /// swept parameter.
    pub fn set_param_watch(&mut self, watch: Arc<ParamWatch>) {
        self.watch = Some(watch);
    }

    /// The installed [`ParamWatch`]'s read counter ([`ParamWatch::reads`]),
    /// or 0 without one.
    pub fn param_reads(&self) -> u64 {
        self.watch.as_ref().map_or(0, |w| w.reads())
    }

    /// Removes any installed [`ParamWatch`]; binding reads are no longer
    /// observed.
    pub fn clear_param_watch(&mut self) {
        self.watch = None;
    }

    /// Returns `true` if any declared parameter is unbound (symbolic).
    pub fn has_symbolic_params(&self) -> bool {
        self.bindings.iter().any(|b| b.is_none())
    }

    /// The symmetry group and planner facts attached by [`crate::opt::optimize`],
    /// if the model has been optimized.
    pub fn opt_info(&self) -> Option<&Arc<crate::opt::OptInfo>> {
        self.opt_info.as_ref()
    }

    /// The state slot of variable `var` in `node`'s program.
    pub fn state_slot(&self, node: usize, var: &str) -> Option<usize> {
        self.programs[node]
            .state_names
            .iter()
            .position(|n| n == var)
    }
}

/// Compiles a parsed (and ideally checked) program into a [`Model`].
///
/// # Errors
///
/// Returns a [`CompileError`] for unresolved names or malformed constructs.
/// Run [`bayonet_lang::check`] first for comprehensive diagnostics.
pub fn compile(p: &Program) -> Result<Model, CompileError> {
    let node_names: Vec<String> = p.topology.nodes.iter().map(|n| n.name.clone()).collect();
    let field_names: Vec<String> = p.packet_fields.iter().map(|f| f.name.clone()).collect();
    let mut params = ParamTable::new();
    for param in &p.parameters {
        params.intern(&param.name);
    }

    let node_id = |name: &str| -> Result<usize, CompileError> {
        node_names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| CompileError(format!("unknown node `{name}`")))
    };

    // Links, both directions.
    let mut links = HashMap::new();
    for l in &p.topology.links {
        let a = (node_id(&l.a.node.name)?, l.a.port);
        let b = (node_id(&l.b.node.name)?, l.b.port);
        if links.insert(a, b).is_some() || links.insert(b, a).is_some() {
            return Err(CompileError(format!(
                "interface ({}, pt{}) or ({}, pt{}) linked twice",
                l.a.node.name, l.a.port, l.b.node.name, l.b.port
            )));
        }
    }

    // Compile each def once; map nodes to their program.
    let mut compiled_defs: HashMap<&str, Arc<CompiledProgram>> = HashMap::new();
    for def in &p.defs {
        let prog = compile_def(def, &node_names, &field_names, &params)?;
        compiled_defs.insert(&def.name.name, Arc::new(prog));
    }
    let mut programs: Vec<Option<Arc<CompiledProgram>>> = vec![None; node_names.len()];
    for (node, prog) in &p.programs {
        let id = node_id(&node.name)?;
        let compiled = compiled_defs
            .get(prog.name.as_str())
            .ok_or_else(|| CompileError(format!("undefined program `{}`", prog.name)))?;
        programs[id] = Some(Arc::clone(compiled));
    }
    let programs: Vec<Arc<CompiledProgram>> = programs
        .into_iter()
        .enumerate()
        .map(|(i, prog)| {
            prog.ok_or_else(|| CompileError(format!("node `{}` has no program", node_names[i])))
        })
        .collect::<Result<_, _>>()?;

    // Init packets.
    let mut init_packets = Vec::new();
    for ip in &p.init {
        let node = node_id(&ip.node.name)?;
        let mut fields = Vec::new();
        for (f, e) in &ip.fields {
            let slot = field_names
                .iter()
                .position(|n| n == &f.name)
                .ok_or_else(|| CompileError(format!("unknown field `{}`", f.name)))?;
            // Init expressions resolve names against nodes/params only.
            let ce = compile_expr(e, &ExprCx::init(&node_names, &params))?;
            fields.push((slot, ce));
        }
        init_packets.push(InitPacketSpec {
            node,
            port: ip.port,
            fields,
        });
    }

    // Queries.
    let mut queries = Vec::new();
    for q in &p.queries {
        let (kind, e) = match q {
            Query::Probability(e) => (QueryKind::Probability, e),
            Query::Expectation(e) => (QueryKind::Expectation, e),
        };
        let expr = compile_query_expr(e, &node_names, &params, &programs)?;
        queries.push(CompiledQuery {
            kind,
            expr,
            source: bayonet_lang::pretty_expr(e),
        });
    }

    // Scheduler.
    let scheduler = match &p.scheduler {
        SchedulerSpec::Uniform => SchedKind::Uniform,
        SchedulerSpec::RoundRobin => SchedKind::Deterministic,
        SchedulerSpec::Rotor => SchedKind::Rotor,
        SchedulerSpec::Weighted(ws) => {
            let mut weights = vec![1u64; node_names.len()];
            for (node, w) in ws {
                weights[node_id(&node.name)?] = *w;
            }
            SchedKind::Weighted(weights)
        }
    };

    let nparams = params.len();
    Ok(Model {
        node_names,
        field_names,
        params,
        bindings: vec![None; nparams],
        links,
        programs,
        queue_capacity: p.queue_capacity.unwrap_or(DEFAULT_QUEUE_CAPACITY) as usize,
        num_steps: p.num_steps,
        scheduler,
        init_packets,
        queries,
        local_step_limit: DEFAULT_LOCAL_STEP_LIMIT,
        watch: None,
        opt_info: None,
    })
}

/// Name-resolution context for expression compilation.
struct ExprCx<'a> {
    node_names: &'a [String],
    params: &'a ParamTable,
    field_names: Option<&'a [String]>,
    state_names: Option<&'a [String]>,
    /// Local slots (read-only here; extended at `Assign` sites); `None`
    /// forbids locals.
    locals: Option<&'a [String]>,
}

impl<'a> ExprCx<'a> {
    fn init(node_names: &'a [String], params: &'a ParamTable) -> Self {
        ExprCx {
            node_names,
            params,
            field_names: None,
            state_names: None,
            locals: None,
        }
    }
}

fn compile_expr(e: &ast::Expr, cx: &ExprCx<'_>) -> Result<CExpr, CompileError> {
    use ast::Expr as E;
    Ok(match e {
        E::Num(r, _) => CExpr::Const(r.clone()),
        E::Name(id) => {
            if let Some(states) = cx.state_names {
                if let Some(slot) = states.iter().position(|n| n == &id.name) {
                    return Ok(CExpr::State(slot));
                }
            }
            if let Some(pid) = cx.params.lookup(&id.name) {
                return Ok(CExpr::Param(pid));
            }
            if let Some(nid) = cx.node_names.iter().position(|n| n == &id.name) {
                return Ok(CExpr::Const(Rat::int(nid as i64)));
            }
            if let Some(locals) = cx.locals {
                if let Some(slot) = locals.iter().position(|n| n == &id.name) {
                    return Ok(CExpr::Local(slot));
                }
            }
            return Err(CompileError(format!("unresolved name `{}`", id.name)));
        }
        E::Field(f) => {
            let fields = cx
                .field_names
                .ok_or_else(|| CompileError(format!("pkt.{} not allowed here", f.name)))?;
            let slot = fields
                .iter()
                .position(|n| n == &f.name)
                .ok_or_else(|| CompileError(format!("unknown field `{}`", f.name)))?;
            CExpr::Field(slot)
        }
        E::Port(_) => {
            if cx.field_names.is_none() {
                return Err(CompileError("`pt` not allowed here".into()));
            }
            CExpr::Port
        }
        E::At(..) => {
            return Err(CompileError(
                "x@Node expressions are only allowed in queries".into(),
            ))
        }
        E::Flip(p, _) => CExpr::Flip(Box::new(compile_expr(p, cx)?)),
        E::UniformInt(lo, hi, _) => CExpr::UniformInt(
            Box::new(compile_expr(lo, cx)?),
            Box::new(compile_expr(hi, cx)?),
        ),
        E::Binary(op, a, b) => CExpr::Binary(
            *op,
            Box::new(compile_expr(a, cx)?),
            Box::new(compile_expr(b, cx)?),
        ),
        E::Not(inner, _) => CExpr::Not(Box::new(compile_expr(inner, cx)?)),
        E::Neg(inner, _) => CExpr::Neg(Box::new(compile_expr(inner, cx)?)),
    })
}

fn compile_def(
    def: &ast::NodeDef,
    node_names: &[String],
    field_names: &[String],
    params: &ParamTable,
) -> Result<CompiledProgram, CompileError> {
    let state_names: Vec<String> = def.state.iter().map(|(v, _)| v.name.clone()).collect();
    // State initializers: no locals, no pkt/pt.
    let mut state_init = Vec::new();
    for (_, init) in &def.state {
        let cx = ExprCx {
            node_names,
            params,
            field_names: None,
            state_names: None,
            locals: None,
        };
        state_init.push(compile_expr(init, &cx)?);
    }
    let mut local_names: Vec<String> = Vec::new();
    let body = compile_stmts(
        &def.body,
        node_names,
        field_names,
        params,
        &state_names,
        &mut local_names,
    )?;
    Ok(CompiledProgram {
        name: def.name.name.clone(),
        state_names,
        state_init,
        local_names,
        body,
    })
}

fn compile_stmts(
    stmts: &[Stmt],
    node_names: &[String],
    field_names: &[String],
    params: &ParamTable,
    state_names: &[String],
    local_names: &mut Vec<String>,
) -> Result<Vec<CStmt>, CompileError> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        let compile_e = |e: &ast::Expr, local_names: &Vec<String>| {
            let cx = ExprCx {
                node_names,
                params,
                field_names: Some(field_names),
                state_names: Some(state_names),
                locals: Some(local_names),
            };
            compile_expr(e, &cx)
        };
        out.push(match s {
            Stmt::New(_) => CStmt::New,
            Stmt::Drop(_) => CStmt::Drop,
            Stmt::Dup(_) => CStmt::Dup,
            Stmt::Skip(_) => CStmt::Skip,
            Stmt::Fwd(e, _) => CStmt::Fwd(compile_e(e, local_names)?),
            Stmt::Assert(e, _) => CStmt::Assert(compile_e(e, local_names)?),
            Stmt::Observe(e, _) => CStmt::Observe(compile_e(e, local_names)?),
            Stmt::FieldAssign(f, e) => {
                let slot = field_names
                    .iter()
                    .position(|n| n == &f.name)
                    .ok_or_else(|| CompileError(format!("unknown field `{}`", f.name)))?;
                CStmt::FieldAssign(slot, compile_e(e, local_names)?)
            }
            Stmt::Assign(x, e) => {
                let value = compile_e(e, local_names)?;
                if let Some(slot) = state_names.iter().position(|n| n == &x.name) {
                    CStmt::AssignState(slot, value)
                } else {
                    let slot = match local_names.iter().position(|n| n == &x.name) {
                        Some(slot) => slot,
                        None => {
                            local_names.push(x.name.clone());
                            local_names.len() - 1
                        }
                    };
                    CStmt::AssignLocal(slot, value)
                }
            }
            Stmt::If(c, t, e) => {
                let cc = compile_e(c, local_names)?;
                let tt =
                    compile_stmts(t, node_names, field_names, params, state_names, local_names)?;
                let ee =
                    compile_stmts(e, node_names, field_names, params, state_names, local_names)?;
                CStmt::If(cc, tt, ee)
            }
            Stmt::While(c, b) => {
                let cc = compile_e(c, local_names)?;
                let bb =
                    compile_stmts(b, node_names, field_names, params, state_names, local_names)?;
                CStmt::While(cc, bb)
            }
        });
    }
    Ok(out)
}

fn compile_query_expr(
    e: &ast::Expr,
    node_names: &[String],
    params: &ParamTable,
    programs: &[Arc<CompiledProgram>],
) -> Result<QExpr, CompileError> {
    use ast::Expr as E;
    Ok(match e {
        E::Num(r, _) => QExpr::Const(r.clone()),
        E::At(var, node) => {
            let nid = node_names
                .iter()
                .position(|n| n == &node.name)
                .ok_or_else(|| CompileError(format!("unknown node `{}`", node.name)))?;
            let slot = programs[nid]
                .state_names
                .iter()
                .position(|n| n == &var.name)
                .ok_or_else(|| {
                    CompileError(format!(
                        "`{}` is not a state variable of node `{}`",
                        var.name, node.name
                    ))
                })?;
            QExpr::At { node: nid, slot }
        }
        E::Name(id) => {
            if let Some(pid) = params.lookup(&id.name) {
                QExpr::Param(pid)
            } else if let Some(nid) = node_names.iter().position(|n| n == &id.name) {
                QExpr::Const(Rat::int(nid as i64))
            } else {
                return Err(CompileError(format!(
                    "unresolved name `{}` in query (use var@Node)",
                    id.name
                )));
            }
        }
        E::Binary(op, a, b) => QExpr::Binary(
            *op,
            Box::new(compile_query_expr(a, node_names, params, programs)?),
            Box::new(compile_query_expr(b, node_names, params, programs)?),
        ),
        E::Not(inner, _) => QExpr::Not(Box::new(compile_query_expr(
            inner, node_names, params, programs,
        )?)),
        E::Neg(inner, _) => QExpr::Neg(Box::new(compile_query_expr(
            inner, node_names, params, programs,
        )?)),
        E::Field(_) | E::Port(_) | E::Flip(..) | E::UniformInt(..) => {
            return Err(CompileError(
                "queries must be deterministic state expressions".into(),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayonet_lang::parse;

    fn two_node_src(body_a: &str) -> String {
        format!(
            r#"
            packet_fields {{ dst }}
            parameters {{ COST }}
            topology {{ nodes {{ A, B }} links {{ (A, pt1) <-> (B, pt1) }} }}
            programs {{ A -> a, B -> b }}
            init {{ packet -> (A, pt1) {{ dst = B }}; }}
            query probability(n@B == 1);
            def a(pkt, pt) state s(0) {{ {body_a} }}
            def b(pkt, pt) state n(0) {{ n = n + 1; drop; }}
            "#
        )
    }

    #[test]
    fn resolves_names_to_slots() {
        let src = two_node_src("x = COST; s = x + B; pkt.dst = A; fwd(1);");
        let model = compile(&parse(&src).unwrap()).unwrap();
        assert_eq!(model.num_nodes(), 2);
        let prog_a = &model.programs[0];
        assert_eq!(prog_a.state_names, vec!["s"]);
        assert_eq!(prog_a.local_names, vec!["x"]);
        // x = COST
        assert_eq!(
            prog_a.body[0],
            CStmt::AssignLocal(0, CExpr::Param(model.params.lookup("COST").unwrap()))
        );
        // s = x + B  (B folds to node id 1)
        let CStmt::AssignState(0, CExpr::Binary(BinOp::Add, lhs, rhs)) = &prog_a.body[1] else {
            panic!("{:?}", prog_a.body[1]);
        };
        assert_eq!(**lhs, CExpr::Local(0));
        assert_eq!(**rhs, CExpr::Const(Rat::int(1)));
        // pkt.dst = A
        assert_eq!(
            prog_a.body[2],
            CStmt::FieldAssign(0, CExpr::Const(Rat::zero()))
        );
    }

    #[test]
    fn param_watch_trips_only_on_watched_reads() {
        let mut model = compile(&parse(&two_node_src("drop;")).unwrap()).unwrap();
        let id = model.params.lookup("COST").unwrap();
        let watch = Arc::new(ParamWatch::new(model.params.len(), &[id]));
        assert!(!watch.hit());

        // Unwatched model: reads leave the (uninstalled) watch untouched.
        let _ = model.binding(id);
        assert!(!watch.hit());

        model.set_param_watch(Arc::clone(&watch));
        // Clones share the installed watch.
        let clone = model.clone();
        let _ = clone.binding(id);
        assert!(watch.hit());
        assert_eq!((watch.reads(), model.param_reads()), (1, 1));
        let _ = model.binding(id);
        assert_eq!(watch.reads(), 2, "the counter is monotone");

        // An empty watch never trips; clearing detaches the model.
        let empty = Arc::new(ParamWatch::new(model.params.len(), &[]));
        model.set_param_watch(Arc::clone(&empty));
        let _ = model.binding(id);
        assert!(!empty.hit());
        model.clear_param_watch();
        let _ = model.binding(id);
        assert_eq!(
            (watch.reads(), empty.reads(), model.param_reads()),
            (2, 0, 0)
        );
    }

    #[test]
    fn query_at_resolves() {
        let model = compile(&parse(&two_node_src("drop;")).unwrap()).unwrap();
        let q = &model.queries[0];
        assert_eq!(q.kind, QueryKind::Probability);
        let QExpr::Binary(BinOp::Eq, lhs, _) = &q.expr else {
            panic!()
        };
        assert_eq!(**lhs, QExpr::At { node: 1, slot: 0 });
    }

    #[test]
    fn links_bidirectional() {
        let model = compile(&parse(&two_node_src("drop;")).unwrap()).unwrap();
        assert_eq!(model.link_dest(0, 1), Some((1, 1)));
        assert_eq!(model.link_dest(1, 1), Some((0, 1)));
        assert_eq!(model.link_dest(0, 2), None);
    }

    #[test]
    fn default_queue_capacity_is_two() {
        let model = compile(&parse(&two_node_src("drop;")).unwrap()).unwrap();
        assert_eq!(model.queue_capacity, 2);
    }

    #[test]
    fn param_binding_roundtrip() {
        let mut model = compile(&parse(&two_node_src("drop;")).unwrap()).unwrap();
        assert!(model.has_symbolic_params());
        model.bind_param("COST", Rat::int(7)).unwrap();
        assert!(!model.has_symbolic_params());
        let id = model.params.lookup("COST").unwrap();
        assert_eq!(model.binding(id), Some(&Rat::int(7)));
        model.unbind_param("COST").unwrap();
        assert!(model.has_symbolic_params());
        assert!(model.bind_param("NOPE", Rat::one()).is_err());
    }

    #[test]
    fn unresolved_name_is_an_error() {
        let src = two_node_src("s = mystery; drop;");
        assert!(compile(&parse(&src).unwrap()).is_err());
    }

    #[test]
    fn init_fields_compile() {
        let model = compile(&parse(&two_node_src("drop;")).unwrap()).unwrap();
        assert_eq!(model.init_packets.len(), 1);
        let ip = &model.init_packets[0];
        assert_eq!((ip.node, ip.port), (0, 1));
        assert_eq!(ip.fields, vec![(0, CExpr::Const(Rat::int(1)))]);
    }
}
