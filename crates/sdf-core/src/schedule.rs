//! Looped schedules, single appearance schedules and R-schedule trees.
//!
//! A *looped schedule* is the paper's compact firing-sequence notation:
//! `(3A)(2B(2C))` fires `A` three times, then twice fires `B` followed by
//! two `C`s.  A *single appearance schedule* (SAS) mentions each actor
//! exactly once; every SAS over an acyclic graph can be put in the binary
//! *R-schedule* form `(i_L S_L)(i_R S_R)` (§8.1), which this module models as
//! [`SasTree`] — the input to lifetime analysis.

use std::fmt;

use crate::error::SdfError;
use crate::graph::{ActorId, SdfGraph};
use crate::lex::{self, Line};
use crate::repetitions::RepetitionsVector;

/// One element of a looped schedule body.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ScheduleNode {
    /// Fire `actor` `count` consecutive times (`(count actor)` in paper
    /// notation; `count` is 1 for a bare actor mention).
    Fire {
        /// The actor to fire.
        actor: ActorId,
        /// Consecutive firings.
        count: u64,
    },
    /// A schedule loop `(count body…)`.
    Loop {
        /// Loop iteration count.
        count: u64,
        /// Loop body, executed in order each iteration.
        body: Vec<ScheduleNode>,
    },
}

impl ScheduleNode {
    /// Convenience constructor for a single firing.
    pub fn fire(actor: ActorId) -> Self {
        ScheduleNode::Fire { actor, count: 1 }
    }

    /// Convenience constructor for `count` consecutive firings.
    pub fn fire_n(actor: ActorId, count: u64) -> Self {
        ScheduleNode::Fire { actor, count }
    }

    /// Convenience constructor for a loop.
    pub fn loop_of(count: u64, body: Vec<ScheduleNode>) -> Self {
        ScheduleNode::Loop { count, body }
    }
}

/// A looped schedule: an ordered body of firings and nested loops.
///
/// # Examples
///
/// Parsing and printing paper notation:
///
/// ```
/// use sdf_core::{SdfGraph, LoopedSchedule};
///
/// # fn main() -> Result<(), sdf_core::SdfError> {
/// let mut g = SdfGraph::new("fig2");
/// let a = g.add_actor("A");
/// let b = g.add_actor("B");
/// let c = g.add_actor("C");
/// g.add_edge(a, b, 20, 10)?;
/// g.add_edge(b, c, 20, 10)?;
/// let s = LoopedSchedule::parse("A (2 B (2 C))", &g)?;
/// assert!(s.is_single_appearance());
/// assert_eq!(s.display(&g).to_string(), "A(2B(2C))");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LoopedSchedule {
    body: Vec<ScheduleNode>,
}

impl LoopedSchedule {
    /// Creates a schedule from a body.
    pub fn new(body: Vec<ScheduleNode>) -> Self {
        LoopedSchedule { body }
    }

    /// Returns the top-level body.
    pub fn body(&self) -> &[ScheduleNode] {
        &self.body
    }

    /// Parses paper notation: actor names, optional integer repetition
    /// prefixes and parenthesised loops, e.g. `"(3A)(6B)(2C)"` or
    /// `"2(B(2C))"`.  Whitespace between tokens is ignored; actor names are
    /// maximal runs of alphanumerics/underscores that do not start with a
    /// digit.
    ///
    /// # Errors
    ///
    /// Returns [`SdfError::Parse`] on malformed input, unknown actor names,
    /// a zero loop count, counts written together (`n(m …)`, or `(m nX)`
    /// folded into one firing) whose product passes `u64::MAX`, or an
    /// actor whose firings per pass (nested counts multiplied, repeated
    /// appearances added) pass `u64::MAX`.
    pub fn parse(text: &str, graph: &SdfGraph) -> Result<Self, SdfError> {
        let mut parser = Parser {
            text,
            pos: 0,
            graph,
            fired: vec![0; graph.actor_count()],
        };
        let body = parser.parse_sequence(1)?;
        if parser.peek().is_some() {
            let offset = text[..parser.pos].chars().count();
            return Err(parser.error(format_args!("unexpected trailing input at offset {offset}")));
        }
        parser.count_firings(1, &body)?;
        Ok(LoopedSchedule { body })
    }

    /// Iterates over the fully expanded firing sequence.
    ///
    /// The iterator is lazy; the expansion can be exponentially longer than
    /// the schedule text, so avoid collecting it for untrusted inputs.
    pub fn firings(&self) -> Firings<'_> {
        Firings {
            stack: vec![Frame {
                body: &self.body,
                index: 0,
                fire_done: 0,
                remaining_iters: 1,
            }],
        }
    }

    /// Returns the number of firings of each actor in one pass of the
    /// schedule, computed without expansion.
    pub fn firing_counts(&self, actor_count: usize) -> Vec<u64> {
        let mut counts = vec![0u64; actor_count];
        fn walk(nodes: &[ScheduleNode], mult: u64, counts: &mut [u64]) {
            for node in nodes {
                match node {
                    ScheduleNode::Fire { actor, count } => {
                        counts[actor.index()] += mult * count;
                    }
                    ScheduleNode::Loop { count, body } => {
                        walk(body, mult * count, counts);
                    }
                }
            }
        }
        walk(&self.body, 1, &mut counts);
        counts
    }

    /// Returns the number of lexical appearances of each actor (loop
    /// notation counts a `Fire` node once regardless of its count).
    pub fn appearance_counts(&self, actor_count: usize) -> Vec<u64> {
        let mut counts = vec![0u64; actor_count];
        fn walk(nodes: &[ScheduleNode], counts: &mut [u64]) {
            for node in nodes {
                match node {
                    ScheduleNode::Fire { actor, .. } => counts[actor.index()] += 1,
                    ScheduleNode::Loop { body, .. } => walk(body, counts),
                }
            }
        }
        walk(&self.body, &mut counts);
        counts
    }

    /// Returns true if every actor that appears, appears exactly once.
    pub fn is_single_appearance(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        fn walk(nodes: &[ScheduleNode], seen: &mut std::collections::HashSet<ActorId>) -> bool {
            for node in nodes {
                match node {
                    ScheduleNode::Fire { actor, .. } => {
                        if !seen.insert(*actor) {
                            return false;
                        }
                    }
                    ScheduleNode::Loop { body, .. } => {
                        if !walk(body, seen) {
                            return false;
                        }
                    }
                }
            }
            true
        }
        walk(&self.body, &mut seen)
    }

    /// Returns the lexical ordering of the schedule: actors in order of
    /// first appearance (for a SAS this is `lexorder(S)` of §4).
    pub fn lexical_order(&self) -> Vec<ActorId> {
        let mut order = Vec::new();
        let mut seen = std::collections::HashSet::new();
        fn walk(
            nodes: &[ScheduleNode],
            order: &mut Vec<ActorId>,
            seen: &mut std::collections::HashSet<ActorId>,
        ) {
            for node in nodes {
                match node {
                    ScheduleNode::Fire { actor, .. } => {
                        if seen.insert(*actor) {
                            order.push(*actor);
                        }
                    }
                    ScheduleNode::Loop { body, .. } => walk(body, order, seen),
                }
            }
        }
        walk(&self.body, &mut order, &mut seen);
        order
    }

    /// Maximum loop nesting depth (a flat schedule has depth ≤ 1).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[ScheduleNode]) -> usize {
            nodes
                .iter()
                .map(|n| match n {
                    ScheduleNode::Fire { .. } => 0,
                    ScheduleNode::Loop { body, .. } => 1 + walk(body),
                })
                .max()
                .unwrap_or(0)
        }
        walk(&self.body)
    }

    /// Builds the flat SAS `(q1 x1)(q2 x2)…(qn xn)` for a lexical order.
    ///
    /// # Panics
    ///
    /// Panics if an actor in `order` is out of range for `q`.
    pub fn flat_sas(order: &[ActorId], q: &RepetitionsVector) -> Self {
        LoopedSchedule {
            body: order
                .iter()
                .map(|&a| ScheduleNode::fire_n(a, q.get(a)))
                .collect(),
        }
    }

    /// Returns a displayable form using actor names from `graph`.
    pub fn display<'a>(&'a self, graph: &'a SdfGraph) -> DisplaySchedule<'a> {
        DisplaySchedule {
            schedule: self,
            graph,
        }
    }

    /// Applies the paper's **Fact 1** factoring transformation everywhere
    /// it is possible: any loop `(m (n1 S1)(n2 S2)…(nk Sk))` whose body
    /// iteration counts share a common divisor γ > 1 becomes
    /// `(γm (n1/γ S1)…(nk/γ Sk))`, recursively, until no loop can be
    /// factored further.
    ///
    /// Under the **non-shared** buffer model this never increases
    /// `bufmem` (Fact 1(b)); under the shared model it can (§5.1, Fig. 7)
    /// — which is exactly why SDPPO applies its factoring heuristic
    /// instead of factoring blindly.
    ///
    /// The transformation preserves validity whenever the loop bodies
    /// fire disjoint actor sets (always true for the SASs this workspace
    /// produces; for general schedules the caller should re-validate).
    pub fn fully_factored(&self) -> LoopedSchedule {
        fn count_of(node: &ScheduleNode) -> u64 {
            match node {
                ScheduleNode::Fire { count, .. } => *count,
                ScheduleNode::Loop { count, .. } => *count,
            }
        }
        fn divide(node: &mut ScheduleNode, g: u64) {
            match node {
                ScheduleNode::Fire { count, .. } => *count /= g,
                ScheduleNode::Loop { count, .. } => *count /= g,
            }
        }
        fn factor_body(body: &[ScheduleNode]) -> (Vec<ScheduleNode>, u64) {
            // Recurse first so inner loops are already factored.
            let mut new_body: Vec<ScheduleNode> = body
                .iter()
                .map(|n| match n {
                    ScheduleNode::Fire { .. } => n.clone(),
                    ScheduleNode::Loop { count, body } => {
                        let (inner, gamma) = factor_body(body);
                        ScheduleNode::loop_of(count * gamma, inner)
                    }
                })
                .collect();
            let g = new_body.iter().map(count_of).fold(0, crate::math::gcd);
            if g > 1 {
                for n in &mut new_body {
                    divide(n, g);
                }
                (new_body, g)
            } else {
                (new_body, 1)
            }
        }
        // The top level is not inside a loop, so a common factor of the
        // top-level body cannot be extracted (there is nothing to attach
        // it to without changing the period); only nested loops factor.
        let body = self
            .body
            .iter()
            .map(|n| match n {
                ScheduleNode::Fire { .. } => n.clone(),
                ScheduleNode::Loop { count, body } => {
                    let (inner, gamma) = factor_body(body);
                    ScheduleNode::loop_of(count * gamma, inner)
                }
            })
            .collect();
        LoopedSchedule { body }
    }
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
    graph: &'a SdfGraph,
    /// Firings per pass of each actor in the loops closed so far, so
    /// [`LoopedSchedule::firing_counts`] never overflows on a parsed
    /// schedule.
    fired: Vec<u64>,
}

impl<'a> Parser<'a> {
    fn peek(&mut self) -> Option<char> {
        let rest = &self.text[self.pos..];
        self.pos += rest.len() - rest.trim_start().len();
        self.text[self.pos..].chars().next()
    }

    /// Consumes and returns the longest run of characters that satisfy `f`.
    fn take_while(&mut self, f: impl Fn(char) -> bool) -> &'a str {
        let rest = &self.text[self.pos..];
        let len = rest.find(|c| !f(c)).unwrap_or(rest.len());
        self.pos += len;
        &rest[..len]
    }

    /// A parse error at the current position, on the line it falls in.
    fn error(&self, message: impl fmt::Display) -> SdfError {
        let line = self.text[..self.pos].matches('\n').count();
        let raw = self.text.lines().nth(line).unwrap_or_default();
        Line::new(line + 1, raw).error(message)
    }

    /// Adds the firings of `body`'s own actors to the running totals;
    /// `mult` is the product of the enclosing loop counts, the body's own
    /// included. Nested loops counted theirs when they closed.
    fn count_firings(&mut self, mult: u64, body: &[ScheduleNode]) -> Result<(), SdfError> {
        for node in body {
            if let ScheduleNode::Fire { actor, count } = *node {
                let total = mult
                    .checked_mul(count)
                    .and_then(|n| n.checked_add(self.fired[actor.index()]))
                    .ok_or_else(|| self.error("firing count overflows u64"))?;
                self.fired[actor.index()] = total;
            }
        }
        Ok(())
    }

    /// A sequence of terms inside loops whose counts multiply to `mult`.
    fn parse_sequence(&mut self, mult: u64) -> Result<Vec<ScheduleNode>, SdfError> {
        let mut nodes = Vec::new();
        while self.peek().is_some_and(|c| c != ')') {
            nodes.push(self.parse_term(mult)?);
        }
        Ok(nodes)
    }

    fn parse_term(&mut self, mult: u64) -> Result<ScheduleNode, SdfError> {
        // A count may prefix a loop (`2(B(2C))`) or an actor (`3A`); inside
        // parentheses a leading count is the loop count of that group
        // (`(3A)`, `(24(11(4A)B)…)`).
        let prefix = self.parse_count()?;
        match self.peek() {
            Some('(') => {
                self.pos += 1;
                let inner = self.parse_count()?;
                let count = prefix
                    .checked_mul(inner)
                    .ok_or_else(|| self.error("loop count overflows u64"))?;
                // Every loop body that parses fires some actor, so a
                // product past u64 means that actor fires more often.
                let inside = mult
                    .checked_mul(count)
                    .ok_or_else(|| self.error("firing count overflows u64"))?;
                let body = self.parse_sequence(inside)?;
                if self.peek() != Some(')') {
                    return Err(self.error("missing closing parenthesis"));
                }
                self.pos += 1;
                if body.is_empty() {
                    return Err(self.error("empty loop body"));
                }
                // Collapse `(n X)` into a counted firing, which the
                // enclosing loop counts when it closes.
                if let [ScheduleNode::Fire { actor, count: c }] = body[..] {
                    let fired = count
                        .checked_mul(c)
                        .ok_or_else(|| self.error("loop count overflows u64"))?;
                    return Ok(ScheduleNode::fire_n(actor, fired));
                }
                self.count_firings(inside, &body)?;
                Ok(ScheduleNode::loop_of(count, body))
            }
            Some(c) if c.is_alphabetic() || c == '_' => {
                let name = self.take_while(|c| c.is_alphanumeric() || c == '_');
                let actor = self
                    .graph
                    .actor_by_name(name)
                    .ok_or_else(|| self.error(format_args!("unknown actor \"{name}\"")))?;
                Ok(ScheduleNode::fire_n(actor, prefix))
            }
            other => Err(self.error(format_args!("expected actor or loop, found {other:?}"))),
        }
    }

    /// An optional loop count: 1 when absent, a checked nonzero `u64`.
    fn parse_count(&mut self) -> Result<u64, SdfError> {
        self.peek(); // skips whitespace
        let digits = self.take_while(|c| c.is_ascii_digit());
        if digits.is_empty() {
            return Ok(1);
        }
        match lex::parse_u64(digits, "loop count") {
            Ok(0) => Err(self.error("loop count of zero")),
            Ok(value) => Ok(value),
            Err(message) => Err(self.error(message)),
        }
    }
}

struct Frame<'a> {
    body: &'a [ScheduleNode],
    index: usize,
    fire_done: u64,
    remaining_iters: u64,
}

/// Lazy iterator over the expanded firing sequence of a
/// [`LoopedSchedule`]; created by [`LoopedSchedule::firings`].
pub struct Firings<'a> {
    stack: Vec<Frame<'a>>,
}

impl Iterator for Firings<'_> {
    type Item = ActorId;

    fn next(&mut self) -> Option<ActorId> {
        loop {
            let frame = self.stack.last_mut()?;
            if frame.index == frame.body.len() {
                frame.remaining_iters -= 1;
                if frame.remaining_iters == 0 {
                    self.stack.pop();
                } else {
                    frame.index = 0;
                }
                continue;
            }
            match &frame.body[frame.index] {
                ScheduleNode::Fire { actor, count } => {
                    if frame.fire_done + 1 >= *count {
                        frame.fire_done = 0;
                        frame.index += 1;
                    } else {
                        frame.fire_done += 1;
                    }
                    return Some(*actor);
                }
                ScheduleNode::Loop { count, body } => {
                    frame.index += 1;
                    if *count > 0 && !body.is_empty() {
                        self.stack.push(Frame {
                            body,
                            index: 0,
                            fire_done: 0,
                            remaining_iters: *count,
                        });
                    }
                }
            }
        }
    }
}

/// Displays a schedule in paper notation; created by
/// [`LoopedSchedule::display`].
pub struct DisplaySchedule<'a> {
    schedule: &'a LoopedSchedule,
    graph: &'a SdfGraph,
}

impl fmt::Display for DisplaySchedule<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Two adjacent bare actor names need a separating space so that
        // multi-character names stay parseable ("cdSrc stage1", not
        // "cdSrcstage1"); counts and parentheses delimit themselves.
        fn node(n: &ScheduleNode, g: &SdfGraph, out: &mut String, after_name: &mut bool) {
            match n {
                ScheduleNode::Fire { actor, count } => {
                    if *count == 1 {
                        if *after_name {
                            out.push(' ');
                        }
                        out.push_str(g.actor_name(*actor));
                        *after_name = true;
                    } else {
                        out.push('(');
                        out.push_str(&count.to_string());
                        out.push_str(g.actor_name(*actor));
                        out.push(')');
                        *after_name = false;
                    }
                }
                ScheduleNode::Loop { count, body } => {
                    out.push('(');
                    out.push_str(&count.to_string());
                    let mut inner_after_name = false;
                    for b in body {
                        node(b, g, out, &mut inner_after_name);
                    }
                    out.push(')');
                    *after_name = false;
                }
            }
        }
        let mut out = String::new();
        let mut after_name = false;
        for n in &self.schedule.body {
            node(n, self.graph, &mut out, &mut after_name);
        }
        f.write_str(&out)
    }
}

/// Identifies a node of a [`SasTree`], and of the timed tree built from
/// it: the node's index in postorder.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TreeNodeId(usize);

impl TreeNodeId {
    /// Creates an id from a raw postorder index. Intended for tests and
    /// for iteration code that has already checked the index against a
    /// tree.
    pub fn from_index(index: usize) -> Self {
        TreeNodeId(index)
    }

    /// Returns the postorder index of the node.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One node of a [`SasTree`] in binary R-schedule form (§8.1).
///
/// Internal nodes carry a loop factor; leaves carry an actor with its
/// residual repetition count.  The looped schedule it denotes is
/// `(count (left right))` at each branch and `(reps actor)` at each leaf.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SasNode {
    /// `(reps actor)`.
    Leaf {
        /// The actor fired at this leaf.
        actor: ActorId,
        /// Residual repetition count.
        reps: u64,
    },
    /// `(count left right)`.
    Branch {
        /// Loop factor of this subschedule.
        count: u64,
        /// Left subschedule.
        left: TreeNodeId,
        /// Right subschedule.
        right: TreeNodeId,
    },
}

/// A complete R-schedule: a binary schedule tree for a SAS, stored as one
/// arena of nodes in postorder with the root last.
///
/// The right child of node `v` is `v - 1`, and the subtree of `v` is a
/// contiguous run of ids ending at `v`.
///
/// # Examples
///
/// The R-schedule `(1 (1A) ((2 (2B)(4C))))` for Fig. 2's graph:
///
/// ```
/// use sdf_core::{SdfGraph, SasTree};
///
/// # fn main() -> Result<(), sdf_core::SdfError> {
/// let mut g = SdfGraph::new("fig2");
/// let a = g.add_actor("A");
/// let b = g.add_actor("B");
/// let c = g.add_actor("C");
/// g.add_edge(a, b, 20, 10)?;
/// g.add_edge(b, c, 20, 10)?;
/// let tree = SasTree::branch(
///     1,
///     SasTree::leaf(a, 1),
///     SasTree::branch(2, SasTree::leaf(b, 1), SasTree::leaf(c, 2)),
/// );
/// let s = tree.to_looped_schedule();
/// assert_eq!(s.display(&g).to_string(), "A(2B(2C))");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SasTree {
    nodes: Vec<SasNode>,
}

impl SasTree {
    /// The one-leaf tree `(reps actor)`.
    pub fn leaf(actor: ActorId, reps: u64) -> Self {
        SasTree {
            nodes: vec![SasNode::Leaf { actor, reps }],
        }
    }

    /// The tree `(count left right)`: `left`'s nodes, then `right`'s with
    /// their ids shifted past them, then the new root.
    pub fn branch(count: u64, mut left: SasTree, right: SasTree) -> Self {
        let shift = left.nodes.len();
        let moved = |id: TreeNodeId| TreeNodeId(id.0 + shift);
        left.nodes
            .extend(right.nodes.iter().map(|&node| match node {
                SasNode::Leaf { .. } => node,
                SasNode::Branch { count, left, right } => SasNode::Branch {
                    count,
                    left: moved(left),
                    right: moved(right),
                },
            }));
        let (l, r) = (TreeNodeId(shift - 1), left.root());
        left.push(SasNode::Branch {
            count,
            left: l,
            right: r,
        });
        left
    }

    /// An empty arena with room for `nodes` nodes, for builders that
    /// [`push`](Self::push) a tree in postorder.
    pub fn with_capacity(nodes: usize) -> Self {
        SasTree {
            nodes: Vec::with_capacity(nodes),
        }
    }

    /// Appends `node` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `node` is a branch whose `right` is not the last node
    /// pushed or whose `left` does not precede it.
    pub fn push(&mut self, node: SasNode) -> TreeNodeId {
        if let SasNode::Branch { left, right, .. } = node {
            assert!(
                left < right && right.0 + 1 == self.nodes.len(),
                "a branch follows its children in postorder"
            );
        }
        self.nodes.push(node);
        TreeNodeId(self.nodes.len() - 1)
    }

    /// The root node: the last in postorder.
    ///
    /// # Panics
    ///
    /// Panics if the tree is empty.
    pub fn root(&self) -> TreeNodeId {
        assert!(!self.nodes.is_empty(), "an empty tree has no root");
        TreeNodeId(self.nodes.len() - 1)
    }

    /// The node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: TreeNodeId) -> SasNode {
        self.nodes[id.0]
    }

    /// Every node, in postorder with the root last.
    pub fn nodes(&self) -> &[SasNode] {
        &self.nodes
    }

    /// Converts to the equivalent looped schedule, dropping unit loop
    /// factors.
    pub fn to_looped_schedule(&self) -> LoopedSchedule {
        // Postorder leaves each subtree's body on a stack: a branch pops
        // its right then its left child.
        let mut stack: Vec<Vec<ScheduleNode>> = Vec::new();
        for node in &self.nodes {
            match *node {
                SasNode::Leaf { actor, reps } => {
                    stack.push(vec![ScheduleNode::fire_n(actor, reps)])
                }
                SasNode::Branch { count, .. } => {
                    let right = stack.pop().expect("postorder tree");
                    let mut body = stack.pop().expect("postorder tree");
                    body.extend(right);
                    stack.push(if count == 1 {
                        body
                    } else {
                        vec![ScheduleNode::loop_of(count, body)]
                    });
                }
            }
        }
        LoopedSchedule::new(stack.pop().unwrap_or_default())
    }

    /// The actors in left-to-right (lexical) order.
    pub fn lexical_order(&self) -> Vec<ActorId> {
        self.nodes
            .iter()
            .filter_map(|node| match *node {
                SasNode::Leaf { actor, .. } => Some(actor),
                SasNode::Branch { .. } => None,
            })
            .collect()
    }

    /// Checks that for every leaf, the product of ancestor loop factors and
    /// the leaf's residual count equals `q(actor)`, that each actor
    /// appears exactly once, and that the arena is one tree in postorder.
    ///
    /// # Errors
    ///
    /// * [`SdfError::NotSingleAppearance`] if some actor repeats or is
    ///   missing.
    /// * [`SdfError::InvalidSchedule`] if a leaf's total count differs from
    ///   the repetitions vector, or a node is out of postorder.
    pub fn validate(&self, graph: &SdfGraph, q: &RepetitionsVector) -> Result<(), SdfError> {
        let mut seen = vec![false; graph.actor_count()];
        // Per node, the first id of its subtree and the product of its
        // ancestors' loop factors, both set by its parent; reverse
        // postorder visits every parent before its children.
        let mut scope = vec![(0usize, 1u64); self.nodes.len()];
        for (v, node) in self.nodes.iter().enumerate().rev() {
            let (first, mult) = scope[v];
            match *node {
                SasNode::Leaf { actor, reps } if first == v => {
                    if std::mem::replace(&mut seen[actor.index()], true) {
                        return Err(SdfError::NotSingleAppearance(actor));
                    }
                    let total = mult.saturating_mul(reps);
                    if total != q.get(actor) {
                        return Err(SdfError::InvalidSchedule(format!(
                            "actor {} fires {} times, repetitions vector requires {}",
                            actor,
                            total,
                            q.get(actor)
                        )));
                    }
                }
                SasNode::Branch { count, left, right }
                    if right.0 + 1 == v && (first..right.0).contains(&left.0) =>
                {
                    let mult = mult.saturating_mul(count);
                    scope[right.0] = (left.0 + 1, mult);
                    scope[left.0] = (first, mult);
                }
                _ => {
                    return Err(SdfError::InvalidSchedule(format!(
                        "schedule tree node {v} is out of postorder"
                    )))
                }
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(SdfError::NotSingleAppearance(ActorId::from_index(missing)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2() -> (SdfGraph, [ActorId; 3]) {
        let mut g = SdfGraph::new("fig2");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        let c = g.add_actor("C");
        g.add_edge(a, b, 20, 10).unwrap();
        g.add_edge(b, c, 20, 10).unwrap();
        (g, [a, b, c])
    }

    #[test]
    fn parse_flat_sas() {
        let (g, [a, b, c]) = fig2();
        let s = LoopedSchedule::parse("(1A)(2B)(4C)", &g).unwrap();
        let counts = s.firing_counts(3);
        assert_eq!(counts, vec![1, 2, 4]);
        assert!(s.is_single_appearance());
        assert_eq!(s.lexical_order(), vec![a, b, c]);
    }

    #[test]
    fn parse_nested() {
        let (g, _) = fig2();
        let s = LoopedSchedule::parse("A(2B(2C))", &g).unwrap();
        assert_eq!(s.firing_counts(3), vec![1, 2, 4]);
        // `(2C)` collapses to a counted firing, so only one Loop node remains.
        assert_eq!(s.depth(), 1);
        assert_eq!(s.display(&g).to_string(), "A(2B(2C))");
    }

    #[test]
    fn parse_non_sas() {
        let (g, [a, b, c]) = fig2();
        let s = LoopedSchedule::parse("A B C C B C C", &g).unwrap();
        assert!(!s.is_single_appearance());
        assert_eq!(s.firing_counts(3), vec![1, 2, 4]);
        let firing: Vec<_> = s.firings().collect();
        assert_eq!(firing, vec![a, b, c, c, b, c, c]);
    }

    #[test]
    fn parse_count_before_paren() {
        let (g, _) = fig2();
        let s = LoopedSchedule::parse("A 2(B(2C))", &g).unwrap();
        assert_eq!(s.display(&g).to_string(), "A(2B(2C))");
    }

    #[test]
    fn parse_rejects_unknown_actor() {
        let (g, _) = fig2();
        assert!(matches!(
            LoopedSchedule::parse("A Z", &g),
            Err(SdfError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn parse_rejects_malformed() {
        let (g, _) = fig2();
        assert!(LoopedSchedule::parse("(2A", &g).is_err());
        assert!(LoopedSchedule::parse("A)", &g).is_err());
        assert!(LoopedSchedule::parse("()", &g).is_err());
        assert!(LoopedSchedule::parse("0A", &g).is_err());
    }

    #[test]
    fn firings_expand_nested_loops() {
        let (g, [a, b, c]) = fig2();
        let s = LoopedSchedule::parse("(2(2B)C)A", &g).unwrap();
        let expanded: Vec<_> = s.firings().collect();
        assert_eq!(expanded, vec![b, b, c, b, b, c, a]);
    }

    #[test]
    fn firing_counts_without_expansion() {
        let (g, _) = fig2();
        let s = LoopedSchedule::parse("(100(100(100A)))", &g).unwrap();
        assert_eq!(s.firing_counts(3)[0], 1_000_000);
    }

    #[test]
    fn appearance_counts() {
        let (g, _) = fig2();
        let s = LoopedSchedule::parse("A B C C B C C", &g).unwrap();
        assert_eq!(s.appearance_counts(3), vec![1, 2, 4]);
        let sas = LoopedSchedule::parse("(2(3B)(5C))(7A)", &g).unwrap();
        assert_eq!(sas.appearance_counts(3), vec![1, 1, 1]);
    }

    #[test]
    fn lexorder_of_paper_example() {
        // lexorder((2(3B)(5C))(7A)) = (B, C, A).
        let (g, [a, b, c]) = fig2();
        let s = LoopedSchedule::parse("(2(3B)(5C))(7A)", &g).unwrap();
        assert_eq!(s.lexical_order(), vec![b, c, a]);
    }

    #[test]
    fn flat_sas_from_order() {
        let (g, [a, b, c]) = fig2();
        let q = RepetitionsVector::compute(&g).unwrap();
        let s = LoopedSchedule::flat_sas(&[a, b, c], &q);
        assert_eq!(s.display(&g).to_string(), "A(2B)(4C)");
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn sas_tree_roundtrip_and_validation() {
        let (g, [a, b, c]) = fig2();
        let q = RepetitionsVector::compute(&g).unwrap();
        let tree = SasTree::branch(
            1,
            SasTree::leaf(a, 1),
            SasTree::branch(2, SasTree::leaf(b, 1), SasTree::leaf(c, 2)),
        );
        tree.validate(&g, &q).unwrap();
        assert_eq!(tree.lexical_order(), vec![a, b, c]);
        let s = tree.to_looped_schedule();
        assert_eq!(s.firing_counts(3), vec![1, 2, 4]);
    }

    #[test]
    fn branch_appends_right_after_left_in_postorder() {
        let (_, [a, b, c]) = fig2();
        let tree = SasTree::branch(
            1,
            SasTree::leaf(a, 1),
            SasTree::branch(2, SasTree::leaf(b, 1), SasTree::leaf(c, 2)),
        );
        let id = TreeNodeId::from_index;
        assert_eq!(
            tree.nodes(),
            [
                SasNode::Leaf { actor: a, reps: 1 },
                SasNode::Leaf { actor: b, reps: 1 },
                SasNode::Leaf { actor: c, reps: 2 },
                SasNode::Branch {
                    count: 2,
                    left: id(1),
                    right: id(2)
                },
                SasNode::Branch {
                    count: 1,
                    left: id(0),
                    right: id(3)
                },
            ]
        );
        assert_eq!(tree.root(), id(4));
    }

    #[test]
    fn sas_tree_validation_catches_orphan_nodes() {
        // (1 A C) over a pushed B that no branch covers.
        let (g, [a, b, c]) = fig2();
        let q = RepetitionsVector::compute(&g).unwrap();
        let mut tree = SasTree::with_capacity(4);
        let left = tree.push(SasNode::Leaf { actor: a, reps: 1 });
        tree.push(SasNode::Leaf { actor: b, reps: 2 });
        let right = tree.push(SasNode::Leaf { actor: c, reps: 4 });
        tree.push(SasNode::Branch {
            count: 1,
            left,
            right,
        });
        assert!(matches!(
            tree.validate(&g, &q),
            Err(SdfError::InvalidSchedule(_))
        ));
    }

    #[test]
    fn sas_tree_validation_catches_bad_counts() {
        let (g, [a, b, c]) = fig2();
        let q = RepetitionsVector::compute(&g).unwrap();
        let tree = SasTree::branch(
            1,
            SasTree::leaf(a, 2), // should be 1
            SasTree::branch(2, SasTree::leaf(b, 1), SasTree::leaf(c, 2)),
        );
        assert!(matches!(
            tree.validate(&g, &q),
            Err(SdfError::InvalidSchedule(_))
        ));
    }

    #[test]
    fn sas_tree_validation_catches_duplicates() {
        let (g, [a, b, _]) = fig2();
        let q = RepetitionsVector::compute(&g).unwrap();
        let tree = SasTree::branch(
            1,
            SasTree::leaf(a, 1),
            SasTree::branch(1, SasTree::leaf(a, 1), SasTree::leaf(b, 2)),
        );
        assert!(matches!(
            tree.validate(&g, &q),
            Err(SdfError::NotSingleAppearance(_))
        ));
    }

    #[test]
    fn sas_tree_validation_catches_missing_actor() {
        let (g, [a, b, _]) = fig2();
        let q = RepetitionsVector::compute(&g).unwrap();
        let tree = SasTree::branch(1, SasTree::leaf(a, 1), SasTree::leaf(b, 2));
        assert!(matches!(
            tree.validate(&g, &q),
            Err(SdfError::NotSingleAppearance(_))
        ));
    }

    #[test]
    fn fact1_factoring_extracts_common_divisors() {
        let (g, _) = fig2();
        // (1 (2B) (4C)) -> (2 B (2C)).
        let s = LoopedSchedule::parse("A (1 (2B)(4C))", &g).unwrap();
        let f = s.fully_factored();
        assert_eq!(f.display(&g).to_string(), "A(2B(2C))");
        assert_eq!(f.firing_counts(3), s.firing_counts(3));
    }

    #[test]
    fn fact1_factoring_is_recursive() {
        let (g, _) = fig2();
        // (1 (4B) (8C)) -> (4 B (2C)).
        let mut g2 = SdfGraph::new("t");
        let a = g2.add_actor("A");
        let b = g2.add_actor("B");
        g2.add_edge(a, b, 2, 1).unwrap();
        let _ = (g, a, b);
        let s = LoopedSchedule::parse("(1 (4A)(8B))", &g2).unwrap();
        let f = s.fully_factored();
        assert_eq!(f.display(&g2).to_string(), "(4A(2B))");
    }

    #[test]
    fn fact1_never_increases_nonshared_bufmem() {
        // Fact 1(b) checked by simulation on Fig. 2 variants.
        let (g, _) = fig2();
        let q = RepetitionsVector::compute(&g).unwrap();
        for text in ["A(1(2B)(4C))", "A(2B(2C))", "(1A(2B(2C)))"] {
            let s = LoopedSchedule::parse(text, &g).unwrap();
            let f = s.fully_factored();
            let before = crate::simulate::validate_schedule(&g, &s, &q)
                .unwrap()
                .bufmem();
            let after = crate::simulate::validate_schedule(&g, &f, &q)
                .unwrap()
                .bufmem();
            assert!(after <= before, "{text}: {after} > {before}");
        }
    }

    #[test]
    fn factoring_leaves_flat_top_level_alone() {
        let (g, _) = fig2();
        let s = LoopedSchedule::parse("A(2B)(4C)", &g).unwrap();
        let f = s.fully_factored();
        assert_eq!(f.display(&g).to_string(), "A(2B)(4C)");
    }

    #[test]
    fn display_parse_round_trip_multichar_names() {
        let mut g = SdfGraph::new("rt");
        let src = g.add_actor("cdSrc");
        let s1 = g.add_actor("stage1");
        let s2 = g.add_actor("stage2");
        g.add_edge(src, s1, 1, 1).unwrap();
        g.add_edge(s1, s2, 2, 3).unwrap();
        let s = LoopedSchedule::new(vec![ScheduleNode::loop_of(
            3,
            vec![
                ScheduleNode::fire(src),
                ScheduleNode::fire(s1),
                ScheduleNode::fire_n(s2, 2),
            ],
        )]);
        let text = s.display(&g).to_string();
        assert_eq!(text, "(3cdSrc stage1(2stage2))");
        let back = LoopedSchedule::parse(&text, &g).unwrap();
        assert_eq!(back.firing_counts(3), s.firing_counts(3));
        assert_eq!(
            back.firings().collect::<Vec<_>>(),
            s.firings().collect::<Vec<_>>()
        );
    }

    #[test]
    fn display_satrec_style_schedule() {
        let mut g = SdfGraph::new("x");
        let a = g.add_actor("A");
        let b = g.add_actor("B");
        g.add_edge(a, b, 1, 4).unwrap();
        let s = LoopedSchedule::new(vec![ScheduleNode::loop_of(
            24,
            vec![ScheduleNode::loop_of(
                11,
                vec![ScheduleNode::fire_n(a, 4), ScheduleNode::fire(b)],
            )],
        )]);
        assert_eq!(s.display(&g).to_string(), "(24(11(4A)B))");
    }
}
