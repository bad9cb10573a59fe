//! C emission from an [`ExecutablePlan`].
//!
//! Both memory models share one traversal: a header comment, the buffer
//! declarations (the only part that differs between the models), the
//! extern firing-function declarations, and `run_schedule` re-nesting
//! the plan's flattened loop ops into `for` loops.  The emitted bytes
//! are pinned by golden files in `tests/golden/` — change them
//! deliberately or not at all.

use std::fmt::Write as _;

use crate::plan::{ExecutablePlan, MemoryModel, PlanActor, PlanOp};

/// Appends `name` sanitised into a C identifier (alphanumerics and
/// underscores, never starting with a digit).
fn push_c_ident(out: &mut String, name: &str) {
    let empty = out.len();
    for (i, ch) in name.chars().enumerate() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            if i == 0 && ch.is_ascii_digit() {
                out.push('_');
            }
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.len() == empty {
        out.push('_');
    }
}

/// Appends the parameter list of one actor's firing function, in
/// declaration order: `const float *in0, …, float *out0, …` (or `void`).
fn push_params(actor: &PlanActor, out: &mut String) {
    if actor.inputs.is_empty() && actor.outputs.is_empty() {
        out.push_str("void");
        return;
    }
    let inputs = (0..actor.inputs.len()).map(|i| ("const float *in", i));
    let outputs = (0..actor.outputs.len()).map(|i| ("float *out", i));
    for (k, (param, i)) in inputs.chain(outputs).enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}{param}{i}");
    }
}

/// Appends `<prefix>fire_<actor>(<params>)<suffix>`: a firing function's
/// declaration or definition head.
fn push_signature(actor: &PlanActor, prefix: &str, suffix: &str, out: &mut String) {
    out.push_str(prefix);
    out.push_str("fire_");
    push_c_ident(out, &actor.name);
    out.push('(');
    push_params(actor, out);
    out.push(')');
    out.push_str(suffix);
}

/// Emits the buffer declarations: one array per edge (non-shared) or
/// the pool plus per-edge offset macros (shared).
fn emit_buffers(plan: &ExecutablePlan, out: &mut String) {
    match plan.model {
        MemoryModel::NonShared => {
            for b in &plan.bindings {
                let _ = writeln!(
                    out,
                    "float buf_e{}[{}]; /* {} -> {} */",
                    b.edge,
                    b.size.max(1),
                    b.src,
                    b.snk
                );
            }
        }
        MemoryModel::Shared => {
            let _ = writeln!(out, "float mem[{}];", plan.pool_words.max(1));
            for b in &plan.bindings {
                let _ = writeln!(
                    out,
                    "#define buf_e{} (mem + {}) /* {} -> {}, {} words */",
                    b.edge, b.offset, b.src, b.snk, b.size
                );
            }
        }
    }
}

fn emit_actor_decls(plan: &ExecutablePlan, out: &mut String) {
    for actor in &plan.actors {
        push_signature(actor, "extern void ", ";\n", out);
    }
}

/// Emits one firing call, passing the actor's edge buffers (inputs
/// first, then outputs).
fn emit_fire(plan: &ExecutablePlan, actor: usize, indent: usize, out: &mut String) {
    let a = &plan.actors[actor];
    let _ = write!(out, "{:indent$}fire_", "", indent = indent);
    push_c_ident(out, &a.name);
    out.push('(');
    for (k, &b) in a.inputs.iter().chain(&a.outputs).enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}buf_e{}", plan.bindings[b].edge);
    }
    out.push_str(");\n");
}

fn emit_loop_header(depth: usize, count: u64, indent: usize, out: &mut String) {
    let _ = writeln!(
        out,
        "{:indent$}for (int i{depth} = 0; i{depth} < {count}; ++i{depth}) {{",
        "",
        indent = indent
    );
}

fn emit_ops(plan: &ExecutablePlan, out: &mut String) {
    let mut depth = 0usize;
    let mut indent = 4usize;
    for op in &plan.ops {
        match op {
            PlanOp::Fire { actor, count } => {
                if *count == 1 {
                    emit_fire(plan, *actor, indent, out);
                } else {
                    emit_loop_header(depth, *count, indent, out);
                    emit_fire(plan, *actor, indent + 4, out);
                    let _ = writeln!(out, "{:indent$}}}", "", indent = indent);
                }
            }
            PlanOp::BeginLoop { count } => {
                emit_loop_header(depth, *count, indent, out);
                depth += 1;
                indent += 4;
            }
            PlanOp::EndLoop => {
                depth -= 1;
                indent -= 4;
                let _ = writeln!(out, "{:indent$}}}", "", indent = indent);
            }
            PlanOp::ModeSwitch { next } => {
                // Single-mode emission never sees this op; a multi-mode
                // driver would branch to the next mode's period here.
                let _ = writeln!(
                    out,
                    "{:indent$}/* mode switch -> mode {next} */",
                    "",
                    indent = indent
                );
            }
        }
    }
}

fn emit_schedule_function(plan: &ExecutablePlan, out: &mut String) {
    out.push_str("\nvoid run_schedule(void) {\n");
    emit_ops(plan, out);
    out.push_str("}\n");
}

fn emit_actor_stubs(plan: &ExecutablePlan, out: &mut String) {
    for actor in &plan.actors {
        push_signature(actor, "static void ", " {\n", out);
        for i in 0..actor.inputs.len() {
            let _ = writeln!(out, "    (void)in{i};");
        }
        for i in 0..actor.outputs.len() {
            let _ = writeln!(out, "    out{i}[0] = 0.0f;");
        }
        out.push_str("}\n");
    }
}

fn emit_document(plan: &ExecutablePlan, standalone: bool) -> String {
    let _span = sdf_trace::span!("codegen.emit", model = plan.model.as_str());
    let mut out = String::new();
    match plan.model {
        MemoryModel::NonShared => {
            let _ = writeln!(
                out,
                "/* Generated by sdfmem: graph \"{}\", non-shared buffers ({} words). */",
                plan.graph, plan.pool_words
            );
        }
        MemoryModel::Shared => {
            let _ = writeln!(
                out,
                "/* Generated by sdfmem: graph \"{}\", shared pool of {} words. */",
                plan.graph, plan.pool_words
            );
        }
    }
    out.push('\n');
    emit_buffers(plan, &mut out);
    out.push('\n');
    if standalone {
        emit_actor_stubs(plan, &mut out);
    } else {
        emit_actor_decls(plan, &mut out);
    }
    emit_schedule_function(plan, &mut out);
    if standalone {
        out.push_str("\nint main(void) {\n    run_schedule();\n    return 0;\n}\n");
    }
    out
}

/// Emits the C implementation of `plan`: header comment, buffer
/// declarations for the plan's memory model, extern actor declarations
/// and `run_schedule`.
pub fn emit_c(plan: &ExecutablePlan) -> String {
    emit_document(plan, false)
}

/// Emits a self-contained, runnable C program: like [`emit_c`], but the
/// extern actor declarations become trivial stub definitions (each
/// writes its first output word) and a `main` runs one schedule period.
/// Used by the CI `codegen-smoke` step to prove the emitted scaffolding
/// compiles under `-Wall -Werror` and runs to completion.
pub fn emit_standalone_c(plan: &ExecutablePlan) -> String {
    emit_document(plan, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c_ident(name: &str) -> String {
        let mut out = String::from("x");
        push_c_ident(&mut out, name);
        out.split_off(1)
    }

    #[test]
    fn identifiers_sanitised() {
        assert_eq!(c_ident("16qamModem"), "_16qamModem");
        assert_eq!(c_ident("r_alp"), "r_alp");
        assert_eq!(c_ident("a-b c"), "a_b_c");
        assert_eq!(c_ident(""), "_");
    }
}
