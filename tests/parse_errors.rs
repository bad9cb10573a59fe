//! Every error message the four text parsers give, word for word.
//!
//! One row per message: which parser, the input, and the exact text
//! the error displays. The graph (`.sdf`), mode graph (`.sdfm`), edit
//! script and looped-schedule parsers are covered, so a change to any
//! message shows here as a changed row. A malformed input is an
//! [`SdfError::Parse`], displayed as `line N: …`; the other rows are
//! semantic errors found after a clean parse, and keep their variants.

use sdfmem::core::io::parse_graph;
use sdfmem::core::mode::parse_mode_graph;
use sdfmem::core::{LoopedSchedule, SdfError, SdfGraph};
use sdfmem::incremental::{EditOp, EditScript};

#[derive(Clone, Copy, Debug)]
enum Parser {
    Graph,
    Modes,
    Edits,
    /// A single [`EditOp::parse`] call on the whole input.
    EditOp,
    /// Looped-schedule notation against the three-actor chain `A B C`.
    Schedule,
}

use Parser::*;

fn error(parser: Parser, input: &str) -> SdfError {
    match parser {
        Graph => parse_graph(input).map(drop).unwrap_err(),
        Modes => parse_mode_graph(input).map(drop).unwrap_err(),
        Edits => EditScript::parse(input).map(drop).unwrap_err(),
        EditOp => EditOp::parse(input).map(drop).unwrap_err(),
        Schedule => {
            let mut g = SdfGraph::new("abc");
            let a = g.add_actor("A");
            let b = g.add_actor("B");
            let c = g.add_actor("C");
            g.add_edge(a, b, 2, 1).unwrap();
            g.add_edge(b, c, 2, 1).unwrap();
            LoopedSchedule::parse(input, &g).map(drop).unwrap_err()
        }
    }
}

const ROWS: &[(Parser, &str, &str)] = &[
    // `.sdf`
    (Graph, "graph\n", r#"line 1: missing graph name: "graph""#),
    (
        Graph,
        "graph a b\n",
        r#"line 1: trailing tokens after graph name: "graph a b""#,
    ),
    (
        Graph,
        "graph a\ngraph b\n",
        r#"line 2: duplicate graph declaration: "graph b""#,
    ),
    (Graph, "actor\n", r#"line 1: missing actor name: "actor""#),
    (
        Graph,
        "actor A junk\n",
        r#"line 1: trailing tokens after actor name: "actor A junk""#,
    ),
    (
        Graph,
        "actor A\nactor A\n",
        r#"line 2: duplicate actor: "actor A""#,
    ),
    (Graph, "edge\n", r#"line 1: missing source: "edge""#),
    (Graph, "edge A\n", r#"line 1: missing sink: "edge A""#),
    (
        Graph,
        "edge A B\n",
        r#"line 1: missing production rate: "edge A B""#,
    ),
    (
        Graph,
        "edge A B x 1\n",
        r#"line 1: bad production rate `x`: "edge A B x 1""#,
    ),
    (
        Graph,
        "edge A B 99999999999999999999 1\n",
        r#"line 1: bad production rate `99999999999999999999`: "edge A B 99999999999999999999 1""#,
    ),
    (
        Graph,
        "edge A B 1\n",
        r#"line 1: missing consumption rate: "edge A B 1""#,
    ),
    (
        Graph,
        "edge A B +5 1\n",
        r#"line 1: bad production rate `+5`: "edge A B +5 1""#,
    ),
    (
        Graph,
        "edge A B 1 -2\n",
        r#"line 1: bad consumption rate `-2`: "edge A B 1 -2""#,
    ),
    (
        Graph,
        "edge A B 1 2 delay\n",
        r#"line 1: missing delay: "edge A B 1 2 delay""#,
    ),
    (
        Graph,
        "edge A B 1 2 delay z\n",
        r#"line 1: bad delay `z`: "edge A B 1 2 delay z""#,
    ),
    (
        Graph,
        "edge A B 1 2 junk 3\n",
        r#"line 1: expected `delay D` or end of line: "edge A B 1 2 junk 3""#,
    ),
    (
        Graph,
        "edge A B 1 2 delay 3 junk\n",
        r#"line 1: trailing tokens: "edge A B 1 2 delay 3 junk""#,
    ),
    (
        Graph,
        "# header\n\n  bogus X  # note\n",
        r#"line 3: unknown keyword `bogus`: "  bogus X  # note""#,
    ),
    (
        Graph,
        "edge A B 0 1\n",
        "edge a0 -> a1 has a zero production or consumption rate",
    ),
    // `.sdfm`
    (
        Modes,
        "modegraph a\nmodegraph b\n",
        r#"line 2: duplicate modegraph line: "modegraph b""#,
    ),
    (
        Modes,
        "modegraph\n",
        r#"line 1: modegraph needs a name: "modegraph""#,
    ),
    (
        Modes,
        "modegraph a b\n",
        r#"line 1: trailing tokens after modegraph name: "modegraph a b""#,
    ),
    (
        Modes,
        "persistent a\n",
        r#"line 1: persistent needs SRC SNK: "persistent a""#,
    ),
    (
        Modes,
        "modegraph t\npersistent\n",
        r#"line 2: persistent needs SRC SNK: "persistent""#,
    ),
    (
        Modes,
        "persistent a b c\n",
        r#"line 1: trailing tokens after persistent edge: "persistent a b c""#,
    ),
    (
        Modes,
        "mode one\n",
        r#"line 1: mode section before modegraph line: "mode one""#,
    ),
    (
        Modes,
        "modegraph t\nmode\n",
        r#"line 2: mode needs a name: "mode""#,
    ),
    (
        Modes,
        "modegraph t\nmode a b\n",
        r#"line 2: trailing tokens after mode name: "mode a b""#,
    ),
    (
        Modes,
        "modegraph t\nedge a b 1 1\n",
        r#"line 2: graph line outside any mode section: "edge a b 1 1""#,
    ),
    (
        Modes,
        "# nothing\n",
        "line 1: empty mode graph: expected a modegraph line",
    ),
    (
        Modes,
        "modegraph t\nmode a\nmode b\nedge x y 1 1\n",
        r#"line 2: mode "a" is empty"#,
    ),
    (
        Modes,
        "modegraph t\nmode a\nedge a b 1 1\nedge a b nope 1\n",
        r#"line 4: bad production rate `nope`: "edge a b nope 1""#,
    ),
    (
        Modes,
        "modegraph t\nmode a\ngraph g\n",
        r#"line 3: duplicate graph declaration: "graph g""#,
    ),
    (
        Modes,
        "modegraph t\nmode a\ngraph\n",
        r#"line 3: missing graph name: "graph""#,
    ),
    (
        Modes,
        "modegraph t\nmode a\nactor x\nactor x\n",
        r#"line 4: duplicate actor: "actor x""#,
    ),
    (
        Modes,
        "modegraph t\nmode a\nedge x y 0 1\n",
        "edge a0 -> a1 has a zero production or consumption rate",
    ),
    // Two faults: the first in line order is reported.
    (
        Modes,
        "modegraph t\nmode a\nedge a b x 1\nmode b junk\n",
        r#"line 3: bad production rate `x`: "edge a b x 1""#,
    ),
    // Semantic checks after a clean parse.
    (
        Modes,
        "modegraph t\nmode a\nedge x y 1 1\n",
        r#"invalid schedule: mode graph "t" declares 1 mode(s); multi-mode synthesis needs at least 2"#,
    ),
    (
        Modes,
        "modegraph t\nmode a\nedge x y 1 1\nmode a\nedge x y 1 1\n",
        r#"invalid schedule: duplicate mode name "a""#,
    ),
    // Edit scripts
    (
        Edits,
        "set-rate A B x 1\n",
        r#"line 1: bad production rate `x`: "set-rate A B x 1""#,
    ),
    (
        Edits,
        "set-rate A B 1 y\n",
        r#"line 1: bad consumption rate `y`: "set-rate A B 1 y""#,
    ),
    (
        Edits,
        "set-rate A B x 1 @z\n",
        r#"line 1: bad production rate `x`: "set-rate A B x 1 @z""#,
    ),
    (
        Edits,
        "set-rate A B 1 2 @1 extra\n",
        r#"line 1: expected set-rate/set-delay/add-edge/remove-edge with their operands: "set-rate A B 1 2 @1 extra""#,
    ),
    (
        Edits,
        "set-rate A B 1\n",
        r#"line 1: missing consumption rate: "set-rate A B 1""#,
    ),
    (
        Edits,
        "# header\n\nset-delay A B z\n",
        r#"line 3: bad delay `z`: "set-delay A B z""#,
    ),
    (
        Edits,
        "set-delay A B\n",
        r#"line 1: missing delay: "set-delay A B""#,
    ),
    (
        Edits,
        "set-delay A B 1 7\n",
        r#"line 1: expected `@ORD`, got `7`: "set-delay A B 1 7""#,
    ),
    (
        Edits,
        "set-delay A B 1 @x\n",
        r#"line 1: expected `@ORD`, got `@x`: "set-delay A B 1 @x""#,
    ),
    (
        Edits,
        "set-delay A B 1 @-1\n",
        r#"line 1: expected `@ORD`, got `@-1`: "set-delay A B 1 @-1""#,
    ),
    (
        Edits,
        "set-delay A B 1 @+1\n",
        r#"line 1: expected `@ORD`, got `@+1`: "set-delay A B 1 @+1""#,
    ),
    (
        Edits,
        "set-delay A B +1\n",
        r#"line 1: bad delay `+1`: "set-delay A B +1""#,
    ),
    (
        Edits,
        "  set-delay A B x  # note\n",
        r#"line 1: bad delay `x`: "  set-delay A B x  # note""#,
    ),
    (
        Edits,
        "remove-edge A\n",
        r#"line 1: expected set-rate/set-delay/add-edge/remove-edge with their operands: "remove-edge A""#,
    ),
    (
        Edits,
        "remove-edge A B @q\n",
        r#"line 1: expected `@ORD`, got `@q`: "remove-edge A B @q""#,
    ),
    (
        Edits,
        "frobnicate A B\n",
        r#"line 1: expected set-rate/set-delay/add-edge/remove-edge with their operands: "frobnicate A B""#,
    ),
    (
        Edits,
        "add-edge A B x 2\n",
        r#"line 1: bad production rate `x`: "add-edge A B x 2""#,
    ),
    (
        Edits,
        "add-edge A B 1 y\n",
        r#"line 1: bad consumption rate `y`: "add-edge A B 1 y""#,
    ),
    (
        Edits,
        "add-edge A B 1 2 delay q\n",
        r#"line 1: bad delay `q`: "add-edge A B 1 2 delay q""#,
    ),
    (
        Edits,
        "add-edge A\n",
        r#"line 1: missing sink: "add-edge A""#,
    ),
    (
        Edits,
        "add-edge A B 1\n",
        r#"line 1: missing consumption rate: "add-edge A B 1""#,
    ),
    (
        Edits,
        "add-edge A B 1 2 delay\n",
        r#"line 1: missing delay: "add-edge A B 1 2 delay""#,
    ),
    (
        Edits,
        "add-edge A B 1 2 junk 3\n",
        r#"line 1: expected `delay D` or end of line: "add-edge A B 1 2 junk 3""#,
    ),
    (
        Edits,
        "add-edge A B 1 2 delay 3 x\n",
        r#"line 1: trailing tokens: "add-edge A B 1 2 delay 3 x""#,
    ),
    (EditOp, "", r#"line 1: empty edit: """#),
    (
        EditOp,
        "set-delay A B x",
        r#"line 1: bad delay `x`: "set-delay A B x""#,
    ),
    // Looped-schedule notation
    (Schedule, "A Z", r#"line 1: unknown actor "Z": "A Z""#),
    (
        Schedule,
        "(2A",
        r#"line 1: missing closing parenthesis: "(2A""#,
    ),
    (
        Schedule,
        "A)",
        r#"line 1: unexpected trailing input at offset 1: "A)""#,
    ),
    (Schedule, "()", r#"line 1: empty loop body: "()""#),
    (Schedule, "0A", r#"line 1: loop count of zero: "0A""#),
    (
        Schedule,
        "99999999999999999999A",
        r#"line 1: bad loop count `99999999999999999999`: "99999999999999999999A""#,
    ),
    (
        Schedule,
        "2",
        r#"line 1: expected actor or loop, found None: "2""#,
    ),
    (
        Schedule,
        "A #",
        r#"line 1: expected actor or loop, found Some('#'): "A #""#,
    ),
    (
        Schedule,
        "A\n (2B",
        r#"line 2: missing closing parenthesis: " (2B""#,
    ),
    (
        Schedule,
        "4294967296(4294967296A)",
        r#"line 1: loop count overflows u64: "4294967296(4294967296A)""#,
    ),
    (
        Schedule,
        "18446744073709551615(2A)",
        r#"line 1: loop count overflows u64: "18446744073709551615(2A)""#,
    ),
    (
        Schedule,
        "4294967296((4294967296(A B)))",
        r#"line 1: firing count overflows u64: "4294967296((4294967296(A B)))""#,
    ),
    (
        Schedule,
        "18446744073709551615A B A",
        r#"line 1: firing count overflows u64: "18446744073709551615A B A""#,
    ),
];

#[test]
fn every_parse_error_message_is_pinned() {
    let mut wrong = Vec::new();
    for &(parser, input, expected) in ROWS {
        let err = error(parser, input);
        let got = err.to_string();
        let is_parse = matches!(err, SdfError::Parse { .. });
        if got != expected || is_parse != expected.starts_with("line ") {
            wrong.push(format!(
                "{parser:?} {input:?}\n  expected: {expected}\n       got: {got}"
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
