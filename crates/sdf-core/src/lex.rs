//! The line grammar of graph files ([`crate::io`]), mode graphs
//! ([`crate::mode`]) and edit scripts: `#` comments, whitespace-separated
//! words, checked `u64` numbers, `SRC SNK PROD CONS [delay D]` edges and
//! `@ORD` ordinals. A malformed line is one [`SdfError::Parse`]:
//!
//! ```
//! let err = sdf_core::io::parse_graph("graph g\nedge A B x 1 # r\n").unwrap_err();
//! assert_eq!(err.to_string(), r#"line 2: bad production rate `x`: "edge A B x 1 # r""#);
//! ```

use std::fmt;
use std::str::SplitWhitespace;

use crate::error::SdfError;

/// One line of input, iterating over the words before its comment.
#[derive(Clone, Debug)]
pub struct Line<'a> {
    /// The 1-based line number.
    pub number: usize,
    raw: &'a str,
    words: SplitWhitespace<'a>,
}

/// The lines of `text` that hold a word, as (keyword, rest of the line).
pub fn lines(text: &str) -> impl Iterator<Item = (&str, Line<'_>)> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let mut line = Line::new(i + 1, raw);
        line.next().map(|keyword| (keyword, line))
    })
}

/// Reads `word`, ASCII digits only, as the `u64` operand `what`, else
/// says ``bad <what> `<word>` ``.
pub fn parse_u64(word: &str, what: &str) -> Result<u64, String> {
    digits(word).ok_or_else(|| format!("bad {what} `{word}`"))
}

/// `word` as a number if it is one or more ASCII digits, no sign, that fit.
fn digits<T: std::str::FromStr>(word: &str) -> Option<T> {
    if word.bytes().all(|b| b.is_ascii_digit()) {
        word.parse().ok()
    } else {
        None
    }
}

impl<'a> Line<'a> {
    /// Line `number`, written as `raw`.
    pub fn new(number: usize, raw: &'a str) -> Self {
        let body = raw.split('#').next().unwrap_or_default();
        let words = body.split_whitespace();
        Line { number, raw, words }
    }

    /// A parse error on this line: `message`, then the line as written.
    pub fn error(&self, message: impl fmt::Display) -> SdfError {
        let (line, message) = (self.number, format!("{message}: {:?}", self.raw));
        SdfError::Parse { line, message }
    }

    /// The next word, else the error `missing`.
    pub fn word(&mut self, missing: &str) -> Result<&'a str, SdfError> {
        self.next().ok_or_else(|| self.error(missing))
    }

    /// The next word as the `u64` operand `what`, else `missing <what>`.
    pub fn u64(&mut self, what: &str) -> Result<u64, SdfError> {
        match self.next() {
            Some(word) => parse_u64(word, what).map_err(|message| self.error(message)),
            None => Err(self.error(format_args!("missing {what}"))),
        }
    }

    /// Ends the line, else the error `trailing`.
    pub fn end(&mut self, trailing: &str) -> Result<(), SdfError> {
        self.next().map_or(Ok(()), |_| Err(self.error(trailing)))
    }

    /// The rest of the line as `SRC SNK PROD CONS [delay D]`, returned
    /// as `(src, snk, prod, cons, delay)`.
    pub fn edge(&mut self) -> Result<(&'a str, &'a str, u64, u64, u64), SdfError> {
        let src = self.word("missing source")?;
        let snk = self.word("missing sink")?;
        let prod = self.u64("production rate")?;
        let cons = self.u64("consumption rate")?;
        let delay = match self.next() {
            None => 0,
            Some("delay") => self.u64("delay")?,
            Some(_) => return Err(self.error("expected `delay D` or end of line")),
        };
        self.end("trailing tokens")?;
        Ok((src, snk, prod, cons, delay))
    }

    /// The rest of the line as an optional `@ORD` (0 when absent), else
    /// the error `arity` when more than one word is left.
    pub fn ordinal(&mut self, arity: &str) -> Result<usize, SdfError> {
        let word = self.next();
        self.end(arity)?;
        let Some(w) = word else { return Ok(0) };
        let ordinal = w.strip_prefix('@').and_then(digits);
        ordinal.ok_or_else(|| self.error(format_args!("expected `@ORD`, got `{w}`")))
    }
}

impl<'a> Iterator for Line<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.words.next()
    }
}
