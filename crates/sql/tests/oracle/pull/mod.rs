//! The second reference: the pull lexer and parser that the table-driven
//! ones replaced, kept verbatim apart from their imports and unit tests.
//! Its lexer returns a `Result` per token and its parser stops at the
//! first `Err`, so it fixes where, and with what message, the shipped
//! front end must refuse a text: the shipped lexer pulls an invalid
//! token instead, and the parser reports that token's error at its next
//! one.

pub mod parser;
pub mod token;
