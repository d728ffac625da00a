// Recursive-descent parser for the C subset.
//
// The grammar covers what the Polybench/C kernels (and the glue code
// SOCRATES weaves into them) need: functions, (multi-)variable
// declarations with array/pointer declarators, the full C expression
// grammar minus the comma operator, control flow (if/for/while/do),
// preprocessor directives as first-class nodes, and OpenMP / GCC
// pragmas at both file and statement scope.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "ir/ast.hpp"

namespace socrates::ir {

class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, int line, int column);
  int line() const { return line_; }
  int column() const { return column_; }

 private:
  int line_;
  int column_;
};

/// Parses a full source file.  Throws ParseError / LexError on bad input,
/// including statements and expressions nested deeper than the parser's
/// recursion limit (1000 levels).
TranslationUnit parse(std::string_view source);

/// Parses a single expression (used by tests and by the weaver when it
/// synthesizes glue expressions from text).
ExprPtr parse_expression(std::string_view source);

/// Parses a single statement.
StmtPtr parse_statement(std::string_view source);

}  // namespace socrates::ir
