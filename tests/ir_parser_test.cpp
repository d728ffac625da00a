// Unit tests for the C-subset parser: expressions, statements,
// declarations, functions and directives.
#include <gtest/gtest.h>

#include <string>

#include "ir/loc_counter.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"

namespace socrates::ir {
namespace {

std::string expr_rt(const char* src) { return print_expr(*parse_expression(src)); }

TEST(ParserExpr, PrecedenceMultiplicationBindsTighter) {
  const auto e = parse_expression("a + b * c");
  ASSERT_EQ(e->kind, ExprKind::kBinary);
  EXPECT_EQ(static_cast<const BinaryExpr&>(*e).op, "+");
}

TEST(ParserExpr, LeftAssociativity) {
  // (a - b) - c
  const auto e = parse_expression("a - b - c");
  const auto& top = static_cast<const BinaryExpr&>(*e);
  EXPECT_EQ(top.op, "-");
  EXPECT_EQ(top.lhs->kind, ExprKind::kBinary);
  EXPECT_EQ(top.rhs->kind, ExprKind::kIdent);
}

TEST(ParserExpr, ParensOverridePrecedence) {
  const auto e = parse_expression("(a + b) * c");
  EXPECT_EQ(static_cast<const BinaryExpr&>(*e).op, "*");
}

TEST(ParserExpr, AssignmentIsRightAssociative) {
  const auto e = parse_expression("a = b = c");
  const auto& top = static_cast<const AssignExpr&>(*e);
  EXPECT_EQ(top.rhs->kind, ExprKind::kAssign);
}

TEST(ParserExpr, CompoundAssignment) {
  const auto e = parse_expression("x += y * 2");
  EXPECT_EQ(static_cast<const AssignExpr&>(*e).op, "+=");
}

TEST(ParserExpr, Conditional) {
  const auto e = parse_expression("a > b ? a : b");
  EXPECT_EQ(e->kind, ExprKind::kConditional);
}

TEST(ParserExpr, CallWithArgs) {
  const auto e = parse_expression("f(x, y + 1, g())");
  const auto& call = static_cast<const CallExpr&>(*e);
  EXPECT_EQ(call.callee, "f");
  ASSERT_EQ(call.args.size(), 3u);
  EXPECT_EQ(call.args[2]->kind, ExprKind::kCall);
}

TEST(ParserExpr, MultiDimIndexing) {
  const auto e = parse_expression("A[i][j + 1]");
  ASSERT_EQ(e->kind, ExprKind::kIndex);
  EXPECT_EQ(static_cast<const IndexExpr&>(*e).base->kind, ExprKind::kIndex);
}

TEST(ParserExpr, CastBindsToUnary) {
  // (double)(i % n) / n  parses as ((double)(i % n)) / n
  const auto e = parse_expression("(double)(i % n) / n");
  const auto& top = static_cast<const BinaryExpr&>(*e);
  EXPECT_EQ(top.op, "/");
  EXPECT_EQ(top.lhs->kind, ExprKind::kCast);
}

TEST(ParserExpr, SizeofTypeAndExpr) {
  EXPECT_EQ(expr_rt("sizeof(double)"), "sizeof(double)");
  EXPECT_EQ(expr_rt("sizeof(x)"), "sizeof(x)");
}

TEST(ParserExpr, AddressOfAndDeref) {
  EXPECT_EQ(expr_rt("&x"), "&x");
  EXPECT_EQ(expr_rt("*p + 1"), "*p + 1");
}

TEST(ParserExpr, PostfixIncrement) {
  const auto e = parse_expression("i++");
  const auto& u = static_cast<const UnaryExpr&>(*e);
  EXPECT_FALSE(u.is_prefix);
}

TEST(ParserExpr, MemberAccess) {
  EXPECT_EQ(expr_rt("s.field"), "s.field");
  EXPECT_EQ(expr_rt("p->field"), "p->field");
}

TEST(ParserExpr, TrailingGarbageThrows) {
  EXPECT_THROW(parse_expression("a + b c"), ParseError);
}

TEST(ParserExpr, CallOfNonIdentifierThrows) {
  EXPECT_THROW(parse_expression("(a + b)(x)"), ParseError);
}

// ---- statements -------------------------------------------------------------

TEST(ParserStmt, DeclarationWithInit) {
  const auto s = parse_statement("int i = 0;");
  const auto& d = static_cast<const DeclStmt&>(*s);
  ASSERT_EQ(d.decls.size(), 1u);
  EXPECT_EQ(d.decls[0].name, "i");
  ASSERT_NE(d.decls[0].init, nullptr);
}

TEST(ParserStmt, MultiDeclaratorStatement) {
  const auto s = parse_statement("int i, j, k;");
  EXPECT_EQ(static_cast<const DeclStmt&>(*s).decls.size(), 3u);
}

TEST(ParserStmt, ArrayDeclaration) {
  const auto s = parse_statement("double A[10][n + 1];");
  const auto& d = static_cast<const DeclStmt&>(*s).decls[0];
  ASSERT_EQ(d.array_dims.size(), 2u);
  EXPECT_NE(d.array_dims[1], nullptr);
}

TEST(ParserStmt, ForWithDeclInit) {
  const auto s = parse_statement("for (int i = 0; i < n; i++) x += i;");
  const auto& f = static_cast<const ForStmt&>(*s);
  ASSERT_NE(f.init, nullptr);
  EXPECT_EQ(f.init->kind, StmtKind::kDecl);
  ASSERT_NE(f.cond, nullptr);
  ASSERT_NE(f.inc, nullptr);
}

TEST(ParserStmt, ForWithEmptyClauses) {
  const auto s = parse_statement("for (;;) break;");
  const auto& f = static_cast<const ForStmt&>(*s);
  EXPECT_EQ(f.init, nullptr);
  EXPECT_EQ(f.cond, nullptr);
  EXPECT_EQ(f.inc, nullptr);
}

TEST(ParserStmt, IfElseChain) {
  const auto s = parse_statement("if (a) x = 1; else if (b) x = 2; else x = 3;");
  const auto& top = static_cast<const IfStmt&>(*s);
  ASSERT_NE(top.else_branch, nullptr);
  EXPECT_EQ(top.else_branch->kind, StmtKind::kIf);
}

TEST(ParserStmt, SwitchWithCasesAndDefault) {
  const auto s = parse_statement(
      "switch (x % 3) {\ncase 0:\n  a = 1;\n  break;\ncase 1 + 1:\n  a = 2;\n"
      "  break;\ndefault:\n  a = 3;\n}");
  ASSERT_EQ(s->kind, StmtKind::kSwitch);
  const auto& sw = static_cast<const SwitchStmt&>(*s);
  const auto& body = static_cast<const CompoundStmt&>(*sw.body);
  std::size_t labels = 0;
  std::size_t defaults = 0;
  for (const auto& stmt : body.stmts) {
    if (stmt->kind != StmtKind::kCaseLabel) continue;
    ++labels;
    if (static_cast<const CaseLabelStmt&>(*stmt).value == nullptr) ++defaults;
  }
  EXPECT_EQ(labels, 3u);
  EXPECT_EQ(defaults, 1u);
}

TEST(ParserStmt, SwitchRequiresCompoundBody) {
  EXPECT_THROW(parse_statement("switch (x) a = 1;"), ParseError);
}

TEST(ParserStmt, SwitchRoundTrips) {
  const auto s = parse_statement(
      "switch (op) {\ncase 1:\n  y += 1;\n  break;\ndefault:\n  y = 0;\n}");
  const std::string once = print_stmt(*s);
  EXPECT_EQ(once, print_stmt(*parse_statement(once)));
  EXPECT_EQ(once, print_stmt(*s->clone()));
  EXPECT_EQ(logical_loc(*s), 6u);  // switch + 2 labels + 3 statements
}

TEST(ParserStmt, WhileAndDoWhile) {
  EXPECT_EQ(parse_statement("while (x) x--;")->kind, StmtKind::kWhile);
  EXPECT_EQ(parse_statement("do x--; while (x);")->kind, StmtKind::kDoWhile);
}

TEST(ParserStmt, PragmaInsideFunctionBody) {
  const auto s = parse_statement(
      "{\n#pragma omp parallel for\nfor (i = 0; i < n; i++) x += i; }");
  const auto& block = static_cast<const CompoundStmt&>(*s);
  ASSERT_EQ(block.stmts.size(), 2u);
  EXPECT_EQ(block.stmts[0]->kind, StmtKind::kPragma);
}

TEST(ParserStmt, ReturnVariants) {
  EXPECT_EQ(parse_statement("return;")->kind, StmtKind::kReturn);
  const auto s = parse_statement("return a + b;");
  EXPECT_NE(static_cast<const ReturnStmt&>(*s).expr, nullptr);
}

// ---- top level -------------------------------------------------------------------

TEST(ParserTop, FunctionWithParams) {
  const auto tu = parse("void f(int n, double *p, double A[10][20]) { }");
  ASSERT_EQ(tu.items.size(), 1u);
  const auto& fn = static_cast<const FunctionDecl&>(*tu.items[0]);
  EXPECT_EQ(fn.name, "f");
  ASSERT_EQ(fn.params.size(), 3u);
  EXPECT_EQ(fn.params[1].pointer_depth, 1);
  EXPECT_EQ(fn.params[2].array_dims.size(), 2u);
}

TEST(ParserTop, VoidParameterList) {
  const auto tu = parse("int main(void) { return 0; }");
  EXPECT_TRUE(static_cast<const FunctionDecl&>(*tu.items[0]).params.empty());
}

TEST(ParserTop, Prototype) {
  const auto tu = parse("double f(int x);");
  const auto& fn = static_cast<const FunctionDecl&>(*tu.items[0]);
  EXPECT_EQ(fn.body, nullptr);
}

TEST(ParserTop, StaticFunction) {
  const auto tu = parse("static int helper(void) { return 1; }");
  EXPECT_TRUE(static_cast<const FunctionDecl&>(*tu.items[0]).is_static);
}

TEST(ParserTop, GlobalArrays) {
  const auto tu = parse("#define N 10\ndouble A[N][N];\nint x = 3;");
  ASSERT_EQ(tu.items.size(), 3u);
  EXPECT_EQ(tu.items[0]->kind, TopLevelKind::kDefine);
  EXPECT_EQ(tu.items[1]->kind, TopLevelKind::kGlobalVar);
}

TEST(ParserTop, IncludeAndPragma) {
  const auto tu = parse("#include <stdio.h>\n#pragma GCC optimize(\"O2\")\n");
  EXPECT_EQ(tu.items[0]->kind, TopLevelKind::kInclude);
  EXPECT_EQ(tu.items[1]->kind, TopLevelKind::kPragma);
  EXPECT_TRUE(static_cast<const TopLevelPragma&>(*tu.items[1]).pragma.is_gcc_optimize());
}

TEST(ParserTop, TypedefPassthrough) {
  const auto tu = parse("typedef struct { int a; } pair_t;\nint main(void) { return 0; }");
  EXPECT_EQ(tu.items[0]->kind, TopLevelKind::kRaw);
}

TEST(ParserTop, FindFunctionAndFunctions) {
  auto tu = parse("void a(void) { }\nvoid b(void);\nvoid c(void) { }");
  EXPECT_NE(tu.find_function("a"), nullptr);
  EXPECT_NE(tu.find_function("b"), nullptr);  // prototype is findable
  EXPECT_EQ(tu.find_function("zzz"), nullptr);
  EXPECT_EQ(tu.functions().size(), 2u);  // definitions only
}

TEST(ParserTop, CloneIsDeepAndEqualText) {
  const auto tu = parse("int g;\nvoid f(int n) { for (int i = 0; i < n; i++) g += i; }");
  const auto copy = tu.clone();
  EXPECT_EQ(print(tu), print(copy));
}

TEST(ParserTop, ErrorCarriesLocation) {
  try {
    parse("void f( { }");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_GT(e.column(), 1);
  }
}

TEST(ParserTop, DeepNestingIsAParseErrorNotAStackOverflow) {
  // A function returning `levels` nested parentheses around 1.
  const auto nested = [](std::size_t levels) {
    return "int f(void) { return " + std::string(levels, '(') + "1" +
           std::string(levels, ')') + "; }";
  };
  EXPECT_NO_THROW(parse(nested(200)));
  try {
    parse(nested(100000));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 1000 levels"),
              std::string::npos)
        << e.what();
  }
  // Statements nest through the same limit.
  EXPECT_THROW(parse("void g(void) " + std::string(100000, '{') + std::string(100000, '}')),
               ParseError);
}

}  // namespace
}  // namespace socrates::ir
