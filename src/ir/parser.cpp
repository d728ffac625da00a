#include "ir/parser.hpp"

#include <sstream>
#include <unordered_set>

#include "ir/lexer.hpp"
#include "support/strings.hpp"

namespace socrates::ir {

ParseError::ParseError(const std::string& message, int line, int column)
    : std::runtime_error([&] {
        std::ostringstream os;
        os << "parse error at " << line << ':' << column << ": " << message;
        return os.str();
      }()),
      line_(line),
      column_(column) {}

namespace {

bool is_type_keyword(const std::string& w) {
  static const std::unordered_set<std::string> kTypes = {
      "void", "char", "short", "int",   "long",     "float",
      "double", "signed", "unsigned", "const", "struct", "volatile",
  };
  return kTypes.count(w) > 0;
}

bool is_decl_start_keyword(const std::string& w) {
  return is_type_keyword(w) || w == "static" || w == "extern" || w == "inline" ||
         w == "register" || w == "restrict";
}

/// Deepest recursion the parser enters.  Every cycle of the grammar
/// passes a statement, an assignment, a conditional or a unary
/// expression, and each of those counts one level (a parenthesis costs
/// three), so a deeper input is a ParseError instead of a stack
/// overflow.  The deepest of the paper kernels and their woven sources
/// reaches 24.
constexpr int kMaxNesting = 1000;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  TranslationUnit parse_translation_unit() {
    TranslationUnit tu;
    while (!peek().is(TokenKind::kEnd)) {
      tu.items.push_back(parse_top_level());
    }
    return tu;
  }

  ExprPtr parse_single_expression() {
    auto expr = parse_assignment();
    expect_end();
    return expr;
  }

  StmtPtr parse_single_statement() {
    auto stmt = parse_statement();
    expect_end();
    return stmt;
  }

 private:
  /// One level of kMaxNesting for as long as it lives.
  class Nesting {
   public:
    explicit Nesting(Parser& parser) : parser_(parser) {
      if (++parser_.depth_ > kMaxNesting)
        parser_.fail("nesting deeper than " + std::to_string(kMaxNesting) + " levels");
    }
    ~Nesting() { --parser_.depth_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;

   private:
    Parser& parser_;
  };

  // ---- token plumbing -------------------------------------------------

  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  bool accept_punct(const char* spelling) {
    if (peek().is_punct(spelling)) {
      advance();
      return true;
    }
    return false;
  }

  bool accept_keyword(const char* spelling) {
    if (peek().is_keyword(spelling)) {
      advance();
      return true;
    }
    return false;
  }

  const Token& expect_punct(const char* spelling) {
    if (!peek().is_punct(spelling)) fail(std::string("expected '") + spelling + "'");
    return advance();
  }

  std::string expect_identifier() {
    if (!peek().is(TokenKind::kIdentifier)) fail("expected identifier");
    return advance().text;
  }

  void expect_end() {
    if (!peek().is(TokenKind::kEnd)) fail("trailing tokens after construct");
  }

  [[noreturn]] void fail(const std::string& message) const {
    const Token& t = peek();
    std::ostringstream os;
    os << message << " (got ";
    if (t.is(TokenKind::kEnd))
      os << "end of input";
    else
      os << '\'' << t.text << '\'';
    os << ')';
    throw ParseError(os.str(), t.line, t.column);
  }

  // ---- top level -------------------------------------------------------

  TopLevelPtr parse_top_level() {
    if (peek().is(TokenKind::kDirective)) return parse_directive();
    if (peek().is_keyword("typedef") || peek().is_keyword("enum") ||
        peek().is_keyword("union"))
      return parse_raw_until_semicolon();
    return parse_declaration_top_level();
  }

  TopLevelPtr parse_directive() {
    const std::string body = trim(advance().text);
    if (starts_with(body, "include")) {
      return std::make_unique<IncludeDirective>(trim(body.substr(7)));
    }
    if (starts_with(body, "define")) {
      return std::make_unique<DefineDirective>(trim(body.substr(6)));
    }
    if (starts_with(body, "pragma")) {
      return std::make_unique<TopLevelPragma>(Pragma{trim(body.substr(6))});
    }
    if (starts_with(body, "ifdef") || starts_with(body, "ifndef") ||
        starts_with(body, "endif") || starts_with(body, "if") ||
        starts_with(body, "else") || starts_with(body, "undef")) {
      // Conditional-compilation lines pass through verbatim.
      return std::make_unique<RawTopLevel>("#" + body);
    }
    fail("unsupported preprocessor directive '#" + body + "'");
  }

  TopLevelPtr parse_raw_until_semicolon() {
    // Capture tokens verbatim (with single spaces) until the matching ';'
    // at brace depth zero.  Handles typedef struct { ... } name;
    std::string text;
    int depth = 0;
    while (!peek().is(TokenKind::kEnd)) {
      const Token& t = advance();
      if (!text.empty()) text += ' ';
      text += t.text;
      if (t.is_punct("{")) ++depth;
      if (t.is_punct("}")) --depth;
      if (t.is_punct(";") && depth == 0) break;
    }
    return std::make_unique<RawTopLevel>(text);
  }

  /// Specifier keywords ("static const unsigned int"), returned joined.
  /// `is_static` reports whether 'static' appeared.
  std::string parse_specifiers(bool& is_static) {
    std::vector<std::string> parts;
    is_static = false;
    while (peek().is(TokenKind::kKeyword) && is_decl_start_keyword(peek().text)) {
      const std::string w = advance().text;
      if (w == "static") {
        is_static = true;
        continue;  // storage class tracked separately, not in the type text
      }
      if (w == "extern" || w == "inline" || w == "register" || w == "restrict") continue;
      parts.push_back(w);
      if (w == "struct") parts.push_back(expect_identifier());
    }
    if (parts.empty()) fail("expected type specifier");
    return join(parts, " ");
  }

  TopLevelPtr parse_declaration_top_level() {
    bool is_static = false;
    const std::string type_text = parse_specifiers(is_static);
    int pointer_depth = 0;
    while (accept_punct("*")) ++pointer_depth;
    const std::string name = expect_identifier();

    if (peek().is_punct("(")) {
      auto fn = std::make_unique<FunctionDecl>();
      fn->return_type = type_text;
      fn->return_pointer_depth = pointer_depth;
      fn->is_static = is_static;
      fn->name = name;
      fn->params = parse_parameter_list();
      if (accept_punct(";")) return fn;  // prototype
      fn->body = parse_compound();
      return fn;
    }

    // Global variable(s).
    std::vector<VarDecl> decls;
    decls.push_back(parse_declarator_rest(type_text, pointer_depth, name));
    while (accept_punct(",")) {
      int pd = 0;
      while (accept_punct("*")) ++pd;
      decls.push_back(parse_declarator_rest(type_text, pd, expect_identifier()));
    }
    expect_punct(";");
    return std::make_unique<GlobalVarDecl>(std::move(decls));
  }

  VarDecl parse_declarator_rest(const std::string& type_text, int pointer_depth,
                                std::string name) {
    VarDecl d;
    d.type_text = type_text;
    d.pointer_depth = pointer_depth;
    d.name = std::move(name);
    while (accept_punct("[")) {
      if (accept_punct("]")) {
        d.array_dims.push_back(nullptr);
      } else {
        d.array_dims.push_back(parse_assignment());
        expect_punct("]");
      }
    }
    if (accept_punct("=")) d.init = parse_assignment();
    return d;
  }

  std::vector<VarDecl> parse_parameter_list() {
    expect_punct("(");
    std::vector<VarDecl> params;
    if (accept_punct(")")) return params;
    if (peek().is_keyword("void") && peek(1).is_punct(")")) {
      advance();
      advance();
      return params;
    }
    while (true) {
      bool dummy_static = false;
      const std::string type_text = parse_specifiers(dummy_static);
      int pd = 0;
      while (accept_punct("*")) ++pd;
      std::string pname;
      if (peek().is(TokenKind::kIdentifier)) pname = advance().text;
      VarDecl p;
      p.type_text = type_text;
      p.pointer_depth = pd;
      p.name = std::move(pname);
      while (accept_punct("[")) {
        if (accept_punct("]")) {
          p.array_dims.push_back(nullptr);
        } else {
          p.array_dims.push_back(parse_assignment());
          expect_punct("]");
        }
      }
      params.push_back(std::move(p));
      if (accept_punct(")")) return params;
      expect_punct(",");
    }
  }

  // ---- statements -------------------------------------------------------

  std::unique_ptr<CompoundStmt> parse_compound() {
    expect_punct("{");
    auto block = std::make_unique<CompoundStmt>();
    while (!peek().is_punct("}")) {
      if (peek().is(TokenKind::kEnd)) fail("unterminated block");
      block->stmts.push_back(parse_statement());
    }
    expect_punct("}");
    return block;
  }

  StmtPtr parse_statement() {
    const Nesting nesting(*this);
    if (peek().is(TokenKind::kDirective)) {
      const std::string body = trim(advance().text);
      if (!starts_with(body, "pragma"))
        fail("only #pragma directives may appear inside a function");
      return std::make_unique<PragmaStmt>(Pragma{trim(body.substr(6))});
    }
    if (peek().is_punct("{")) return parse_compound();
    if (accept_punct(";")) return std::make_unique<EmptyStmt>();
    if (peek().is_keyword("if")) return parse_if();
    if (peek().is_keyword("for")) return parse_for();
    if (peek().is_keyword("while")) return parse_while();
    if (peek().is_keyword("do")) return parse_do_while();
    if (peek().is_keyword("switch")) return parse_switch();
    if (accept_keyword("case")) {
      auto value = parse_conditional();  // no assignment in a case label
      expect_punct(":");
      return std::make_unique<CaseLabelStmt>(std::move(value));
    }
    if (accept_keyword("default")) {
      expect_punct(":");
      return std::make_unique<CaseLabelStmt>(nullptr);
    }
    if (accept_keyword("return")) {
      ExprPtr value;
      if (!peek().is_punct(";")) value = parse_assignment();
      expect_punct(";");
      return std::make_unique<ReturnStmt>(std::move(value));
    }
    if (accept_keyword("break")) {
      expect_punct(";");
      return std::make_unique<BreakStmt>();
    }
    if (accept_keyword("continue")) {
      expect_punct(";");
      return std::make_unique<ContinueStmt>();
    }
    if (peek().is(TokenKind::kKeyword) && is_decl_start_keyword(peek().text))
      return parse_decl_statement();
    auto expr = parse_assignment();
    expect_punct(";");
    return std::make_unique<ExprStmt>(std::move(expr));
  }

  StmtPtr parse_decl_statement() {
    bool is_static = false;
    const std::string type_text = parse_specifiers(is_static);
    std::vector<VarDecl> decls;
    while (true) {
      int pd = 0;
      while (accept_punct("*")) ++pd;
      decls.push_back(parse_declarator_rest(type_text, pd, expect_identifier()));
      if (!accept_punct(",")) break;
    }
    expect_punct(";");
    return std::make_unique<DeclStmt>(std::move(decls));
  }

  StmtPtr parse_if() {
    advance();  // 'if'
    expect_punct("(");
    auto cond = parse_assignment();
    expect_punct(")");
    auto then_branch = parse_statement();
    StmtPtr else_branch;
    if (accept_keyword("else")) else_branch = parse_statement();
    return std::make_unique<IfStmt>(std::move(cond), std::move(then_branch),
                                    std::move(else_branch));
  }

  StmtPtr parse_for() {
    advance();  // 'for'
    expect_punct("(");
    auto loop = std::make_unique<ForStmt>();
    if (!accept_punct(";")) {
      if (peek().is(TokenKind::kKeyword) && is_decl_start_keyword(peek().text)) {
        loop->init = parse_decl_statement();  // consumes trailing ';'
      } else {
        auto expr = parse_assignment();
        expect_punct(";");
        loop->init = std::make_unique<ExprStmt>(std::move(expr));
      }
    }
    if (!peek().is_punct(";")) loop->cond = parse_assignment();
    expect_punct(";");
    if (!peek().is_punct(")")) loop->inc = parse_assignment();
    expect_punct(")");
    loop->body = parse_statement();
    return loop;
  }

  StmtPtr parse_while() {
    advance();  // 'while'
    expect_punct("(");
    auto cond = parse_assignment();
    expect_punct(")");
    auto body = parse_statement();
    return std::make_unique<WhileStmt>(std::move(cond), std::move(body));
  }

  StmtPtr parse_switch() {
    advance();  // 'switch'
    expect_punct("(");
    auto cond = parse_assignment();
    expect_punct(")");
    if (!peek().is_punct("{")) fail("switch body must be a compound statement");
    auto body = parse_compound();
    return std::make_unique<SwitchStmt>(std::move(cond), std::move(body));
  }

  StmtPtr parse_do_while() {
    advance();  // 'do'
    auto body = parse_statement();
    if (!accept_keyword("while")) fail("expected 'while' after do-body");
    expect_punct("(");
    auto cond = parse_assignment();
    expect_punct(")");
    expect_punct(";");
    return std::make_unique<DoWhileStmt>(std::move(body), std::move(cond));
  }

  // ---- expressions --------------------------------------------------------

  ExprPtr parse_assignment() {
    const Nesting nesting(*this);
    auto lhs = parse_conditional();
    static const std::unordered_set<std::string> kAssignOps = {
        "=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^="};
    if (peek().is(TokenKind::kPunct) && kAssignOps.count(peek().text) > 0) {
      const std::string op = advance().text;
      auto rhs = parse_assignment();  // right-associative
      return std::make_unique<AssignExpr>(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_conditional() {
    const Nesting nesting(*this);
    auto cond = parse_binary(0);
    if (accept_punct("?")) {
      auto then_expr = parse_assignment();
      expect_punct(":");
      auto else_expr = parse_conditional();
      return std::make_unique<ConditionalExpr>(std::move(cond), std::move(then_expr),
                                               std::move(else_expr));
    }
    return cond;
  }

  /// Binary operator precedence: higher binds tighter. -1 = not binary.
  static int binary_precedence(const Token& t) {
    if (!t.is(TokenKind::kPunct)) return -1;
    const std::string& op = t.text;
    if (op == "||") return 1;
    if (op == "&&") return 2;
    if (op == "|") return 3;
    if (op == "^") return 4;
    if (op == "&") return 5;
    if (op == "==" || op == "!=") return 6;
    if (op == "<" || op == ">" || op == "<=" || op == ">=") return 7;
    if (op == "<<" || op == ">>") return 8;
    if (op == "+" || op == "-") return 9;
    if (op == "*" || op == "/" || op == "%") return 10;
    return -1;
  }

  ExprPtr parse_binary(int min_prec) {
    auto lhs = parse_unary();
    while (true) {
      const int prec = binary_precedence(peek());
      if (prec < 0 || prec < min_prec) return lhs;
      const std::string op = advance().text;
      auto rhs = parse_binary(prec + 1);  // left-associative
      lhs = std::make_unique<BinaryExpr>(op, std::move(lhs), std::move(rhs));
    }
  }

  bool looks_like_cast() const {
    // '(' followed by a type keyword, then tokens until ')' that are
    // only specifiers / '*', then something that can start a unary expr.
    if (!peek().is_punct("(")) return false;
    if (!peek(1).is(TokenKind::kKeyword) || !is_type_keyword(peek(1).text)) return false;
    std::size_t i = 1;
    while (!peek(i).is(TokenKind::kEnd)) {
      const Token& t = peek(i);
      if (t.is_punct(")")) return true;
      const bool ok = (t.is(TokenKind::kKeyword) && is_type_keyword(t.text)) ||
                      t.is_punct("*") ||
                      (t.is(TokenKind::kKeyword) && t.text == "struct") ||
                      t.is(TokenKind::kIdentifier);
      if (!ok) return false;
      ++i;
    }
    return false;
  }

  ExprPtr parse_unary() {
    const Nesting nesting(*this);
    const Token& t = peek();
    if (t.is_punct("+") || t.is_punct("-") || t.is_punct("!") || t.is_punct("~") ||
        t.is_punct("*") || t.is_punct("&") || t.is_punct("++") || t.is_punct("--")) {
      const std::string op = advance().text;
      return std::make_unique<UnaryExpr>(op, parse_unary(), /*pre=*/true);
    }
    if (t.is_keyword("sizeof")) {
      advance();
      if (looks_like_cast()) {
        expect_punct("(");
        std::string type_text = parse_cast_type();
        expect_punct(")");
        return std::make_unique<UnaryExpr>("sizeof",
                                           std::make_unique<Ident>(type_text),
                                           /*pre=*/true);
      }
      return std::make_unique<UnaryExpr>("sizeof", parse_unary(), /*pre=*/true);
    }
    if (looks_like_cast()) {
      expect_punct("(");
      std::string type_text = parse_cast_type();
      expect_punct(")");
      return std::make_unique<CastExpr>(std::move(type_text), parse_unary());
    }
    return parse_postfix();
  }

  std::string parse_cast_type() {
    std::vector<std::string> parts;
    while (!peek().is_punct(")")) {
      if (peek().is(TokenKind::kEnd)) fail("unterminated cast");
      parts.push_back(advance().text);
    }
    return join(parts, " ");
  }

  ExprPtr parse_postfix() {
    auto expr = parse_primary();
    while (true) {
      if (peek().is_punct("(")) {
        // Only identifier callees are supported (C function calls).
        if (expr->kind != ExprKind::kIdent) fail("call of non-identifier expression");
        const std::string callee = static_cast<Ident&>(*expr).name;
        advance();  // '('
        std::vector<ExprPtr> args;
        if (!accept_punct(")")) {
          while (true) {
            args.push_back(parse_assignment());
            if (accept_punct(")")) break;
            expect_punct(",");
          }
        }
        expr = std::make_unique<CallExpr>(callee, std::move(args));
        continue;
      }
      if (accept_punct("[")) {
        auto index = parse_assignment();
        expect_punct("]");
        expr = std::make_unique<IndexExpr>(std::move(expr), std::move(index));
        continue;
      }
      if (peek().is_punct(".") || peek().is_punct("->")) {
        const bool arrow = advance().text == "->";
        expr = std::make_unique<MemberExpr>(std::move(expr), expect_identifier(), arrow);
        continue;
      }
      if (peek().is_punct("++") || peek().is_punct("--")) {
        const std::string op = advance().text;
        expr = std::make_unique<UnaryExpr>(op, std::move(expr), /*pre=*/false);
        continue;
      }
      return expr;
    }
  }

  ExprPtr parse_primary() {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::kIntLiteral:
        return std::make_unique<IntLit>(advance().text);
      case TokenKind::kFloatLiteral:
        return std::make_unique<FloatLit>(advance().text);
      case TokenKind::kStringLiteral:
        return std::make_unique<StringLit>(advance().text);
      case TokenKind::kCharLiteral:
        return std::make_unique<CharLit>(advance().text);
      case TokenKind::kIdentifier:
        return std::make_unique<Ident>(advance().text);
      default:
        break;
    }
    if (accept_punct("(")) {
      auto expr = parse_assignment();
      expect_punct(")");
      return expr;
    }
    fail("expected expression");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< Nesting levels currently entered
};

}  // namespace

TranslationUnit parse(std::string_view source) {
  Parser parser(lex(source));
  return parser.parse_translation_unit();
}

ExprPtr parse_expression(std::string_view source) {
  Parser parser(lex(source));
  return parser.parse_single_expression();
}

StmtPtr parse_statement(std::string_view source) {
  Parser parser(lex(source));
  return parser.parse_single_statement();
}

}  // namespace socrates::ir
