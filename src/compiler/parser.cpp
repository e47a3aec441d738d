#include "compiler/parser.h"

#include <cctype>
#include <map>
#include <vector>

#include "support/assert.h"

namespace dpa::compiler {

namespace {

struct Token {
  enum class K { kIdent, kNumber, kSymbol, kEnd };
  K kind = K::kEnd;
  std::string text;
  double number = 0;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) { advance(); }

  const Token& peek() const { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

 private:
  void advance() {
    skip_space();
    current_ = Token{};
    current_.line = line_;
    if (pos_ >= src_.size()) {
      current_.kind = Token::K::kEnd;
      return;
    }
    const char c = src_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '_')) {
        ++pos_;
      }
      current_.kind = Token::K::kIdent;
      current_.text = std::string(src_.substr(start, pos_ - start));
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && pos_ + 1 < src_.size() &&
         std::isdigit(static_cast<unsigned char>(src_[pos_ + 1])))) {
      std::size_t start = pos_;
      while (pos_ < src_.size() &&
             (std::isdigit(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '.' || src_[pos_] == 'e' || src_[pos_] == 'E' ||
              ((src_[pos_] == '+' || src_[pos_] == '-') && pos_ > start &&
               (src_[pos_ - 1] == 'e' || src_[pos_ - 1] == 'E')))) {
        ++pos_;
      }
      current_.kind = Token::K::kNumber;
      current_.text = std::string(src_.substr(start, pos_ - start));
      try {
        current_.number = std::stod(current_.text);
      } catch (const std::exception&) {
        DPA_PANIC("line " << line_ << ": bad number '" << current_.text
                          << "'");
      }
      return;
    }
    // Multi-char symbols first.
    for (const char* sym : {"->", "+="}) {
      const std::size_t len = 2;
      if (src_.compare(pos_, len, sym) == 0) {
        current_.kind = Token::K::kSymbol;
        current_.text = src_.substr(pos_, len);
        pos_ += len;
        return;
      }
    }
    current_.kind = Token::K::kSymbol;
    current_.text = std::string(1, c);
    ++pos_;
  }

  void skip_space() {
    for (;;) {
      while (pos_ < src_.size() &&
             std::isspace(static_cast<unsigned char>(src_[pos_]))) {
        if (src_[pos_] == '\n') ++line_;
        ++pos_;
      }
      if (pos_ < src_.size() && src_[pos_] == '#') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
        continue;
      }
      return;
    }
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  Token current_;
};

class Parser {
 public:
  explicit Parser(std::string_view src) : lex_(src) {}

  Module parse() {
    Module m;
    while (lex_.peek().kind != Token::K::kEnd) {
      const Token t = lex_.peek();
      if (t.kind == Token::K::kIdent && t.text == "class") {
        m.classes.push_back(parse_class());
      } else if (t.kind == Token::K::kIdent && t.text == "fn") {
        module_ = &m;  // classes must precede functions that use them
        m.functions.push_back(parse_fn());
      } else {
        fail(t, "expected 'class' or 'fn'");
      }
    }
    return m;
  }

 private:
  [[noreturn]] void fail(const Token& t, const std::string& msg) {
    DPA_PANIC("line " << t.line << ": " << msg << " (got '" << t.text
                      << "')");
  }

  Token expect_ident() {
    Token t = lex_.take();
    if (t.kind != Token::K::kIdent) fail(t, "expected identifier");
    return t;
  }

  void expect_symbol(const std::string& sym) {
    Token t = lex_.take();
    if (t.kind != Token::K::kSymbol || t.text != sym)
      fail(t, "expected '" + sym + "'");
  }

  bool peek_symbol(const std::string& sym) {
    const Token& t = lex_.peek();
    return t.kind == Token::K::kSymbol && t.text == sym;
  }

  bool peek_keyword(const std::string& kw) {
    const Token& t = lex_.peek();
    return t.kind == Token::K::kIdent && t.text == kw;
  }

  ClassDef parse_class() {
    lex_.take();  // class
    ClassDef cls;
    cls.name = expect_ident().text;
    expect_symbol("{");
    while (!peek_symbol("}")) {
      const Token kind = expect_ident();
      if (kind.text == "scalar") {
        cls.scalar_fields.push_back(expect_ident().text);
      } else if (kind.text == "ptr") {
        PtrField f;
        f.name = expect_ident().text;
        expect_symbol(":");
        f.pointee = expect_ident().text;
        cls.ptr_fields.push_back(std::move(f));
      } else {
        fail(kind, "expected 'scalar' or 'ptr'");
      }
      expect_symbol(";");
    }
    expect_symbol("}");
    return cls;
  }

  Function parse_fn() {
    lex_.take();  // fn
    Function fn;
    fn.name = expect_ident().text;
    expect_symbol("(");
    fn.param = expect_ident().text;
    expect_symbol(":");
    fn.param_class = expect_ident().text;
    expect_symbol(")");
    if (!module_->has_class(fn.param_class)) {
      DPA_PANIC("function " << fn.name << ": unknown class '"
                            << fn.param_class << "'");
    }
    ptr_class_.clear();
    ptr_class_[fn.param] = fn.param_class;
    fn.body = parse_block();
    return fn;
  }

  std::vector<StmtPtr> parse_block() {
    expect_symbol("{");
    std::vector<StmtPtr> stmts;
    while (!peek_symbol("}")) stmts.push_back(parse_stmt());
    expect_symbol("}");
    return stmts;
  }

  StmtPtr parse_stmt() {
    const Token head = lex_.take();
    if (head.kind != Token::K::kIdent) fail(head, "expected statement");

    if (head.text == "charge") {
      ExprPtr e = parse_expr();
      expect_symbol(";");
      return Stmt::charge(std::move(e));
    }
    if (head.text == "if") {
      expect_symbol("(");
      ExprPtr cond = parse_expr();
      expect_symbol(")");
      auto then_body = parse_block();
      std::vector<StmtPtr> else_body;
      if (peek_keyword("else")) {
        lex_.take();
        else_body = parse_block();
      }
      return Stmt::if_(std::move(cond), std::move(then_body),
                       std::move(else_body));
    }
    if (head.text == "spawn" || head.text == "spawn_children") {
      const std::string callee = expect_ident().text;
      expect_symbol("(");
      const Token arg = expect_ident();
      expect_symbol(")");
      expect_symbol(";");
      if (ptr_class_.find(arg.text) == ptr_class_.end())
        fail(arg, "unknown pointer variable");
      return head.text == "spawn"
                 ? Stmt::spawn(callee, arg.text)
                 : Stmt::spawn_children(callee, arg.text);
    }

    // Assignment forms: `x = ...` / `acc += expr`.
    if (peek_symbol("+=")) {
      lex_.take();
      ExprPtr e = parse_expr();
      expect_symbol(";");
      return Stmt::accum(head.text, std::move(e));
    }
    expect_symbol("=");

    // Field read `x = p->f` (lookahead: IDENT "->").
    const Token& next = lex_.peek();
    if (next.kind == Token::K::kIdent) {
      const auto pit = ptr_class_.find(next.text);
      if (pit != ptr_class_.end()) {
        const Token ptr_tok = lex_.take();
        if (peek_symbol("->")) {
          lex_.take();
          const Token field = expect_ident();
          expect_symbol(";");
          const ClassDef& cls = module_->cls(pit->second);
          if (cls.scalar_slot(field.text) >= 0) {
            return Stmt::read_scalar(head.text, ptr_tok.text, field.text);
          }
          const int pslot = cls.ptr_slot(field.text);
          if (pslot < 0) {
            fail(field, "class '" + cls.name + "' has no field");
          }
          ptr_class_[head.text] =
              cls.ptr_fields[std::size_t(pslot)].pointee;
          return Stmt::read_ptr(head.text, ptr_tok.text, field.text);
        }
        // A pointer variable used as a plain value: not supported.
        fail(ptr_tok, "pointer variable in scalar expression");
      }
    }
    ExprPtr e = parse_expr();
    expect_symbol(";");
    return Stmt::let(head.text, std::move(e));
  }

  ExprPtr parse_expr() { return parse_cmp(); }

  ExprPtr parse_cmp() {
    ExprPtr lhs = parse_add();
    if (peek_symbol("<") || peek_symbol(">")) {
      const std::string op = lex_.take().text;
      ExprPtr rhs = parse_add();
      return Expr::bin(op == "<" ? Expr::BinOp::kLess : Expr::BinOp::kGreater,
                       std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_add() {
    ExprPtr lhs = parse_mul();
    while (peek_symbol("+") || peek_symbol("-")) {
      const std::string op = lex_.take().text;
      ExprPtr rhs = parse_mul();
      lhs = Expr::bin(op == "+" ? Expr::BinOp::kAdd : Expr::BinOp::kSub,
                      std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_mul() {
    ExprPtr lhs = parse_prim();
    while (peek_symbol("*") || peek_symbol("/")) {
      const std::string op = lex_.take().text;
      ExprPtr rhs = parse_prim();
      lhs = Expr::bin(op == "*" ? Expr::BinOp::kMul : Expr::BinOp::kDiv,
                      std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_prim() {
    const Token t = lex_.take();
    if (t.kind == Token::K::kNumber) return Expr::c(t.number);
    if (t.kind == Token::K::kIdent) {
      if (ptr_class_.count(t.text))
        fail(t, "pointer variable in scalar expression");
      return Expr::v(t.text);
    }
    if (t.kind == Token::K::kSymbol && t.text == "(") {
      ExprPtr e = parse_expr();
      expect_symbol(")");
      return e;
    }
    fail(t, "expected expression");
  }

  Lexer lex_;
  Module* module_ = nullptr;
  std::map<std::string, std::string> ptr_class_;
};

}  // namespace

Module parse_module(std::string_view source) {
  return Parser(source).parse();
}

}  // namespace dpa::compiler
